"""Tests of the benchmark harness itself (not of rankpit).

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import rankpit  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SECONDS = 0.5  # a few positions per workload


def _files(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_are_deterministic_for_a_seed(tmp_path, workload):
    a = _files(gen.generate(workload, 7, SECONDS, tmp_path / "a").parent)
    b = _files(gen.generate(workload, 7, SECONDS, tmp_path / "b").parent)
    c = _files(gen.generate(workload, 8, SECONDS, tmp_path / "c").parent)
    assert a == b
    if workload != "measure_nw":  # NW grid rows are the same polynomials
        assert a != c


def test_shapes_do_not_depend_on_the_seed():
    for i in range(30):
        a, b = gen.random_circuit("1/0", i), gen.random_circuit("2/0", i)
        assert (a.nvars, a.declared, len(a.gates)) == (b.nvars, b.declared, len(b.gates))
        assert gen.serialize(a) != gen.serialize(b)


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0,10] has children [1,4] and [5,9]; [5,9] has a child [6,7];
    # the last root [20,30] has two overlapping children [21,25] and [23,26]
    start = [0, 1, 5, 6, 20, 21, 23]
    end = [10, 4, 9, 7, 30, 25, 26]
    parent = [-1, 0, 0, 2, -1, 4, 4]
    assert tracing.self_times(start, end, parent) == [3, 3, 3, 1, 5, 4, 3]


def test_layer_metrics_from_a_traced_pit_test():
    c = gen.random_circuit("3/0", 0)  # a planted zero: the whole set is scanned
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = rankpit.pit.pit_test(c)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    assert report.verdict == "zero"
    assert m["pit.pit_test.calls"] == 1
    assert m["pit.points_enumerated"] == report.hitting_set_size
    assert m["pit.points_evaluated"] == report.hitting_set_size
    assert m["circuit.evaluate_circuit.calls"] == report.hitting_set_size
    assert m["domains.PrimeField.coerce.calls"] > 0
    covered = m["pit.hitting_set.busy_s"] + m["circuit.evaluate_circuit.busy_s"]
    assert covered <= m["pit.pit_test.busy_s"]
    assert m["pit.pit_test.self_s"] == pytest.approx(
        m["pit.pit_test.busy_s"] - covered - m["pit.support_bound.busy_s"], abs=1e-9)


def test_uninstall_restores_every_function():
    before = {key: dict(vars(mod)) for key, mod in sys.modules.items()
              if key.startswith("rankpit")}
    methods = dict(vars(rankpit.poly.Polynomial))
    tracer = tracing.Tracer()
    tracer.install()
    assert rankpit.pit.evaluate_circuit is not before["rankpit.pit"]["evaluate_circuit"]
    assert rankpit.circuit.evaluate_circuit is rankpit.pit.evaluate_circuit
    assert rankpit.measure.rank_stream is rankpit.linalg.rank_stream
    tracer.uninstall()
    after = {key: dict(vars(sys.modules[key])) for key in before}
    assert after == before
    assert dict(vars(rankpit.poly.Polynomial)) == methods


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(tmp_path, workload):
    wl = WORKLOADS[workload]
    manifest = gen.generate(workload, 5, SECONDS, tmp_path)
    _, ops = wl.load(json.loads(manifest.read_text()), tmp_path)
    _, plain, errors, _ = worker.timed_pass(wl, ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, traced, t_errors, _ = worker.timed_pass(wl, ops, tracer=tracer)
    finally:
        tracer.uninstall()
    assert not errors and not t_errors
    assert [wl.key(o) for o in plain] == [wl.key(o) for o in traced]
    assert worker.checked(wl, ops, plain, errors) == {}
    assert len(tracer.start) > 0


def test_checks_reject_wrong_results(tmp_path):
    pit = WORKLOADS["pit_corpus"]
    c = gen.random_circuit("1/0", 0)  # a planted zero
    assert pit.check([c], [("zero", None)]) == []
    assert pit.check([c], [("nonzero", (0,) * c.nvars)]) == [0]

    cert = WORKLOADS["certify_fp"]
    rank = json.dumps({"result": {"rank": 1}})
    no_ann = json.dumps({"error": "NoAnnihilatorWithinCap"})
    assert cert._agree(2, True, [(0, rank), (0, rank), (0, "{}")])
    assert not cert._agree(2, True, [(0, rank), (0, rank), (2, no_ann)])
    assert not cert._agree(2, False, [(0, rank), (0, rank), (0, "{}")])

    meas = WORKLOADS["measure_nw"]
    manifest = gen.generate("measure_nw", 1, SECONDS, tmp_path)
    _, batch = meas.load(json.loads(manifest.read_text()), tmp_path)
    ops = batch[:2]
    outs = [meas.run(op) for op in ops]
    assert meas.check(ops, outs) == []
    (rep_q, poly_q), fp = outs
    inflated = dataclasses.replace(rep_q, dimension=rep_q.rows + rep_q.cols)
    assert meas.check(ops, [(inflated, poly_q), fp]) == [0, 1]


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    import run
    assert {m["name"] for m in spec["end_to_end"]} == set(run.UNITS)
    layer_names = [m["name"] for m in spec["per_layer"]]
    expected = set(tracing.Tracer().layer_metrics()) | set(run.LAYER_EXTRAS)
    assert len(layer_names) == len(set(layer_names))
    assert set(layer_names) == expected
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


@pytest.mark.parametrize("n, pct", [(480, 97), (300, 96), (100, 90), (20, 50), (6, 50)])
def test_tail_percentile_leaves_ten_samples_beyond_it(n, pct):
    import run
    assert run.tail_percentile(n) == pct
    if n > 20:
        samples = list(range(n))
        cut = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
        assert sum(x > cut for x in samples) >= 10


def test_probe_time_cancels_a_uniform_slowdown():
    import run
    lat, probes = [0.010, 0.020, 0.030], [0.002] * 4
    assert run.in_probe_time(lat, probes) == pytest.approx([0.005, 0.010, 0.015])
    slow = run.in_probe_time([1.5 * x for x in lat], [1.5 * x for x in probes])
    assert slow == pytest.approx(run.in_probe_time(lat, probes))
    # one probe hit by an interruption does not move its neighbours' scale
    assert run.in_probe_time(lat, [0.002, 0.050, 0.002, 0.002]) == pytest.approx(
        [0.005, 0.010, 0.015])


def test_refuses_to_run_without_rankpit_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pit_corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
