"""CLI: dispatch, exit codes, report shape, determinism, caps."""

import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from rankpit import cli

DATA = Path(__file__).parent / "data"

E1_POLYS = {
    "field": {"type": "rational"},
    "nvars": 2,
    "polys": [
        [{"coeff": "1", "mono": {"1": 1}}, {"coeff": "1", "mono": {"2": 1}}],
        [{"coeff": "1", "mono": {"1": 1, "2": 1}}],
        [{"coeff": "1", "mono": {"1": 2}}, {"coeff": "1", "mono": {"2": 2}}],
    ],
}

ZERO_CIRCUIT = {
    "field": {"type": "rational"},
    "nvars": 2,
    "declared": {"d": 2, "k": 2, "delta": 2},
    "gates": [
        {"outer": "product", "inner": [
            [{"coeff": "1", "mono": {"1": 1}}, {"coeff": "1", "mono": {"2": 1}}],
            [{"coeff": "1", "mono": {"1": 1}}, {"coeff": "-1", "mono": {"2": 1}}],
        ]},
        {"outer": "product", "inner": [
            [{"coeff": "-1", "mono": {}}],
            [{"coeff": "1", "mono": {"1": 2}}, {"coeff": "-1", "mono": {"2": 2}}],
        ]},
    ],
}


@pytest.fixture
def e1_file(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(E1_POLYS))
    return str(path)


@pytest.fixture
def zero_circuit_file(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_CIRCUIT))
    return str(path)


def test_rank_on_e1(e1_file):
    code, out = cli.run(["rank", "--poly-file", e1_file, "--json", "--seed", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["rank"] == 2
    assert rep["result"]["basis"] == [1, 2]
    assert rep["config"]["seed"] == 1


@pytest.mark.parametrize("field, points, error_bound", [
    ({"type": "rational"},
     [["3141346437", "578251824"], ["8749836508", "12803971485"],
      ["12603438525", "3877795129"]], "1/9903520314283042199192993792"),
    ({"type": "prime", "p": "101"},
     [["93", "30"], ["17", "18"], ["4", "71"]], "216/1030301"),
], ids=["Q", "F101"])
def test_randomized_rank_report_is_pinned(tmp_path, field, points, error_bound):
    """The whole randomized `rank --json` report of the E1 triple, bytes
    included: points, error bound and basis."""
    path = tmp_path / "e1.json"
    path.write_text(json.dumps(dict(E1_POLYS, field=field)))
    code, out = cli.run(["rank", "--poly-file", str(path), "--json", "--seed", "1"])
    expected = {"command": "rank", "config": {
        "caps": {"annihilator_degree": None, "expansion_terms": 10000000,
                 "hitting_set_points": 2000000, "matrix_cells": 10000000},
        "output": "json", "seed": 1, "timings": False}, "result": {
        "basis": [1, 2], "error_bound": error_bound, "evaluation_points": points,
        "method": "jacobian-randomized", "rank": 2, "security_bits": 30, "seed": 1}}
    assert (code, out) == (0, json.dumps(expected, indent=2, sort_keys=True) + "\n")


def test_rank_symbolic_agrees(e1_file):
    code, out = cli.run(["rank", "--poly-file", e1_file, "--mode", "symbolic",
                         "--json"])
    res = json.loads(out)["result"]
    assert (res["rank"], res["basis"]) == (2, [1, 2])
    assert res["method"] == "jacobian-certified"


def test_rank_symbolic_refuses_an_uncertified_tuple(tmp_path):
    """(x^5, y) over F_5: rank 2, but its Jacobian has rank 1 at every point."""
    path = tmp_path / "frobenius.json"
    path.write_text(json.dumps({"field": {"type": "prime", "p": 5}, "nvars": 2, "polys": [
        [{"coeff": "1", "mono": {"1": 5}}], [{"coeff": "1", "mono": {"2": 1}}]]}))
    code, out = cli.run(["rank", "--poly-file", str(path), "--mode", "symbolic", "--json"])
    payload = json.loads(out)
    assert (code, payload["error"], payload["attempts"]) == (2, "RankNotCertified", 3)


@pytest.mark.parametrize("command", [["rank", "--mode", "symbolic"], ["depend"]])
def test_a_coefficient_of_2_61_minus_1_is_certified(tmp_path, command):
    """((2^61-1)*x1, x2) over Q has rank 2; no fixed prime may hide it."""
    path = tmp_path / "m61.json"
    path.write_text(json.dumps({"field": {"type": "rational"}, "nvars": 2, "polys": [
        [{"coeff": str((1 << 61) - 1), "mono": {"1": 1}}], [{"coeff": "1", "mono": {"2": 1}}]]}))
    code, out = cli.run([command[0], "--poly-file", str(path), *command[1:], "--json"])
    assert code == 0
    assert json.loads(out)["result"]["basis"] == [1, 2]


def test_annihilate_e1(e1_file):
    code, out = cli.run(["annihilate", "--poly-file", e1_file, "--json"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["annihilator"] == "z1^2 - 2*z2 - z3"
    assert res["degree"] == 2


def test_depend_e1(e1_file):
    code, out = cli.run(["depend", "--poly-file", e1_file, "--json", "--seed", "2"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["basis"] == [1, 2]
    assert "3" in res["witnesses"]


def test_rewritten_gate_k_bounds_its_components(tmp_path):
    """x1 + x2^2 has rank 1, so its gate may declare k = 1; its translate's
    components, a constant, x1 + 2*a2*x2 and x2^2, have rank 2.  The
    rewritten gate's k bounds the components, so the rewritten circuit
    passes `pit --certify-rank`."""
    path, out = tmp_path / "rank1.json", tmp_path / "rewritten.json"
    path.write_text(json.dumps({
        "field": {"type": "rational"}, "nvars": 2, "declared": {"d": 2, "k": 1, "delta": 2},
        "gates": [{"outer": "product", "k": 1, "inner": [
            [{"coeff": "1", "mono": {"1": 1}}, {"coeff": "1", "mono": {"2": 2}}]]}]}))
    code, _ = cli.run(["rewrite", "--circuit", str(path), "--out", str(out)])
    assert code == 0 and json.loads(out.read_text())["gates"][0]["k"] == 2
    code, text = cli.run(["pit", "--circuit", str(out), "--certify-rank", "--json"])
    assert code == 1 and json.loads(text)["result"]["rank_certified"]


def test_depend_draws_its_rank_certificate_from_the_seed(tmp_path):
    """Over F_3, (x1^2, x2) has rank 2, but the Jacobian is singular wherever
    x1 = 0, so a seed whose three certificate points all have x1 = 0 cannot
    certify it.  `depend` fails at exactly the seeds where `rank --mode
    symbolic` does, so --seed moves its certificate's points."""
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"field": {"type": "prime", "p": "3"}, "nvars": 2, "polys": [
        [{"coeff": "1", "mono": {"1": 2}}], [{"coeff": "1", "mono": {"2": 1}}]]}))
    failing = {"rank": set(), "depend": set()}
    for command in (["rank", "--mode", "symbolic"], ["depend"]):
        for seed in range(50):
            code, out = cli.run(command + ["--poly-file", str(path), "--json",
                                           "--seed", str(seed)])
            if code:
                assert (code, json.loads(out)["error"]) == (2, "RankNotCertified")
                failing[command[0]].add(seed)
    assert failing["rank"] and failing["depend"] == failing["rank"]


def test_depend_on_constants_in_no_variables(tmp_path):
    """A 0-variable tuple has rank 0: every witness is its constant."""
    path = tmp_path / "constants.json"
    path.write_text(json.dumps({"field": {"type": "rational"}, "nvars": 0, "polys": [
        [{"coeff": "3", "mono": {}}], [{"coeff": "-1/2", "mono": {}}], []]}))
    code, out = cli.run(["depend", "--poly-file", str(path), "--json"])
    res = json.loads(out)["result"]
    assert (code, res["a"], res["basis"]) == (0, [], [])
    assert res["witnesses"] == {"1": {"F": "3", "truncation_degree": 0},
                                "2": {"F": "-1/2", "truncation_degree": 0},
                                "3": {"F": "0", "truncation_degree": 0}}


def test_pit_zero_exit_code(zero_circuit_file):
    code, out = cli.run(["pit", "--circuit", zero_circuit_file,
                         "--mode", "both", "--json"])
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "zero"


def test_pit_nonzero_exit_code(tmp_path):
    obj = dict(ZERO_CIRCUIT)
    obj = json.loads(json.dumps(ZERO_CIRCUIT))
    obj["gates"] = obj["gates"][:1]
    path = tmp_path / "nz.json"
    path.write_text(json.dumps(obj))
    code, out = cli.run(["pit", "--circuit", str(path), "--json"])
    assert code == 1
    assert json.loads(out)["result"]["verdict"] == "nonzero"


def test_usage_error_exit_64():
    assert cli.main(["totally-bogus-subcommand"]) == 64
    assert cli.main(["rank"]) == 64  # missing required flag


def test_computation_error_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    code, out = cli.run(["pit", "--circuit", str(path), "--json"])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "CircuitSyntaxError"


def test_cap_honored_with_structured_error(zero_circuit_file):
    code, out = cli.run(["pit", "--circuit", zero_circuit_file, "--json",
                         "--cap-points", "2"])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "SetTooLarge"
    assert "9" in payload["detail"]  # exact would-be size


def test_cap_points_is_the_enforced_cap():
    # the cap the report echoes is the one the scan obeys
    code, out = cli.run(["pit", "--circuit", str(DATA / "e1_circuit.json"),
                         "--json", "--cap-points", "1"])
    payload = json.loads(out)
    assert (code, payload["error"], payload["cap"]) == (2, "SetTooLarge", 1)


def test_env_seed_fallback(e1_file, monkeypatch):
    monkeypatch.setenv("RANKPIT_SEED", "99")
    code, out = cli.run(["rank", "--poly-file", e1_file, "--json"])
    assert json.loads(out)["config"]["seed"] == 99


def test_bad_env_seed_is_invalid_params(e1_file, monkeypatch, capsys):
    # exit 1 is the verdict "nonzero", so a bad seed must not reach it
    monkeypatch.setenv("RANKPIT_SEED", "abc")
    assert cli.main(["rank", "--poly-file", e1_file, "--json"]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "InvalidParams"
    assert "RANKPIT_SEED" in payload["detail"] and "'abc'" in payload["detail"]


_IMPORT_PROBE = """
import json, sys
import rankpit, rankpit.cli
from rankpit import cli, nw

def loaded():
    return sorted(m for m in ("numpy", "mpmath") if m in sys.modules)

polys, origin_circuit, scan_circuit = sys.argv[1:]
seen = {"import": loaded()}
codes = [cli.run(argv)[0] for argv in (
    ["rank", "--poly-file", polys, "--json"],
    ["rank", "--poly-file", polys, "--mode", "symbolic", "--json"],
    ["annihilate", "--poly-file", polys, "--json"],
    ["measure", "--poly-file", polys, "--index", "2", "--r", "1", "--m", "1", "--json"],
    ["pit", "--circuit", origin_circuit, "--json"])]
seen["light"] = loaded()
codes.append(cli.run(["pit", "--circuit", scan_circuit, "--json"])[0])
seen["scan"] = loaded()
nw.instantiate_parameters(16)
seen["interval"] = loaded()
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_numpy_and_mpmath_load_only_where_used(e1_file, tmp_path):
    # start-up cost: numpy loads only for a scan past the origin, mpmath
    # only for interval arithmetic; neither import may vanish altogether
    one = [{"outer": "product", "inner": [[{"coeff": "1", "mono": {}}]]}]
    origin = tmp_path / "origin.json"
    origin.write_text(json.dumps({**ZERO_CIRCUIT, "gates": one}))
    scan = tmp_path / "scan.json"  # (x1+x2)(x1-x2): zero at the origin only
    scan.write_text(json.dumps({**ZERO_CIRCUIT, "gates": ZERO_CIRCUIT["gates"][:1]}))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, e1_file,
                           str(origin), str(scan)],
                          env=env, capture_output=True, text=True, check=True)
    out = json.loads(done.stdout)
    assert out["codes"] == [0, 0, 0, 0, 1, 1]
    assert out["seen"] == {"import": [], "light": [], "scan": ["numpy"],
                           "interval": ["mpmath", "numpy"]}


def test_json_reports_deterministic_across_workers(zero_circuit_file):
    outputs = set()
    for workers in ("1", "4", "8"):
        for _ in range(2):
            code, out = cli.run(["pit", "--circuit", zero_circuit_file,
                                 "--json", "--seed", "7", "--workers", workers])
            outputs.add(out)
    assert len(outputs) == 1


def test_measure_subcommand_and_sweep(e1_file):
    code, out = cli.run(["measure", "--poly-file", e1_file, "--index", "2",
                         "--r", "1", "--m", "1", "--json"])
    assert code == 0
    assert json.loads(out)["result"]["dimension"] == 1
    code, out = cli.run(["measure", "--poly-file", e1_file, "--index", "2",
                         "--r", "1", "--m", "1", "--sweep"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,m,dimension,rows,cols"
    assert len(lines) == 1 + 2 * 2


def test_sweep_is_byte_deterministic_unless_timed(e1_file):
    argv = ["measure", "--poly-file", e1_file, "--index", "2", "--r", "1", "--m", "1",
            "--sweep"]
    assert cli.run(argv) == cli.run(argv)
    untimed = cli.run(argv)[1].splitlines()
    timed = cli.run(argv + ["--timings"])[1].splitlines()
    assert timed[0] == untimed[0] + ",millis" and len(timed) == len(untimed) == 5
    for plain, row in zip(untimed[1:], timed[1:]):
        head, millis = row.rsplit(",", 1)
        assert head == plain and float(millis) >= 0


def test_nw_subcommand_text_and_experiment():
    code, out = cli.run(["nw", "--n", "2", "--q", "2", "--e", "1"])
    assert code == 0
    assert out.strip() == "x1*x3 + x2*x4"
    code, out = cli.run(["nw", "--n", "2", "--q", "2", "--e", "1",
                         "--gamma", "3", "--p", "1/2", "--trials", "300",
                         "--seed", "4", "--json"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["within_3_sigma"] is True


def test_rewrite_subcommand(tmp_path):
    src = DATA / "e1_circuit.json"
    out_path = tmp_path / "rewritten.json"
    code, out = cli.run(["rewrite", "--circuit", str(src), "--out",
                         str(out_path), "--json", "--seed", "3"])
    assert code == 0
    res = json.loads(out)["result"]
    assert out_path.exists()
    from rankpit import circuit as ckt
    rewritten = ckt.parse_file(str(out_path))
    original = ckt.parse_file(str(src))
    a = [original.domain.parse(v) for v in res["a"]]
    assert ckt.expand(rewritten) == ckt.expand(original).translate(a)


def test_rewrite_to_an_unwritable_path_is_a_structured_error(tmp_path):
    out_path = str(tmp_path / "no_such_dir" / "rewritten.json")
    code, out = cli.run(["rewrite", "--circuit", str(DATA / "e1_circuit.json"),
                         "--out", out_path, "--json"])
    payload = json.loads(out)
    assert (code, payload["error"], payload["file"]) == (2, "UnwritableOutput", out_path)
    assert payload["reason"] and "traceback" not in payload


def test_bench_separation():
    code, out = cli.run(["bench", "separation", "--n", "2", "--q", "3",
                         "--e", "1", "--r", "1", "--m", "1", "--json"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["phi"] <= res["circuit_bound"]


def test_bench_separation_report_is_pinned():
    """NW(2,7,2) at r = m = 2: every second derivative is the same constant,
    so phi is the C(14, 2) = 91 shift sets; the report's bytes are fixed."""
    code, out = cli.run(["bench", "separation", "--n", "2", "--q", "7", "--e", "2",
                         "--r", "2", "--m", "2", "--json"])
    expected = {"command": "bench", "config": {
        "caps": {"annihilator_degree": None, "expansion_terms": 10000000,
                 "hitting_set_points": 2000000, "matrix_cells": 10000000},
        "output": "json", "seed": 0, "timings": False}, "result": {
        "bound_inputs": {"T": 1, "k": 1, "m": 2, "r": 2, "s": 1},
        "circuit_bound": 140140, "note": "toy-scale comparison; no asymptotic claim",
        "nw": {"e": 2, "monomials": 49, "n": 2, "nvars": 14, "q": 7},
        "phi": 91, "ratio": "1/1540"}}
    assert (code, out) == (0, json.dumps(expected, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("argv", [["depend"], ["rank", "--mode", "symbolic"]],
                         ids=["depend", "rank-symbolic"])
def test_a_1200_variable_monomial_is_answered_in_under_a_second(tmp_path, argv):
    """x1*...*x1200 has 1,200 partials; a Jacobian row costs time linear in
    the monomial's support (the quadratic loop took seconds here)."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"field": {"type": "rational"}, "nvars": 1200, "polys": [
        [{"coeff": "1", "mono": {str(v): 1 for v in range(1, 1201)}}]]}))
    start = time.perf_counter()
    code, out = cli.run(argv + ["--poly-file", str(path), "--json"])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["result"]


def test_matrix_cap_honored(e1_file):
    code, out = cli.run(["measure", "--poly-file", e1_file, "--index", "2",
                         "--r", "1", "--m", "1", "--json",
                         "--cap-matrix", "1"])
    assert code == 2
    assert json.loads(out)["error"] == "MatrixTooLarge"


WIDE_MEASURE = ["measure", "--poly-file", "WIDE", "--r", "1", "--m", "1"]


@pytest.mark.parametrize("argv, cells", [
    (WIDE_MEASURE, 10**24),
    (WIDE_MEASURE + ["--sweep"], 10**8),  # the sweep stops at r = m = 0
    (["bench", "separation", "--n", "1", "--q", "10007", "--e", "1", "--r", "3",
      "--m", "0"], 10007 * comb(10007, 3)),
], ids=["single", "sweep", "bench"])
def test_matrix_cap_refuses_wide_inputs_before_listing_derivatives(tmp_path, argv, cells):
    """N = 10^8 (a file's) would take one tuple per variable to list the
    derivative monomials, and C(10007, 3) tuples for NW at q = 10007; the
    cells N * C(N, m) * C(N, r) are checked first."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"field": {"type": "rational"}, "nvars": 10**8, "polys": [
        [{"coeff": "1", "mono": {"1": 1, "2": 1}}]]}))
    code, out = cli.run([str(path) if a == "WIDE" else a for a in argv] + ["--json"])
    error = json.loads(out)
    assert (code, error["error"], error["cells"]) == (2, "MatrixTooLarge", cells)


@pytest.mark.parametrize("command", [["nw"], ["bench", "separation", "--r", "1", "--m", "1"]],
                         ids=["nw", "bench"])
def test_expansion_cap_refuses_wide_designs_before_building_them(command):
    """NW at q = 10007, e = 3 has 10007^3 terms: refused by its count."""
    code, out = cli.run(command + ["--n", "3", "--q", "10007", "--e", "3", "--json"])
    error = json.loads(out)
    assert (code, error["error"], error["terms"]) == (2, "ExpansionTooLarge", 10007**3)


def test_annihilator_cap_honored(tmp_path):
    obj = {"field": {"type": "rational"}, "nvars": 2, "polys": [
        [{"coeff": "1", "mono": {"1": 1}}],
        [{"coeff": "1", "mono": {"2": 1}}],
    ]}
    path = tmp_path / "indep.json"
    path.write_text(json.dumps(obj))
    code, out = cli.run(["annihilate", "--poly-file", str(path), "--json",
                         "--cap-annihilator", "4"])
    assert code == 2
    assert json.loads(out)["error"] == "NoAnnihilatorWithinCap"


def _power_sums_file(tmp_path, nvars, count):
    obj = {"field": {"type": "rational"}, "nvars": nvars, "polys": [
        [{"coeff": "1", "mono": {str(i + 1): e}} for i in range(nvars)]
        for e in range(1, count + 1)
    ]}
    path = tmp_path / "power_sums.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_expansion_cap_honored(tmp_path):
    """p1..p4 in 3 variables are dependent (t > nvars), so the search runs
    and meets the term cap."""
    code, out = cli.run(["annihilate", "--poly-file", _power_sums_file(tmp_path, 3, 4),
                         "--json", "--cap-expansion", "20"])
    assert code == 2
    assert json.loads(out)["error"] == "ExpansionTooLarge"


@pytest.mark.parametrize("command", [["rank", "--mode", "symbolic"], ["annihilate"],
                                     ["depend"], ["pit", "--certify-rank"]],
                         ids=lambda argv: argv[0])
def test_expansion_cap_honored_by_every_annihilator_search(tmp_path, command):
    """(x1+x2, (x1+x2)^2) is dependent in 2 variables, so each command runs
    an annihilator search; under --cap-expansion 1 its columns exceed the cap.
    pit reads the pair as the inner polynomials of one product gate."""
    s = [{"coeff": "1", "mono": {"1": 1}}, {"coeff": "1", "mono": {"2": 1}}]
    square = [{"coeff": "1", "mono": {"1": 2}}, {"coeff": "2", "mono": {"1": 1, "2": 1}},
              {"coeff": "1", "mono": {"2": 2}}]
    path = tmp_path / "pair.json"
    field = {"type": "rational"}
    if command[0] == "pit":
        path.write_text(json.dumps({
            "field": field, "nvars": 2, "declared": {"d": 2, "k": 2, "delta": 3},
            "gates": [{"outer": "product", "inner": [s, square]}]}))
        source = ["--circuit", str(path)]
    else:
        path.write_text(json.dumps({"field": field, "nvars": 2, "polys": [s, square]}))
        source = ["--poly-file", str(path)]
    code, out = cli.run(command + source + ["--json", "--cap-expansion", "1"])
    error = json.loads(out)
    assert (code, error["error"], error["cap"]) == (2, "ExpansionTooLarge", 1)


def test_independent_tuple_is_certified_before_the_term_cap(tmp_path):
    """p1, p2, p3 in 6 variables are independent: one Jacobian evaluation
    answers before any column meets the term cap."""
    code, out = cli.run(["annihilate", "--poly-file", _power_sums_file(tmp_path, 6, 3),
                         "--json", "--cap-expansion", "20"])
    assert code == 2
    error = json.loads(out)
    assert (error["error"], error["cap"]) == ("NoAnnihilatorWithinCap", 27)


_CONFIG_TEXT = ('  config: {"caps": {"annihilator_degree": null, "expansion_terms": 10000000, '
                '"hitting_set_points": 2000000, "matrix_cells": 10000000}, "output": "text", '
                '"seed": SEED, "timings": false}\n')


@pytest.mark.parametrize("argv, code, text", [
    (["rank", "--poly-file", "E1", "--seed", "1"], 0,
     "[rank]\n"
     "  rank: 2\n"
     "  basis: [1, 2]\n"
     "  method: jacobian-randomized\n"
     '  evaluation_points: [["3141346437", "578251824"], ["8749836508", '
     '"12803971485"], ["12603438525", "3877795129"]]\n'
     "  security_bits: 30\n"
     "  error_bound: 1/9903520314283042199192993792\n"
     "  seed: 1\n" + _CONFIG_TEXT.replace("SEED", "1")),
    (["pit", "--circuit", str(DATA / "e1_circuit.json"), "--seed", "0"], 1,
     "[pit]\n"
     "  verdict: nonzero\n"
     '  witness: ["1", "1"]\n'
     "  ell: 1567\n"
     "  ell_used: 2\n"
     "  clamped: True\n"
     "  hitting_set_size: 36\n"
     "  mode: hitting-set\n"
     "  rank_certified: False\n"
     "  oracle: None\n"
     "  expansion_nonzero: None\n"
     "  consistent: None\n"
     "  timings: None\n"
     "  seed: 0\n" + _CONFIG_TEXT.replace("SEED", "0")),
    (["nw", "--n", "2", "--q", "3", "--e", "1", "--gamma", "2"], 0,
     "x1*x7 + x1*x8 + x2*x7 + x2*x8 + x3*x9 + x3*x10 + x4*x9 + x4*x10"
     " + x5*x11 + x5*x12 + x6*x11 + x6*x12\n"),
    (["nw", "--n", "2", "--q", "2", "--e", "1", "--gamma", "3", "--p", "1/2",
      "--trials", "300", "--seed", "4"], 0,
     "[nw]\n"
     "  n: 2\n"
     "  q: 2\n"
     "  e: 1\n"
     "  gamma: 3\n"
     "  p: 1/2\n"
     "  trials: 300\n"
     "  slots: 4\n"
     "  dead_slot_fraction: 161/1200\n"
     "  expected_fraction: 1/8\n"
     "  sigma: 0.009547032697824667\n"
     "  within_3_sigma: True\n"
     "  restrictions_with_dead_slot: 130\n"
     "  seed: 4\n" + _CONFIG_TEXT.replace("SEED", "4")),
    (["nw", "--n", "20", "--q", "23", "--e", "0", "--gamma", "3"], 0, "0\n"),
], ids=["rank", "pit", "nw-gamma", "nw-experiment", "nw-e0"])
def test_text_output_is_pinned(e1_file, argv, code, text):
    """Text is every subcommand's default output; nw --gamma without --p
    prints the hard polynomial, which is 0 for e = 0 whatever gamma is."""
    assert cli.run([e1_file if a == "E1" else a for a in argv]) == (code, text)


def test_nw_prime_field_flag():
    code, out = cli.run(["nw", "--n", "2", "--q", "3", "--e", "1",
                         "--field", "prime:7"])
    assert code == 0
    assert out.strip() == "x1*x4 + x2*x5 + x3*x6"


def test_rewrite_report_embeds_circuit_without_out(tmp_path):
    src = DATA / "e1_circuit.json"
    code, out = cli.run(["rewrite", "--circuit", str(src), "--json",
                         "--seed", "3"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["out"] is None
    assert res["circuit"]["nvars"] == 2
    assert len(res["circuit"]["gates"]) == 1


def test_fraction_coefficient_over_prime_field(tmp_path):
    polys = {"field": {"type": "prime", "p": "7"}, "nvars": 1,
             "polys": [[{"coeff": "1/3", "mono": {"1": 1}}]]}
    path = tmp_path / "f7.json"
    path.write_text(json.dumps(polys))
    code, out = cli.run(["rank", "--poly-file", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["result"]["rank"] == 1
    polys["polys"][0][0]["coeff"] = "1/7"
    path.write_text(json.dumps(polys))
    code, out = cli.run(["rank", "--poly-file", str(path), "--json"])
    payload = json.loads(out)
    assert (code, payload["error"], payload["path"]) == (2, "CircuitSyntaxError", "$.polys[0]")


def test_unreadable_and_malformed_inputs_exit_2(tmp_path):
    # exit 1 is the "nonzero" verdict, so no bad input may ever produce it
    no_polys = tmp_path / "no_polys.json"
    no_polys.write_text(json.dumps({"field": {"type": "rational"}, "nvars": 1}))
    not_json = tmp_path / "not_json.json"
    not_json.write_text("field: rational\n")
    missing = str(tmp_path / "nonexistent.json")
    probes = [
        (["pit", "--circuit", missing], "UnreadableInput"),
        (["rank", "--poly-file", str(no_polys)], "CircuitSyntaxError"),
        (["rank", "--poly-file", str(not_json)], "CircuitSyntaxError"),
        (["rank", "--poly-file", missing], "UnreadableInput"),
    ]
    for argv, error in probes:
        assert cli.main(argv + ["--json"]) == 2
        code, out = cli.run(argv + ["--json"])
        payload = json.loads(out)
        assert (code, payload["error"]) == (2, error)
    assert payload["file"] == missing


@pytest.mark.parametrize("coeff", [0.1, True], ids=["float", "bool"])
def test_json_number_coefficients_exit_2(tmp_path, coeff):
    """Over F_7, int(0.1) would read 0 and True would read 1: a coefficient
    must be a string, in a poly file and in a DAG constant."""
    polys = {"field": {"type": "prime", "p": 7}, "nvars": 1,
             "polys": [[{"coeff": coeff, "mono": {"1": 1}}]]}
    path = tmp_path / "polys.json"
    path.write_text(json.dumps(polys))
    code, out = cli.run(["rank", "--poly-file", str(path), "--json"])
    payload = json.loads(out)
    assert (code, payload["error"], payload["path"]) == (2, "CircuitSyntaxError", "$.polys[0]")
    circuit = {"field": {"type": "prime", "p": 7}, "nvars": 1,
               "declared": {"d": 1, "k": 1, "delta": 1},
               "gates": [{"outer": {"dag": {"arity": 1, "root": 2, "nodes": [
                   {"op": "input", "index": 1}, {"op": "const", "value": coeff},
                   {"op": "mul", "args": [0, 1]}]}},
                          "inner": [[{"coeff": "1", "mono": {"1": 1}}]]}]}
    path.write_text(json.dumps(circuit))
    code, out = cli.run(["pit", "--circuit", str(path), "--json"])
    payload = json.loads(out)
    assert (code, payload["error"]) == (2, "CircuitSyntaxError")
    assert payload["path"] == "$.gates[0].outer.nodes[1]"


@pytest.mark.parametrize("command", [["rank"], ["annihilate"], ["depend"],
                                     ["measure", "--r", "1", "--m", "1"]],
                         ids=["rank", "annihilate", "depend", "measure"])
@pytest.mark.parametrize("nvars, polys, error", [
    (-1, [], "CircuitSyntaxError"),
    (2.7, E1_POLYS["polys"], "CircuitSyntaxError"),
    (2, [], "InvalidParams"),
], ids=["negative-nvars", "fractional-nvars", "empty-tuple"])
def test_bad_nvars_and_empty_tuple_exit_2(tmp_path, command, nvars, polys, error):
    path = tmp_path / "polys.json"
    path.write_text(json.dumps({"field": {"type": "rational"}, "nvars": nvars,
                                "polys": polys}))
    code, out = cli.run(command + ["--poly-file", str(path), "--json"])
    payload = json.loads(out)
    assert (code, payload["error"]) == (2, error)
    if error == "CircuitSyntaxError":
        assert payload["path"] == "$.nvars"


@pytest.mark.parametrize("edit, where", [
    (lambda obj: obj["polys"][0][0]["mono"].update({"1": True}), "$.polys[0]"),
    (lambda obj: obj.update(nvars=True), "$.nvars"),
], ids=["boolean-exponent", "boolean-nvars"])
def test_json_booleans_are_not_integers(tmp_path, edit, where):
    """Read as the integer 1, either `true` made a valid tuple (x1, x1^2) with
    the annihilator z1^2 - z2; a JSON boolean is no integer."""
    obj = {"field": {"type": "rational"}, "nvars": 1,
           "polys": [[{"coeff": "1", "mono": {"1": 1}}], [{"coeff": "1", "mono": {"1": 2}}]]}
    edit(obj)
    path = tmp_path / "polys.json"
    path.write_text(json.dumps(obj))
    code, out = cli.run(["annihilate", "--poly-file", str(path), "--json"])
    payload = json.loads(out)
    assert (code, payload["error"], payload["path"]) == (2, "CircuitSyntaxError", where)


def test_malformed_poly_file_reports_json_path(tmp_path):
    path = tmp_path / "bad_term.json"
    for polys, where in [
        ([[{"coeff": "1"}], [{"mono": {}}]], "$.polys[1]"),  # KeyError
        ([[{"coeff": "1", "mono": [1]}]], "$.polys[0]"),  # AttributeError
        ([[{"coeff": "1/0"}]], "$.polys[0]"),  # ZeroDivisionError over Q
        ([[{"coeff": "1", "mono": {"5": 1}}]], "$.polys[0]"),  # InvalidParams
        ([[{"coeff": "1", "mono": {"1": 1, "01": 2}}]], "$.polys[0]"),  # key not "1"
    ]:
        path.write_text(json.dumps({"field": {"type": "rational"}, "nvars": 1,
                                    "polys": polys}))
        for command in ("annihilate", "rank"):
            code, out = cli.run([command, "--poly-file", str(path), "--json"])
            payload = json.loads(out)
            assert (code, payload["error"], payload["path"]) == (
                2, "CircuitSyntaxError", where)


def test_internal_error_is_exit_2_not_a_verdict(zero_circuit_file, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("bug")
    monkeypatch.setattr(cli.pit, "pit_test", broken)
    code, out = cli.run(["pit", "--circuit", zero_circuit_file, "--json"])
    assert code == 2
    payload = json.loads(out)
    assert (payload["error"], payload["detail"]) == ("InternalError", "KeyError: 'bug'")
    assert "in broken" in payload["traceback"]


def test_error_payload_carries_attributes(zero_circuit_file, tmp_path):
    code, out = cli.run(["pit", "--circuit", zero_circuit_file, "--json",
                         "--cap-points", "2"])
    payload = json.loads(out)
    assert (code, payload["error"]) == (2, "SetTooLarge")
    assert (payload["size"], payload["cap"]) == (9, 2)
    indep = tmp_path / "indep.json"
    indep.write_text(json.dumps({"field": {"type": "rational"}, "nvars": 2, "polys": [
        [{"coeff": "1", "mono": {"1": 1}}], [{"coeff": "1", "mono": {"2": 1}}]]}))
    code, out = cli.run(["annihilate", "--poly-file", str(indep), "--json",
                         "--cap-annihilator", "4"])
    assert json.loads(out)["cap"] == 4
    bad = dict(ZERO_CIRCUIT, declared={"d": 1, "k": 2, "delta": 2})
    path = tmp_path / "bad_bound.json"
    path.write_text(json.dumps(bad))
    code, out = cli.run(["pit", "--circuit", str(path), "--json"])
    payload = json.loads(out)
    assert (code, payload["error"]) == (2, "BoundViolation")
    # gate 1's inner x1^2 - x2^2 breaks d = 1
    assert [payload[k] for k in ("gate", "bound", "declared", "actual")] == [1, "d", 1, 2]


@pytest.mark.parametrize("command", [["pit", "--certify-rank"], ["rewrite"]],
                         ids=lambda argv: argv[0])
def test_certified_rank_is_checked_against_the_gates_own_k(tmp_path, command):
    """Gate 0 declares k = 1 in the file, the circuit k = 2; its inner
    polynomials x1 + x2 and x1*x2 have rank 2, which breaks the gate's k."""
    s = [{"coeff": "1", "mono": {"1": 1}}, {"coeff": "1", "mono": {"2": 1}}]
    e = [{"coeff": "1", "mono": {"1": 1, "2": 1}}]
    path = tmp_path / "gate_k.json"
    path.write_text(json.dumps({
        "field": {"type": "rational"}, "nvars": 2, "declared": {"d": 2, "k": 2, "delta": 3},
        "gates": [{"outer": "product", "inner": [s, e], "k": 1}]}))
    code, out = cli.run(command + ["--circuit", str(path), "--json"])
    payload = json.loads(out)
    assert (code, payload["error"]) == (2, "BoundViolation")
    assert [payload[k] for k in ("gate", "bound", "declared", "actual")] == [0, "k", 1, 2]


@pytest.mark.parametrize("extra", [
    ["--r", "-1", "--m", "1"],                  # combinations() raised ValueError
    ["--index", "5", "--r", "1", "--m", "1"],   # IndexError
    ["--index", "-1", "--r", "1", "--m", "1"],  # silently measured the last poly
    ["--r", "-1", "--m", "1", "--sweep"],       # printed only the CSV header
    ["--r", "1", "--m", "-1", "--sweep"],
], ids=["negative-r", "index-past-end", "negative-index", "sweep-negative-r",
        "sweep-negative-m"])
def test_measure_rejects_out_of_range_arguments(tmp_path, extra):
    path = tmp_path / "one.json"
    path.write_text(json.dumps(dict(E1_POLYS, polys=E1_POLYS["polys"][:1])))
    code, out = cli.run(["measure", "--poly-file", str(path), "--json"] + extra)
    assert (code, json.loads(out)["error"]) == (2, "InvalidParams")


def _terms(*pairs):
    """JSON terms from (coeff, {variable: exponent}) pairs."""
    return [{"coeff": str(c), "mono": {str(v): e for v, e in mono.items()}}
            for c, mono in pairs]


def _dag(negate):
    """q1 * q2 + 3 + q1, times -1 when `negate`: a planted twin's outer."""
    nodes = [{"op": "input", "index": 1}, {"op": "input", "index": 2},
             {"op": "mul", "args": [0, 1]}, {"op": "const", "value": "3"},
             {"op": "add", "args": [2, 3, 0]}]
    if negate:
        nodes += [{"op": "const", "value": "-1"}, {"op": "mul", "args": [4, 5]}]
    return {"dag": {"arity": 2, "nodes": nodes, "root": len(nodes) - 1}}


_FP = {"type": "prime", "p": 1000003}
_X1_PLUS_X2 = _terms((1, {1: 1}), (1, {2: 1}))
_X3X4_MINUS_1 = _terms((1, {3: 1, 4: 1}), (-1, {}))
# corpus-shaped: a DAG gate and a product gate, each with its negated twin;
# the 256-point hitting set spans support sizes 0 to 4
PLANTED_ZERO = {"field": _FP, "nvars": 4, "declared": {"d": 2, "k": 2, "delta": 3},
                "gates": [
    {"outer": _dag(False), "inner": [_X1_PLUS_X2, _X3X4_MINUS_1]},
    {"outer": "product", "inner": [_terms((2, {2: 1}), (-1, {4: 1})), _X1_PLUS_X2]},
    {"outer": _dag(True), "inner": [_X1_PLUS_X2, _X3X4_MINUS_1]},
    {"outer": "product", "inner": [_terms((-2, {2: 1}), (1, {4: 1})), _X1_PLUS_X2]}]}
# (x1 + x2) * x3 * (x2*x4 - x1^2) vanishes at every point of support <= 1 and
# on the support {x1, x2}: its first witness is point 33, of support 2
LATER_WITNESS = {"field": _FP, "nvars": 4, "declared": {"d": 2, "k": 2, "delta": 4},
                 "gates": [{"outer": "product", "inner": [
                     _X1_PLUS_X2, _terms((1, {3: 1})),
                     _terms((1, {2: 1, 4: 1}), (-1, {1: 2}))]}]}
_PIT_JSON = (
    '{\n  "command": "pit",\n  "config": {\n    "caps": {\n'
    '      "annihilator_degree": null,\n      "expansion_terms": 10000000,\n'
    '      "hitting_set_points": 2000000,\n      "matrix_cells": 10000000\n'
    '    },\n    "output": "json",\n    "seed": 0,\n    "timings": false\n  },\n'
    '  "result": {\n    "clamped": true,\n    "consistent": null,\n'
    '    "ell": ELL,\n    "ell_used": 4,\n    "expansion_nonzero": null,\n'
    '    "hitting_set_size": SIZE,\n    "mode": "hitting-set",\n    "oracle": null,\n'
    '    "rank_certified": false,\n    "seed": 0,\n    "timings": null,\n'
    '    "verdict": VERDICT\n  }\n}\n')


@pytest.mark.parametrize("circuit,code,result", [
    (PLANTED_ZERO, 0, ("1613", "256", '"zero",\n    "witness": null')),
    (LATER_WITNESS, 1, ("1537", "625", '"nonzero",\n    "witness": [\n      "1",\n'
                                       '      "0",\n      "1",\n      "0"\n    ]')),
], ids=["planted-zero", "witness-past-support-1"])
def test_pit_json_bytes_are_pinned(tmp_path, circuit, code, result):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(circuit))
    ell, size, verdict = result
    text = (_PIT_JSON.replace("ELL", ell).replace("SIZE", size)
            .replace("VERDICT", verdict))
    assert cli.run(["pit", "--circuit", str(path), "--json"]) == (code, text)


def test_pit_timings_only_under_the_flag(zero_circuit_file):
    argv = ["pit", "--circuit", zero_circuit_file, "--json"]
    plain = [cli.run(argv)[1] for _ in range(2)]
    assert plain[0] == plain[1]
    assert json.loads(plain[0])["result"]["timings"] is None
    code, out = cli.run(argv + ["--timings"])
    report = json.loads(out)
    assert code == 0
    assert float(report["result"]["timings"]) >= 0
    report["result"]["timings"] = None
    report["config"]["timings"] = False
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == plain[0]


def test_measure_timings_only_under_the_flag(e1_file):
    argv = ["measure", "--poly-file", e1_file, "--index", "2", "--r", "1",
            "--m", "1", "--json"]
    assert json.loads(cli.run(argv)[1])["result"]["timing_ms"] is None
    code, out = cli.run(argv + ["--timings"])
    assert code == 0
    assert float(json.loads(out)["result"]["timing_ms"]) >= 0


NW_ARGS = ["--n", "2", "--q", "2", "--e", "1"]


@pytest.mark.parametrize("argv", [
    ["nw", *NW_ARGS, "--field", "prime:x"],
    ["bench", "separation", *NW_ARGS, "--r", "1", "--m", "1", "--field", "prime:x"],
    ["nw", *NW_ARGS, "--p", "abc"],
    ["nw", *NW_ARGS, "--p", "1/2", "--trials", "0"],
    ["nw", *NW_ARGS, "--gamma", "0"],
    ["nw", *NW_ARGS, "--gamma", "0", "--p", "1/2"],
    ["nw", *NW_ARGS, "--gamma", "-2", "--p", "1/2"],
], ids=["nw-field-modulus", "bench-field-modulus", "nw-p-not-rational",
        "nw-zero-trials", "nw-zero-gamma", "nw-zero-gamma-experiment",
        "nw-negative-gamma-experiment"])
def test_bad_nw_and_bench_inputs_exit_2(argv):
    code, out = cli.run(argv + ["--json"])
    assert (code, json.loads(out)["error"]) == (2, "InvalidParams")


@pytest.mark.parametrize("mode", ["hitting-set", "oracle", "both"])
@pytest.mark.parametrize("rounds", ["0", "-1"])
def test_pit_rejects_fewer_than_one_round(zero_circuit_file, mode, rounds):
    """The oracle ran one round for these and reported `rounds: 0` or -1;
    hitting-set mode accepted the value unchecked."""
    code, out = cli.run(["pit", "--circuit", zero_circuit_file, "--json",
                         "--mode", mode, "--rounds", rounds])
    assert (code, json.loads(out)["error"]) == (2, "InvalidParams")


@pytest.mark.parametrize("retries", ["0", "-3"])
def test_depend_rejects_fewer_than_one_retry(e1_file, retries):
    """These exited with NoGoodTranslation, blaming the input for a
    parameter error."""
    code, out = cli.run(["depend", "--poly-file", e1_file, "--json",
                         "--max-retries", retries])
    assert (code, json.loads(out)["error"]) == (2, "InvalidParams")


# the integer flags that `cli.run` checks from its table of least values
_CHECKED_FLAGS = {"--cap-expansion", "--cap-matrix", "--cap-points", "--cap-annihilator",
                  "--rounds", "--max-retries", "--trials"}


@pytest.mark.parametrize("argv", [
    ["nw", *NW_ARGS, "--field", "bogus"],
    ["bench", "separation", *NW_ARGS, "--r", "1", "--m", "1", "--field", "bogus"],
    ["annihilate", "--poly-file", "E1", "--cap-expansion", "-1"],
    ["measure", "--poly-file", "E1", "--r", "1", "--m", "1", "--cap-matrix", "-1"],
    ["pit", "--circuit", "ZERO", "--cap-points", "-1"],
    ["rank", "--poly-file", "E1", "--cap-annihilator", "0"],
    ["annihilate", "--poly-file", "E1", "--cap-annihilator", "-2"],
    ["depend", "--poly-file", "E1", "--max-retries", "0"],
    ["nw", *NW_ARGS, "--p", "1/2", "--trials", "0"],
    ["nw", *NW_ARGS, "--trials", "0"],
], ids=["nw-field", "bench-field", "negative-cap-expansion",
        "negative-cap-matrix", "negative-cap-points", "rank-zero-cap-annihilator",
        "negative-cap-annihilator", "depend-zero-max-retries", "nw-zero-trials",
        "nw-zero-trials-without-experiment"])
def test_bad_flag_values_are_invalid_params(e1_file, zero_circuit_file, argv):
    argv = [{"E1": e1_file, "ZERO": zero_circuit_file}.get(a, a) for a in argv]
    code, out = cli.run(argv + ["--json"])
    error = json.loads(out)
    assert (code, error["error"]) == (2, "InvalidParams")
    # every flag of `cli.run`'s table names itself in the detail
    flag = next((a for a in argv if a in _CHECKED_FLAGS), None)
    if flag:
        assert flag in error["detail"]
