"""CLI: dispatch, exit codes, report shape, determinism, caps."""

import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rankpit import cli
from rankpit.domains import PrimeField, Rationals

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
     [["7295726851", "4861069063"], ["217265690", "7209370884"],
      ["3704651610", "2332140455"]],
     "51609517852490439776383554733416957/"
     "511115773510091276288000000000000000000000000000000000000000000"),
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
        "caps": {"expansion_terms": 10000000},
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


@pytest.mark.parametrize("polys, rank", [
    ([{str(v): 1 for v in range(1, 1201)}], 1),
    ([{"1": 10 ** 6}, {"2": 1}], 2),
], ids=["x1-to-x1200", "x1-to-the-million"])
def test_randomized_rank_over_q_reads_wide_and_deep_monomials(tmp_path, polys, rank):
    """Each trial reads the Q Jacobian modulo a prime, so neither a monomial
    of 1,200 variables nor an exponent of 10^6 builds huge integers."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"field": {"type": "rational"}, "nvars": max(map(int, polys[-1])),
                                "polys": [[{"coeff": "1", "mono": m}] for m in polys]}))
    code, out = cli.run(["rank", "--poly-file", str(path), "--json"])
    assert (code, json.loads(out)["result"]["rank"]) == (0, rank)


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
    # start-up cost: no command loads numpy, not even a scan past the
    # origin, and mpmath loads only for interval arithmetic
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
    assert out["seen"] == {"import": [], "light": [], "scan": [],
                           "interval": ["mpmath"]}


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


def test_rewrite_over_a_prime_field(tmp_path, capsys):
    """E1 read in F_1000003 rewrites, its identity holds at the reported a,
    and the written circuit certifies its ranks; in F_7 the translation grid
    does not fit, and the sampler's refusal is the exit."""
    from rankpit import circuit as ckt
    doc = json.loads((DATA / "e1_circuit.json").read_text())
    src, out_path = tmp_path / "e1_fp.json", tmp_path / "rewritten.json"
    doc["field"] = {"type": "prime", "p": "1000003"}
    src.write_text(json.dumps(doc))
    code, out = cli.run(["rewrite", "--circuit", str(src), "--out",
                         str(out_path), "--json"])
    assert code == 0
    original, rewritten = ckt.parse_file(str(src)), ckt.parse_file(str(out_path))
    assert rewritten.domain.characteristic == 1_000_003
    a = [original.domain.parse(v) for v in json.loads(out)["result"]["a"]]
    assert ckt.expand(rewritten) == ckt.expand(original).translate(a)
    code, text = cli.run(["pit", "--circuit", str(out_path), "--certify-rank", "--json"])
    assert code == 1 and json.loads(text)["result"]["rank_certified"] is True
    doc["field"] = {"type": "prime", "p": "7"}
    src.write_text(json.dumps(doc))
    assert cli.main(["rewrite", "--circuit", str(src), "--json"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "FieldTooSmall"


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
        "caps": {"expansion_terms": 10000000, "matrix_cells": 10000000},
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
    """p1..p4 in 3 variables are dependent (t > nvars), so the search runs.
    Its columns stop at the annihilator's weighted degree 4, where p1^4 has
    15 terms, so it meets a term cap of 10 (under 15 it answers)."""
    code, out = cli.run(["annihilate", "--poly-file", _power_sums_file(tmp_path, 3, 4),
                         "--json", "--cap-expansion", "10"])
    assert code == 2
    assert json.loads(out)["error"] == "ExpansionTooLarge"


# (x1*x2 + 1, (x1*x2 + 1)^2) over Q
PAIR_POLYS = [[{"coeff": "1", "mono": {"1": 1, "2": 1}}, {"coeff": "1", "mono": {}}],
              [{"coeff": "1", "mono": {"1": 2, "2": 2}}, {"coeff": "2", "mono": {"1": 1, "2": 1}},
               {"coeff": "1", "mono": {}}]]


@pytest.mark.parametrize("command", [["rank", "--mode", "symbolic"], ["annihilate"],
                                     ["depend"], ["pit", "--certify-rank"], ["rewrite"]],
                         ids=lambda argv: argv[0])
def test_expansion_cap_honored_by_every_annihilator_search(tmp_path, command):
    """(x1*x2 + 1, (x1*x2 + 1)^2) has rank 1 below its 2 essential
    coordinates, so each command runs an annihilator search; under
    --cap-expansion 1 its columns exceed the cap.  pit and rewrite read the
    pair as the inner polynomials of one product gate."""
    path = tmp_path / "pair.json"
    field = {"type": "rational"}
    if command[0] in ("pit", "rewrite"):
        path.write_text(json.dumps({
            "field": field, "nvars": 2, "declared": {"d": 4, "k": 2, "delta": 6},
            "gates": [{"outer": "product", "inner": PAIR_POLYS}]}))
        source = ["--circuit", str(path)]
    else:
        path.write_text(json.dumps({"field": field, "nvars": 2, "polys": PAIR_POLYS}))
        source = ["--poly-file", str(path)]
    code, out = cli.run(command + source + ["--json", "--cap-expansion", "1"])
    error = json.loads(out)
    assert (code, error["error"], error["cap"]) == (2, "ExpansionTooLarge", 1)


def test_depend_translates_under_the_term_cap(tmp_path):
    """(x1, x1^300 + x2, x2) has rank 2 in 2 variables, so no annihilator is
    searched; the translate of x1^300 + x2 has 302 terms and meets the cap."""
    polys = [[{"coeff": "1", "mono": {"1": 1}}],
             [{"coeff": "1", "mono": {"1": 300}}, {"coeff": "1", "mono": {"2": 1}}],
             [{"coeff": "1", "mono": {"2": 1}}]]
    path = tmp_path / "power.json"
    path.write_text(json.dumps({"field": {"type": "rational"}, "nvars": 2, "polys": polys}))
    code, out = cli.run(["depend", "--poly-file", str(path), "--json", "--cap-expansion", "50"])
    error = json.loads(out)
    assert (code, error["error"], error["cap"]) == (2, "ExpansionTooLarge", 50)
    assert error["terms"] > 50


def test_independent_tuple_is_certified_before_the_term_cap(tmp_path):
    """p1, p2, p3 in 6 variables are independent: one Jacobian evaluation
    answers before any column meets the term cap."""
    code, out = cli.run(["annihilate", "--poly-file", _power_sums_file(tmp_path, 6, 3),
                         "--json", "--cap-expansion", "20"])
    assert code == 2
    error = json.loads(out)
    assert (error["error"], error["cap"]) == ("NoAnnihilatorWithinCap", 27)


_CONFIG_TEXT = ('  config: {"caps": {"expansion_terms": 10000000CAPS}, "output": "text", '
                '"seed": SEED, "timings": false}\n')


@pytest.mark.parametrize("argv, code, text", [
    (["rank", "--poly-file", "E1", "--seed", "1"], 0,
     "[rank]\n"
     "  rank: 2\n"
     "  basis: [1, 2]\n"
     "  method: jacobian-randomized\n"
     '  evaluation_points: [["7295726851", "4861069063"], ["217265690", '
     '"7209370884"], ["3704651610", "2332140455"]]\n'
     "  security_bits: 30\n"
     "  error_bound: 51609517852490439776383554733416957/"
     "511115773510091276288000000000000000000000000000000000000000000\n"
     "  seed: 1\n" + _CONFIG_TEXT.replace("SEED", "1").replace("CAPS", "")),
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
     "  seed: 0\n" + _CONFIG_TEXT.replace("SEED", "0")
     .replace("CAPS", ', "hitting_set_points": 2000000')),
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
     "  seed: 4\n" + _CONFIG_TEXT.replace("SEED", "4").replace("CAPS", "")),
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


def test_exact_rationals_read_as_fraction_reads_them():
    for text in ("1e3", "2.5e-3", "1/3", "-7"):
        value = Fraction(text)
        assert Rationals().parse(text) == value
        assert PrimeField(1000003).parse(text) == PrimeField(1000003).coerce(value)


@pytest.mark.parametrize("field", ["rational", "prime:1000003"], ids=["Q", "F_1000003"])
@pytest.mark.parametrize("coeff", ["1e999999999", "1e-999999999", "5e4300"])
def test_a_huge_exponent_is_refused_before_its_power_is_built(tmp_path, field, coeff):
    """Fraction("1e999999999") builds 10^999999999, for hours; a numerator
    or denominator past int()'s digit limit (4300 by default) is refused
    first, in a poly file, in a DAG constant and as nw --p."""
    domain = ({"type": "rational"} if field == "rational"
              else {"type": "prime", "p": "1000003"})
    polys, dag = tmp_path / "polys.json", tmp_path / "dag.json"
    polys.write_text(json.dumps({"field": domain, "nvars": 1,
                                 "polys": [[{"coeff": coeff, "mono": {"1": 1}}]]}))
    dag.write_text(json.dumps({
        "field": domain, "nvars": 1, "declared": {"d": 1, "k": 1, "delta": 1},
        "gates": [{"outer": {"dag": {"arity": 1, "root": 2, "nodes": [
            {"op": "input", "index": 1}, {"op": "const", "value": coeff},
            {"op": "mul", "args": [0, 1]}]}}, "inner": [[{"coeff": "1", "mono": {"1": 1}}]]}]}))
    for argv, path in [(["rank", "--poly-file", str(polys)], "$.polys[0]"),
                       (["pit", "--circuit", str(dag)], "$.gates[0].outer.nodes[1]"),
                       (["nw", *NW_ARGS, "--field", field, "--p", coeff], None)]:
        start = time.perf_counter()
        code, out = cli.run(argv + ["--json"])
        assert time.perf_counter() - start < 0.1
        payload = json.loads(out)
        if path is None:
            assert (code, payload["error"]) == (2, "InvalidParams")
        else:
            assert (code, payload["error"], payload["path"]) == (2, "CircuitSyntaxError", path)
        assert "digits as an exact rational" in payload["detail"]


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


@pytest.mark.parametrize("edit, where", [
    (lambda obj: obj["gates"][0].update(k=-3), "$.gates[0]"),
    (lambda obj: obj["declared"].update(k=-3), "$.declared"),
], ids=["gate-k", "declared-k"])
def test_negative_bounds_exit_2(tmp_path, edit, where):
    """pit clamps k to at least 1, so a negative k used to reach a verdict."""
    obj = {"field": {"type": "rational"}, "nvars": 2, "declared": {"d": 2, "k": 1, "delta": 2},
           "gates": [{"outer": "product", "inner": [
               [{"coeff": "1", "mono": {"1": 1}}, {"coeff": "1", "mono": {"2": 2}}]]}]}
    edit(obj)
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(obj))
    code, out = cli.run(["pit", "--circuit", str(path), "--json"])
    payload = json.loads(out)
    assert (code, payload["error"], payload["path"]) == (2, "CircuitSyntaxError", where)


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
    '      "expansion_terms": 10000000,\n      "hitting_set_points": 2000000\n'
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
    ["annihilate", "--poly-file", "E1", "--cap-annihilator", "-2"],
    ["depend", "--poly-file", "E1", "--max-retries", "0"],
    ["nw", *NW_ARGS, "--p", "1/2", "--trials", "0"],
    ["nw", *NW_ARGS, "--trials", "0"],
], ids=["nw-field", "bench-field", "negative-cap-expansion",
        "negative-cap-matrix", "negative-cap-points", "negative-cap-annihilator",
        "depend-zero-max-retries", "nw-zero-trials", "nw-zero-trials-without-experiment"])
def test_bad_flag_values_are_invalid_params(e1_file, zero_circuit_file, argv):
    argv = [{"E1": e1_file, "ZERO": zero_circuit_file}.get(a, a) for a in argv]
    code, out = cli.run(argv + ["--json"])
    error = json.loads(out)
    assert (code, error["error"]) == (2, "InvalidParams")
    # every flag of `cli.run`'s table names itself in the detail
    flag = next((a for a in argv if a in _CHECKED_FLAGS), None)
    if flag:
        assert flag in error["detail"]


# each subcommand's run and the caps it applies; rank and depend run on the
# pair, whose degree-2 annihilator search no --cap-annihilator bounds
_CAP_TABLE = {
    "rank": (["--poly-file", "PAIR", "--mode", "symbolic"], {"--cap-expansion"}),
    "annihilate": (["--poly-file", "E1"], {"--cap-expansion", "--cap-annihilator"}),
    "depend": (["--poly-file", "PAIR"], {"--cap-expansion"}),
    "rewrite": (["--circuit", "C1"], {"--cap-expansion"}),
    "measure": (["--poly-file", "E1", "--index", "2", "--r", "1", "--m", "1"], {"--cap-matrix"}),
    "nw": ([*NW_ARGS, "--p", "1/2", "--trials", "20"], {"--cap-expansion"}),
    "pit": (["--circuit", "C1"], {"--cap-expansion", "--cap-points"}),
    "bench": (["separation", *NW_ARGS, "--r", "1", "--m", "1"],
              {"--cap-expansion", "--cap-matrix"}),
}
_CAP_FLAGS = {"--cap-expansion", "--cap-matrix", "--cap-points", "--cap-annihilator"}


@pytest.mark.parametrize("command", sorted(_CAP_TABLE))
def test_each_subcommand_takes_and_echoes_only_the_caps_it_applies(e1_file, tmp_path,
                                                                   capsys, command):
    """The parser registers the table's caps for each subcommand; its report,
    JSON and text, echoes exactly those, and each other cap flag is a usage
    error: 21 (subcommand, cap) pairs in all."""
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"field": {"type": "rational"}, "nvars": 2, "polys": PAIR_POLYS}))
    names = {"E1": e1_file, "PAIR": str(pair), "C1": str(DATA / "e1_circuit.json")}
    rest, caps = _CAP_TABLE[command]
    argv = [command] + [names.get(a, a) for a in rest]
    subparsers = next(a for a in cli.build_parser()._actions if a.choices)
    registered = {a.option_strings[0]: a.dest for a in subparsers.choices[command]._actions
                  if a.option_strings and a.option_strings[0] in _CAP_FLAGS}
    assert set(registered) == caps
    code, out = cli.run(argv + ["--json"])
    assert code in (0, 1) and set(json.loads(out)["config"]["caps"]) == set(registered.values())
    code, out = cli.run(argv)
    config = next(line for line in out.splitlines() if line.startswith("  config: "))
    assert set(json.loads(config[len("  config: "):])["caps"]) == set(registered.values())
    for flag in sorted(_CAP_FLAGS - caps):
        assert cli.main(argv + [flag, "1", "--json"]) == 64
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert sum(len(_CAP_FLAGS - caps) for _, caps in _CAP_TABLE.values()) == 21


# ----------------------------------------------------------------------
# the --json writer: the bytes of json.dumps(_fmt(report), indent=2, sort_keys=True)

def _indented(value) -> str:
    return json.dumps(cli._fmt(value), indent=2, sort_keys=True)


@pytest.mark.parametrize("field", ["rational", "prime:1000003"], ids=["Q", "F_1000003"])
@pytest.mark.parametrize("argv", [
    ["rank", "--poly-file", "E1"],
    ["rank", "--poly-file", "E1", "--mode", "symbolic"],
    ["annihilate", "--poly-file", "E1"],
    ["depend", "--poly-file", "E1"],
    ["measure", "--poly-file", "E1", "--index", "2", "--r", "1", "--m", "1", "--timings"],
    ["rewrite", "--circuit", "C1"],
    ["pit", "--circuit", "C1", "--mode", "both"],
    ["pit", "--circuit", "C1", "--certify-rank"],
    ["nw", *NW_ARGS, "--p", "1/2", "--trials", "20", "--field", "FIELD"],
    ["bench", "separation", *NW_ARGS, "--r", "1", "--m", "1", "--field", "FIELD"],
], ids=["rank", "rank-symbolic", "annihilate", "depend", "measure", "rewrite",
        "pit-both", "pit-certify-rank", "nw-experiment", "bench"])
def test_json_reports_are_the_bytes_of_an_indented_dumps(tmp_path, monkeypatch, field, argv):
    """Each subcommand's report, over Q and F_1000003, is written once by
    `_report_json`, and its bytes are those of the indented json.dumps."""
    domain = ({"type": "rational"} if field == "rational"
              else {"type": "prime", "p": 1000003})
    polys, circuit = tmp_path / "e1.json", tmp_path / "e1_circuit.json"
    polys.write_text(json.dumps(dict(E1_POLYS, field=domain)))
    circuit.write_text(json.dumps(dict(json.loads((DATA / "e1_circuit.json").read_text()),
                                       field=domain)))
    names = {"E1": str(polys), "C1": str(circuit), "FIELD": field}
    reports, writer = [], cli._report_json

    def spy(value, *pad):
        if not pad:  # the whole report, not one of the walk's own calls
            reports.append(value)
        return writer(value, *pad)

    monkeypatch.setattr(cli, "_report_json", spy)
    code, out = cli.run([names.get(a, a) for a in argv] + ["--json"])
    assert code in (0, 1) and len(reports) == 1
    assert out == _indented(reports[0]) + "\n"


_KEYS = (st.sampled_from([1, "1", 2, "2", "", "a", "é", True, None, "-0.0"])
         | st.integers() | st.text(max_size=4))
_CHARS = (st.characters(exclude_categories=()) | st.integers(0xD800, 0xDFFF).map(chr)
          | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", " ", "\U0001f600"]))
_LEAVES = (st.text(_CHARS, max_size=8) | st.integers()
           | st.integers(min_value=1 << 64).map(lambda n: -n ** 5) | st.booleans()
           | st.none() | st.fractions() | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf")]))
_TREES = st.recursive(
    _LEAVES, lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                           | st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(_TREES)
@example({1: "int key", "1": "str key", 2: ("x", [])})
@example({"1": "str key", 1: "int key", "b": {}, "a": Fraction(-1, 3)})
def test_report_writer_equals_indented_dumps(tree):
    """Nested dicts, lists and tuples with int and str keys (1 next to "1":
    the later duplicate wins), and every kind of leaf `_fmt` keeps or rewrites."""
    assert cli._report_json(tree) == _indented(tree)


@pytest.mark.parametrize("tree", [
    {"a": [1, {2, 3}]}, (b"bytes",), {"b": object(), "a": [complex(1, 2)]},
    {"point": [Fraction(1, 2), Decimal("0.5")]}, [range(2)],
], ids=["set", "bytes", "first-in-key-order", "decimal", "range"])
def test_report_writer_refuses_what_json_refuses(tree):
    """A leaf json cannot write raises json's own TypeError, for the first
    such leaf in the written order; an int past the digit limit json's ValueError."""
    with pytest.raises(TypeError) as ours:
        cli._report_json(tree)
    with pytest.raises(TypeError) as theirs:
        _indented(tree)
    assert str(ours.value) == str(theirs.value)
    huge = {"n": 10 ** (sys.get_int_max_str_digits() + 1)}
    with pytest.raises(ValueError) as ours:
        cli._report_json(huge)
    with pytest.raises(ValueError) as theirs:
        _indented(huge)
    assert str(ours.value) == str(theirs.value)


# ----------------------------------------------------------------------
# dispatch: argv after a subcommand's name goes to that subcommand's parser,
# in one pass; any other argv to the top-level parser

def _flags(command):
    """Each action of the subcommand's parser but help: (its flags, the action);
    a positional has no flags."""
    return [(a.option_strings, a) for a in cli.build_parser().commands[command]._actions
            if a.dest != "help"]


def _value(action, k=0):
    """A value the action parses; k = 1 gives a second one where there is one."""
    if action.choices:
        return list(action.choices)[-1 - k % len(action.choices)]
    return str(2 + k) if action.type is int else f"value{k}"


def _positionals(command):
    return [_value(a) for flags, a in _flags(command) if not flags]


def _required(command):
    """The subcommand's argv with only what it requires: every other flag
    takes its default."""
    argv = [command, *_positionals(command)]
    for flags, a in _flags(command):
        if flags and a.required:
            argv += [flags[0], _value(a)]
    return argv


def _dispatch_argvs(command):
    """The defaults, every flag, every flag in the --flag=value form, and
    every flag given twice (the last one holds)."""
    flags = [(f[0], a) for f, a in _flags(command) if f]
    every = [command, *_positionals(command)]
    joined, twice = list(every), list(every)
    for flag, a in flags:
        if a.nargs == 0:
            every.append(flag)
            joined.append(flag)
            twice += [flag, flag]
        else:
            every += [flag, _value(a)]
            joined.append(f"{flag}={_value(a)}")
            twice += [flag, _value(a), flag, _value(a, 1)]
    return {"defaults": _required(command), "every-flag": every,
            "flag=value": joined, "repeated": twice}


@pytest.fixture
def parsed(monkeypatch):
    """vars() of each namespace that cli.run hands a subcommand, which then
    returns (0, "") in place of its computation."""
    seen = []

    def spy(args):
        seen.append(dict(vars(args)))
        return 0, ""

    monkeypatch.delenv("RANKPIT_SEED", raising=False)
    for parser in cli.build_parser().commands.values():
        monkeypatch.setitem(parser._defaults, "fn", spy)
    return seen


def test_the_dispatch_map_holds_every_subcommand_the_top_level_lists():
    parser = cli.build_parser()
    choices = next(a for a in parser._actions if a.choices).choices
    assert list(parser.commands) == list(choices)
    assert all(parser.commands[name] is choices[name] for name in choices)
    usage = parser.format_usage()
    assert "{" + ",".join(parser.commands) + "}" in usage


@pytest.mark.parametrize("command", ["rank", "annihilate", "depend", "rewrite", "measure",
                                     "nw", "pit", "bench"])
def test_run_parses_as_the_two_level_parser_does(parsed, command):
    """Every subcommand, over argvs that give each of its flags, none of
    them, the --flag=value form and a repeated flag: the namespace `run`
    parses is the top-level parser's, `run`'s seed default aside."""
    argvs = _dispatch_argvs(command)
    for name, argv in argvs.items():
        assert cli.run(argv) == (0, ""), name
        expected = vars(cli.build_parser().parse_args(argv))
        if expected["seed"] is None:  # run() reads $RANKPIT_SEED, here unset: 0
            expected["seed"] = 0
        assert parsed[-1] == expected, name
    assert len(parsed) == len(argvs)
    # every flag is given a value other than its default, so a dropped one shows
    every = vars(cli.build_parser().parse_args(argvs["every-flag"]))
    defaults = vars(cli.build_parser().parse_args(argvs["defaults"]))
    assert {a.dest for flags, a in _flags(command)
            if flags and not a.required and every[a.dest] == defaults[a.dest]} == set()


def _shortest_prefix(flag, flags):
    """The shortest prefix of the flag that no other flag starts with, or
    None where only the whole flag is unique."""
    others = [f for f in flags if f != flag]
    return next((flag[:n] for n in range(3, len(flag))
                 if not any(f.startswith(flag[:n]) for f in others)), None)


@pytest.mark.parametrize("command", ["rank", "annihilate", "depend", "rewrite", "measure",
                                     "nw", "pit", "bench"])
def test_no_prefix_of_a_flag_stands_for_it(parsed, capsys, command):
    """For each flag of each subcommand, its shortest unique prefix is an
    unrecognized argument (exit 64), and the whole flag parses."""
    flags = [f for option_strings, _ in _flags(command) for f in option_strings] + ["-h", "--help"]
    refused = 0
    for option_strings, a in _flags(command):
        for flag in option_strings:
            value = [] if a.nargs == 0 else [_value(a, 1)]
            assert cli.run(_required(command) + [flag, *value]) == (0, "")
            assert parsed[-1][a.dest] == (True if a.nargs == 0 else (a.type or str)(value[0]))
            prefix = _shortest_prefix(flag, flags)
            if prefix is None:
                continue
            assert cli.main(_required(command) + [prefix, *value]) == 64
            err = capsys.readouterr().err.splitlines()
            assert err[0].startswith(f"usage: rankpit {command} ")
            assert err[-1] == (f"rankpit {command}: error: unrecognized arguments: "
                               + " ".join([prefix, *value]))
            refused += 1
    assert refused >= 5


@pytest.mark.parametrize("argv, error", [
    (["rank", "--poly-file", "f.json", "--cap", "5"],
     "rankpit rank: error: unrecognized arguments: --cap 5"),
    (["rank", "--poly", "f.json"],
     "rankpit rank: error: the following arguments are required: --poly-file"),
    (["annihilate", "--poly-file", "f.json", "--cap-ann", "2"],
     "rankpit annihilate: error: unrecognized arguments: --cap-ann 2"),
    (["--he"], "rankpit: error: the following arguments are required: command"),
], ids=["rank-cap", "rank-poly", "annihilate-cap-ann", "top-level-he"])
def test_flag_prefixes_are_usage_errors(parsed, capsys, argv, error):
    assert cli.main(argv) == 64
    assert capsys.readouterr().err.splitlines()[-1] == error
    assert parsed == []


_TOP_USAGE = "usage: rankpit [-h] {rank,annihilate,depend,rewrite,measure,nw,pit,bench} ..."


@pytest.mark.parametrize("argv, code, first, last", [
    ([], 64, _TOP_USAGE, "rankpit: error: the following arguments are required: command"),
    (["bogus"], 64, _TOP_USAGE, "rankpit: error: argument command: invalid choice: 'bogus'"),
    (["-h"], 0, _TOP_USAGE, None),
    (["rank", "-h"], 0, "usage: rankpit rank [-h] --poly-file POLY_FILE", None),
    (["rank"], 64, "usage: rankpit rank [-h] --poly-file POLY_FILE",
     "rankpit rank: error: the following arguments are required: --poly-file"),
    (["rank", "--poly-file", "f.json", "--seed", "x"], 64,
     "usage: rankpit rank [-h] --poly-file POLY_FILE",
     "rankpit rank: error: argument --seed: invalid int value: 'x'"),
    (["rank", "--poly-file", "f.json", "--bogus", "1"], 64,
     "usage: rankpit rank [-h] --poly-file POLY_FILE",
     "rankpit rank: error: unrecognized arguments: --bogus 1"),
], ids=["empty", "unknown-subcommand", "top-level-help", "rank-help", "missing-poly-file",
        "bad-seed", "unknown-flag"])
def test_refusals_keep_their_parser_and_exit_code(parsed, capsys, monkeypatch,
                                                  argv, code, first, last):
    """Refusals and help: the exit code, the usage's first line (on stderr
    for an error, on stdout for help) and the error line; an unrecognized
    argument is the subcommand's error, with its usage."""
    monkeypatch.setenv("COLUMNS", "200")  # one usage line
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    lines = (err if code else out).splitlines()
    assert lines[0].startswith(first)
    if last is None:
        assert err == ""
    else:
        assert len(lines) == 2 and lines[1].startswith(last)
    assert parsed == []
