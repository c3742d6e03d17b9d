"""CLI: dispatch, exit codes, report shape, determinism, caps."""

import json
import os
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


def test_rank_symbolic_agrees(e1_file):
    code, out = cli.run(["rank", "--poly-file", e1_file, "--mode", "symbolic",
                         "--json"])
    assert json.loads(out)["result"]["rank"] == 2


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
    assert lines[0] == "r,m,dimension,rows,cols,millis"
    assert len(lines) == 1 + 2 * 2


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


def test_bench_separation():
    code, out = cli.run(["bench", "separation", "--n", "2", "--q", "3",
                         "--e", "1", "--r", "1", "--m", "1", "--json"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["phi"] <= res["circuit_bound"]


def test_matrix_cap_honored(e1_file):
    code, out = cli.run(["measure", "--poly-file", e1_file, "--index", "2",
                         "--r", "1", "--m", "1", "--json",
                         "--cap-matrix", "1"])
    assert code == 2
    assert json.loads(out)["error"] == "MatrixTooLarge"


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


def test_expansion_cap_honored(tmp_path):
    obj = {"field": {"type": "rational"}, "nvars": 6, "polys": [
        [{"coeff": "1", "mono": {str(i + 1): 1}} for i in range(6)],
        [{"coeff": "1", "mono": {str(i + 1): 2}} for i in range(6)],
        [{"coeff": "1", "mono": {str(i + 1): 3}} for i in range(6)],
    ]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(obj))
    code, out = cli.run(["annihilate", "--poly-file", str(path), "--json",
                         "--cap-expansion", "20"])
    assert code == 2
    assert json.loads(out)["error"] == "ExpansionTooLarge"


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
    assert code == 2
    assert json.loads(out)["error"] == "InvalidParams"


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


def test_malformed_poly_file_reports_json_path(tmp_path):
    path = tmp_path / "bad_term.json"
    for polys, where in [
        ([[{"coeff": "1"}], [{"mono": {}}]], "$.polys[1]"),  # KeyError
        ([[{"coeff": "1", "mono": [1]}]], "$.polys[0]"),  # AttributeError
        ([[{"coeff": "1/0"}]], "$.polys[0]"),  # ZeroDivisionError over Q
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
