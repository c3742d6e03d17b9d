"""Circuit model: file format, evaluation, expansion, degree slicing."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rankpit import algdep
from rankpit.circuit import (Circuit, DeclaredBounds, Gate, OuterExpr,
                             circuit_size, evaluate_circuit, expand,
                             homogeneous_component_circuit, parse, parse_polys,
                             serialize)
from rankpit.domains import PrimeField, Rationals
from rankpit.errors import (BoundViolation, CircuitSyntaxError,
                            DimensionMismatch, FieldTooSmall, InvalidParams,
                            RankpitError)
from rankpit.poly import Polynomial
from test_fuzz import mistype

Q = Rationals()
DATA = Path(__file__).parent / "data"


def x(i, nvars=2, dom=Q):
    return Polynomial.variable(dom, nvars, i)


def const(c, nvars=2, dom=Q):
    return Polynomial.constant(dom, nvars, c)


def simple_product_circuit():
    g = Gate("product", [x(0) + x(1), x(0) - x(1)])
    return Circuit(Q, 2, DeclaredBounds(d=1, k=2, delta=2), [g])


def gamma_square_circuit():
    outer = OuterExpr(1, [("input", 0), ("mul", (0, 0))], 1)
    g = Gate(outer, [x(0, nvars=1)])
    return Circuit(Q, 1, DeclaredBounds(d=1, k=1, delta=2), [g])


# ----------------------------------------------------------------------
# parse / serialize

def test_parse_simple_product_gate():
    c = simple_product_circuit()
    parsed = parse(serialize(c))
    assert parsed.top_fanin == 1
    assert parsed.declared.d == 1
    assert expand(parsed) == expand(c)


@pytest.mark.parametrize("bound", ["d", "delta"])
def test_declared_degree_violation(bound):
    """x1^2 breaks d = 1; a product of two linear forms has formal degree
    2 > delta = 1."""
    text = serialize(simple_product_circuit())
    obj = json.loads(text)
    if bound == "d":
        obj["gates"][0]["inner"][0] = [{"coeff": "1", "mono": {"1": 2}}]
    else:
        obj["declared"]["delta"] = 1
    with pytest.raises(BoundViolation) as info:
        parse(json.dumps(obj))
    assert info.value.bound == bound
    assert info.value.declared == 1
    assert info.value.actual == 2


def test_golden_roundtrip_byte_identical():
    text = (DATA / "e1_circuit.json").read_text()
    assert serialize(parse(text)) == text


def test_syntax_error_carries_location():
    with pytest.raises(CircuitSyntaxError) as info:
        parse("{\n  \"field\": ,\n}")
    assert info.value.line == 2


def test_missing_key_reported():
    with pytest.raises(CircuitSyntaxError):
        parse(json.dumps({"field": {"type": "rational"}, "nvars": 2, "gates": []}))


_POLY_FILE = {"field": {"type": "rational"}, "nvars": 2,
              "polys": [[{"coeff": "1", "mono": {"1": 1}}]]}


@pytest.mark.parametrize("damage", [
    lambda obj: json.dumps({**obj, "nvars": True}),
    lambda obj: json.dumps({**obj, "nvars": -1}),
    lambda obj: json.dumps({**obj, "nvars": 2.7}),
    lambda obj: json.dumps({**obj, "field": {"type": "prime", "p": 7.5}}),
    lambda obj: "{\n  \"field\": ,\n}",
    lambda obj: json.dumps([obj]),
    lambda obj: json.dumps({k: v for k, v in obj.items() if k != "nvars"}),
    lambda obj: json.dumps({**obj, "nvars": -1, "gates": 0, "polys": 0}),
    lambda obj: "[" * 100_000 + "]" * 100_000,  # json.loads raises RecursionError
], ids=["nvars-bool", "nvars-negative", "nvars-float", "field-p-float", "not-json",
        "top-level-list", "missing-key", "nvars-and-list", "nested-too-deeply"])
def test_circuit_and_poly_files_report_a_bad_header_alike(damage):
    errors = []
    for read, obj in ((parse, json.loads((DATA / "e1_circuit.json").read_text())),
                      (parse_polys, _POLY_FILE)):
        with pytest.raises(CircuitSyntaxError) as info:
            read(damage(obj))
        errors.append((str(info.value), info.value.path, info.value.line,
                       info.value.column))
    assert errors[0] == errors[1]
    assert errors[0][1] or errors[0][2]  # located by JSON path or by line


@pytest.mark.parametrize("read, key, path", [
    (parse, ("gates",), "$.gates"),
    (parse, ("gates", 0, "inner"), "$.gates[0].inner"),
    (parse_polys, ("polys",), "$.polys"),
], ids=["gates", "inner", "polys"])
def test_a_list_field_that_is_no_list_is_a_syntax_error(read, key, path):
    text = (DATA / "e1_circuit.json").read_text() if read is parse else json.dumps(_POLY_FILE)
    obj = parent = json.loads(text)
    for k in key[:-1]:
        parent = parent[k]
    parent[key[-1]] = {}
    with pytest.raises(CircuitSyntaxError) as info:
        read(json.dumps(obj))
    assert (str(info.value), info.value.path) == (f"{key[-1]} must be a list at {path}", path)


@pytest.mark.parametrize("key", ["outer", "inner"])
def test_a_gate_without_outer_or_inner_is_a_syntax_error(key):
    obj = json.loads((DATA / "e1_circuit.json").read_text())
    del obj["gates"][0][key]
    with pytest.raises(CircuitSyntaxError) as info:
        parse(json.dumps(obj))
    assert (str(info.value), info.value.path) == (
        'gate needs "outer" and "inner" at $.gates[0]', "$.gates[0]")


def _dag_circuit_json() -> dict:
    """A valid circuit whose gate 0 has a DAG outer with every node kind."""
    f = x(0).pow(2) - 2 * x(1)  # z1^2 - 2*z2
    outer = OuterExpr(2, [("input", 0), ("input", 1),
                          ("const", Q.coerce(3)), ("mul", (0, 2)),
                          ("add", (3, 1)), ("call", f, (0, 4))], 5)
    gates = [Gate(outer, [x(0) + x(1), x(0) * x(1)], rank_bound=2),
             Gate("product", [x(0), x(1) - const(1)])]
    return json.loads(serialize(Circuit(Q, 2, DeclaredBounds(d=2, k=2, delta=8),
                                        gates)))


@pytest.mark.parametrize("node,path", [
    ({"op": "input"}, "$.gates[0].outer.nodes[0]"),
    ("x", "$.gates[0].outer.nodes[0]"),
    (None, "$.gates[0].outer"),  # "nodes": null
    ({}, "$.gates[0].outer"),  # "nodes": {}
    ({"op": "add", "args": ["a"]}, "$.gates[0].outer.nodes[0]"),
    ({"op": "add", "args": 3}, "$.gates[0].outer.nodes[0]"),
    ({"op": "const"}, "$.gates[0].outer.nodes[0]"),
    ({"op": "call", "args": [0]}, "$.gates[0].outer.nodes[0]"),
    ({"op": "input", "index": "one"}, "$.gates[0].outer.nodes[0]"),
    ({"op": "pow", "args": [0]}, "$.gates[0].outer.nodes[0]"),
    # six nodes keep the root 5 in range, so node 0 is the fault
    ([{"op": "input", "index": 9}] + [{"op": "input", "index": 1}] * 5, "$.gates[0].outer"),
    ([{"op": "add", "args": [0]}] + [{"op": "input", "index": 1}] * 5, "$.gates[0].outer"),
    ([], "$.gates[0].outer"),  # "nodes": [], so the root is out of range
], ids=["input-no-index", "node-not-object", "nodes-null", "nodes-object",
        "args-not-ints", "args-not-list", "const-no-value", "call-no-poly",
        "index-not-int", "unknown-op", "input-out-of-range", "args-not-earlier",
        "root-out-of-range"])
def test_malformed_dag_node_is_a_syntax_error(node, path):
    obj = _dag_circuit_json()
    dag = obj["gates"][0]["outer"]["dag"]
    if path.endswith("outer"):  # the case replaces the whole node list
        dag["nodes"] = node
    else:
        dag["nodes"][0] = node
    with pytest.raises(CircuitSyntaxError) as info:
        parse(json.dumps(obj))
    assert info.value.path == path


def test_a_call_node_must_match_its_polynomial_arity():
    """A parsed call node reads its polynomial over len(args) variables, so
    only a DAG built in code can break this check."""
    f = x(0) * x(1)  # z1*z2
    with pytest.raises(InvalidParams, match="call arity 1 != poly variables 2"):
        OuterExpr(2, [("input", 0), ("call", f, (0,))], 1)


@pytest.mark.parametrize("where,value,path", [
    (("declared", "k"), True, "$.declared"),
    (("declared", "d"), 2.9, "$.declared"),
    (("declared", "delta"), "5", "$.declared"),
    (("gates", 0, "k"), True, "$.gates[0]"),
    (("gates", 0, "k"), 2.0, "$.gates[0]"),
    (("field",), {"type": "prime", "p": 7.5}, "$.field"),
], ids=["declared-k-bool", "declared-d-float", "declared-delta-string",
        "gate-k-bool", "gate-k-float", "field-p-float"])
def test_non_integer_bounds_in_e1_are_syntax_errors(where, value, path):
    """int() would read true as 1 and 2.9 as 2, and give a verdict."""
    obj = json.loads((DATA / "e1_circuit.json").read_text())
    parent = obj
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    with pytest.raises(CircuitSyntaxError) as info:
        parse(json.dumps(obj))
    assert info.value.path == path
    assert str(info.value).startswith("TypeError: ")  # the detail names the type


@pytest.mark.parametrize("where,value,path", [
    (("declared", "d"), -1, "$.declared"),
    (("declared", "k"), -3, "$.declared"),
    (("declared", "delta"), -5, "$.declared"),
    (("gates", 0, "k"), -3, "$.gates[0]"),
], ids=["declared-d", "declared-k", "declared-delta", "gate-k"])
def test_negative_bounds_in_e1_are_syntax_errors(where, value, path):
    """pit clamps k with max(1, k), so a negative bound reached a verdict."""
    obj = json.loads((DATA / "e1_circuit.json").read_text())
    parent = obj
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    with pytest.raises(CircuitSyntaxError) as info:
        parse(json.dumps(obj))
    assert info.value.path == path
    assert str(info.value).startswith("InvalidParams: must be nonnegative")


@pytest.mark.parametrize("where,value,path", [
    (("arity",), 2.0, "$.gates[0].outer"),
    (("root",), True, "$.gates[0].outer"),
    (("nodes", 0, "index"), 1.0, "$.gates[0].outer.nodes[0]"),
    (("nodes", 3, "args"), [0, 2.0], "$.gates[0].outer.nodes[3]"),
    (("nodes", 5, "args"), [False, 4], "$.gates[0].outer.nodes[5]"),
], ids=["arity-float", "root-bool", "index-float", "args-float", "call-args-bool"])
def test_non_integer_dag_fields_are_syntax_errors(where, value, path):
    obj = _dag_circuit_json()
    parent = obj["gates"][0]["outer"]["dag"]
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    with pytest.raises(CircuitSyntaxError) as info:
        parse(json.dumps(obj))
    assert info.value.path == path


_KEYS = st.sampled_from(["field", "nvars", "declared", "gates", "outer", "inner",
                         "dag", "arity", "nodes", "root", "op", "index", "value",
                         "args", "poly", "coeff", "mono", "type", "p", "d", "k",
                         "delta", "1", "2"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
    | st.sampled_from(["product", "input", "const", "add", "mul", "call",
                       "prime", "rational", "7", "1/0", "x"]) | st.text(max_size=3),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(_KEYS | st.text(max_size=2), kids, max_size=4)),
    max_leaves=8)


def _slots(obj, path=()):
    """The path of every value inside a JSON object, the object itself first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _slots(value, path + (key,))


@st.composite
def _damaged_circuits(draw):
    """A valid DAG circuit with one to three values replaced or deleted."""
    obj = _dag_circuit_json()
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_slots(obj))))
        if not path:
            obj = draw(_JSON)
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON)
    return obj


@st.composite
def _mistyped_circuits(draw):
    """A valid DAG circuit with a JSON number where an integer or a
    coefficient string belongs (`test_fuzz.mistype`)."""
    return mistype(draw, _dag_circuit_json())


@settings(max_examples=200, deadline=None)
@given(st.one_of(_JSON, _damaged_circuits(), _mistyped_circuits()))
def test_parse_of_arbitrary_json_raises_only_rankpit_errors(obj):
    try:
        parse(json.dumps(obj))
    except RankpitError:
        pass


@settings(max_examples=200, deadline=None)
@given(_mistyped_circuits())
def test_parse_refuses_json_numbers_where_integers_or_coefficients_belong(obj):
    with pytest.raises(CircuitSyntaxError):
        parse(json.dumps(obj))


# ----------------------------------------------------------------------
# size and evaluation

def test_circuit_size_counts_monomial_union():
    g = Gate("product", [x(0) + x(1), x(0) * x(1)])
    c = Circuit(Q, 2, DeclaredBounds(d=2, k=2, delta=3), [g])
    assert circuit_size(c) == 3  # {x1, x2, x1x2}
    many = Circuit(Q, 2, DeclaredBounds(d=1, k=1, delta=1),
                   [Gate("product", [x(0)]) for _ in range(5)])
    assert circuit_size(many) == 5  # T dominates the single shared monomial
    sharing = Circuit(Q, 2, DeclaredBounds(d=1, k=1, delta=1),
                      [Gate("product", [x(0) + x(1)]),
                       Gate("product", [x(0) + x(1) * 2])])
    assert circuit_size(sharing) == 2  # union counted once


def test_evaluate_circuit_examples():
    assert evaluate_circuit(simple_product_circuit(), [3, 1]) == 8
    assert evaluate_circuit(gamma_square_circuit(), [5]) == 25
    with pytest.raises(DimensionMismatch):
        evaluate_circuit(simple_product_circuit(), [1])


def test_evaluate_agrees_with_expansion_on_random_points():
    rng = random.Random(5)
    c = parse((DATA / "e1_circuit.json").read_text())
    p = expand(c)
    for _ in range(100):
        pt = [rng.randrange(-5, 6) for _ in range(c.nvars)]
        assert evaluate_circuit(c, pt) == p.evaluate(pt)


def test_expand_examples():
    zero = Circuit(Q, 2, DeclaredBounds(d=2, k=2, delta=2), [
        Gate("product", [x(0) + x(1), x(0) - x(1)]),
        Gate("product", [const(-1), x(0) * x(0) - x(1) * x(1)]),
    ])
    assert expand(zero).is_zero()
    # gamma(z1, z2) = z1^2 - 2 z2 as a call node
    f = x(0).pow(2) - 2 * x(1)  # z1^2 - 2*z2
    outer2 = OuterExpr(2, [("input", 0), ("input", 1), ("call", f, (0, 1))], 2)
    g = Gate(outer2, [x(0) + x(1), x(0) * x(1)])
    c = Circuit(Q, 2, DeclaredBounds(d=2, k=2, delta=2), [g])
    assert expand(c) == x(0).pow(2) + x(1).pow(2)
    empty = Circuit(Q, 2, DeclaredBounds(d=1, k=1, delta=1), [])
    assert expand(empty).is_zero()


def test_formal_degree_of_dag():
    f = x(0).pow(2) * x(1) + x(1)  # z1^2*z2 + z2
    outer = OuterExpr(2, [("input", 0), ("input", 1), ("call", f, (0, 1))], 2)
    g = Gate(outer, [x(0) + x(1), x(0) * x(1)])
    assert g.formal_degree() == 2 * 1 + 2  # z1^2*z2 with weights (1, 2)


def every_node_dag(dom):
    """A DAG over 2 inputs with every node kind: a constant above any p, a
    one-argument add, a mul, a call, a nested call and a call of zero."""
    z1, z2 = x(0, dom=dom), x(1, dom=dom)
    f = z1.pow(2) + 3 * z1 * z2 - const(1, dom=dom)
    g = z1 * z2.pow(2) - z2
    return OuterExpr(2, [
        ("input", 0), ("input", 1), ("const", 2 ** 70 + 3), ("add", (2,)),
        ("mul", (0, 3, 1)), ("call", f, (0, 4)), ("call", g, (5, 1)),
        ("call", Polynomial.zero(dom, 2), (5, 0)), ("add", (6, 7, 3))], 8)


@pytest.mark.parametrize("dom", [Q, PrimeField(1_000_003)], ids=["Q", "Fp"])
def test_dag_fold_evaluate_expand_and_degree_agree(dom):
    rng = random.Random(17)
    outer = every_node_dag(dom)
    v = [Polynomial.variable(dom, 3, i) for i in range(3)]
    inners = [v[0] + v[1].scale(2), v[1] * v[2] - v[0]]
    expanded = outer.expand(inners, None)
    # the one-argument add reduces the constant from zero
    one_arg_add = OuterExpr(2, outer.nodes[:4], 3)
    assert one_arg_add.evaluate([dom.one, dom.one], dom) == dom.coerce(2 ** 70 + 3)
    assert one_arg_add.expand(inners, None) == Polynomial.constant(dom, 3, 2 ** 70 + 3)
    for _ in range(20):
        pt = [dom.coerce(rng.randrange(-50, 50)) for _ in range(3)]
        assert outer.evaluate([q.evaluate(pt) for q in inners], dom) == expanded.evaluate(pt)
    assert outer.formal_degree([q.degree() for q in inners]) >= expanded.degree() > 0
    for bad in ([], [inners[0]], inners + inners[:1]):
        with pytest.raises(DimensionMismatch):
            outer.expand(bad, None)
        with pytest.raises(DimensionMismatch):
            outer.evaluate([dom.one] * len(bad), dom)


# ----------------------------------------------------------------------
# the degree-slice transform

def slice_fixtures():
    fixtures = [simple_product_circuit(), gamma_square_circuit(),
                parse((DATA / "e1_circuit.json").read_text())]
    sq = Gate("product", [x(0) + const(1), x(0) + const(1)])
    fixtures.append(Circuit(Q, 2, DeclaredBounds(d=1, k=1, delta=2), [sq]))
    return fixtures


def test_slice_matches_polynomial_components():
    for c in slice_fixtures():
        p = expand(c)
        for ell in range(c.declared.delta + 1):
            sliced = homogeneous_component_circuit(c, ell)
            assert expand(sliced) == p.homogeneous_component(ell)


def test_slice_examples():
    sq = Circuit(Q, 1, DeclaredBounds(d=1, k=1, delta=2),
                 [Gate("product", [x(0, 1) + const(1, 1), x(0, 1) + const(1, 1)])])
    assert expand(homogeneous_component_circuit(sq, 1)) == x(0, 1) * 2
    assert expand(homogeneous_component_circuit(sq, 0)) == const(1, 1)
    homog = Circuit(Q, 2, DeclaredBounds(d=1, k=2, delta=2),
                    [Gate("product", [x(0), x(1)])])
    assert expand(homogeneous_component_circuit(homog, 2)) == expand(homog)


def test_slice_multiplies_fanin_and_keeps_bounds():
    for c in slice_fixtures():
        for ell in (0, 1):
            sliced = homogeneous_component_circuit(c, ell)
            assert sliced.top_fanin == (c.declared.delta + 1) * c.top_fanin
            assert sliced.declared.d == c.declared.d
            assert max(q.degree() for g in sliced.gates for q in g.inner) <= c.declared.d


def test_slice_preserves_per_gate_rank_on_fixture():
    c = parse((DATA / "e1_circuit.json").read_text())
    base_rank = algdep.algebraic_rank(c.gates[0].inner, mode="symbolic").rank
    sliced = homogeneous_component_circuit(c, 2)
    for g in sliced.gates:
        cert = algdep.algebraic_rank(g.inner, mode="symbolic")
        assert cert.rank <= base_rank


def test_slice_insufficient_field():
    f3 = PrimeField(3)
    y = Polynomial.variable(f3, 1, 0)
    g = Gate("product", [y, y, y, y])
    c = Circuit(f3, 1, DeclaredBounds(d=1, k=1, delta=4), [g])
    with pytest.raises(FieldTooSmall):
        homogeneous_component_circuit(c, 2)


def test_slice_over_prime_field_small_reps():
    f7 = PrimeField(7)
    y0 = Polynomial.variable(f7, 2, 0)
    y1 = Polynomial.variable(f7, 2, 1)
    g = Gate("product", [y0 + y1, y0 * y1])
    c = Circuit(f7, 2, DeclaredBounds(d=2, k=2, delta=3), [g])
    p = expand(c)
    for ell in range(4):
        assert expand(homogeneous_component_circuit(c, ell)) == \
            p.homogeneous_component(ell)


def test_dag_outer_json_roundtrip():
    f = x(0).pow(2) - 2 * x(1)  # z1^2 - 2*z2
    outer = OuterExpr(2, [("input", 0), ("input", 1),
                          ("const", Q.coerce(3)), ("mul", (0, 2)),
                          ("add", (3, 1)), ("call", f, (0, 4))], 5)
    g = Gate(outer, [x(0) + x(1), x(0) * x(1)], rank_bound=2)
    c = Circuit(Q, 2, DeclaredBounds(d=2, k=2, delta=8), [g])
    text = serialize(c)
    parsed = parse(text)
    assert serialize(parsed) == text
    assert expand(parsed) == expand(c)
    rng = random.Random(9)
    for _ in range(25):
        pt = [rng.randrange(-4, 5) for _ in range(2)]
        assert evaluate_circuit(parsed, pt) == evaluate_circuit(c, pt)


def test_slice_random_dag_circuits_match_components():
    import sys
    sys.path.insert(0, str(Path(__file__).parent))
    from _corpus import random_class_circuit
    for seed in range(8):
        c = random_class_circuit(40_000 + seed, gamma_outer=(seed % 2 == 0),
                                 domain=Q)
        p = expand(c)
        for ell in range(min(c.declared.delta, 4) + 1):
            sliced = homogeneous_component_circuit(c, ell)
            assert expand(sliced) == p.homogeneous_component(ell)
            assert sliced.top_fanin == (c.declared.delta + 1) * c.top_fanin


def test_formal_degree_bounds_expansion_degree():
    import sys
    sys.path.insert(0, str(Path(__file__).parent))
    from _corpus import random_class_circuit
    for seed in range(12):
        c = random_class_circuit(50_000 + seed, gamma_outer=True, domain=Q)
        p = expand(c)
        for g in c.gates:
            assert g.expand(None).degree() <= g.formal_degree()
        assert p.degree() <= c.declared.delta


def test_slice_beyond_delta_is_zero_circuit():
    c = simple_product_circuit()
    sliced = homogeneous_component_circuit(c, c.declared.delta + 3)
    assert expand(sliced).is_zero()
    assert sliced.top_fanin == (c.declared.delta + 1) * c.top_fanin


# ----------------------------------------------------------------------
# a product gate is the one-"mul" DAG over its inputs

def _sha256(text):
    import hashlib
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("dom", [Q, PrimeField(1_000_003)], ids=["Q", "Fp"])
def test_product_gate_is_the_one_mul_dag(dom):
    from rankpit.pit import pit_test
    v = [Polynomial.variable(dom, 3, i) for i in range(3)]
    # zero at the origin, so the identity test scans past it
    inner = [v[0] + v[1], v[1] * v[2] - v[0], v[2] + Polynomial.constant(dom, 3, 2)]
    dag = OuterExpr(3, [("input", 0), ("input", 1), ("input", 2),
                        ("mul", (0, 1, 2))], 3)
    product, explicit = Gate("product", inner), Gate(dag, inner)
    assert (product.is_product, explicit.is_product) == (True, False)
    assert product.outer.nodes == dag.nodes and product.outer.root == dag.root
    rng = random.Random(5)
    for _ in range(20):
        pt = [dom.coerce(rng.randrange(-30, 30)) for _ in range(3)]
        assert product._value(pt) == explicit._value(pt)
    assert product.expand(None) == explicit.expand(None)
    assert product.formal_degree() == explicit.formal_degree() == 4
    reports, texts = [], []
    for g in (product, explicit):
        c = Circuit(dom, 3, DeclaredBounds(d=2, k=3, delta=4), [g])
        reports.append(pit_test(c))
        texts.append(serialize(c))
    assert reports[0] == reports[1]
    assert reports[0].verdict == "nonzero" and reports[0].witness_index > 0
    assert json.loads(texts[0])["gates"][0]["outer"] == "product"
    assert json.loads(texts[1])["gates"][0]["outer"]["dag"]["nodes"][3] == \
        {"op": "mul", "args": [0, 1, 2]}


def test_product_transforms_keep_their_bytes():
    """sha256 of the all-product outputs: the one-"mul" DAG grafts to exactly
    the nodes the product spelled.  The slices' digests were taken before
    product gates became DAGs; the rewrite's when its report's config came
    to echo only the expansion cap, the one cap rewrite applies."""
    import sys
    sys.path.insert(0, str(Path(__file__).parent))
    from _corpus import rewrite_fixture
    from rankpit import cli
    code, out = cli.run(["rewrite", "--circuit", str(DATA / "e1_circuit.json"),
                         "--json", "--seed", "0"])
    assert (code, _sha256(out)) == (
        0, "2e663719d1ed0d6b9952cb8afaf1201077e2bd378869e888b2c63d0ddc2aad19")
    e1 = parse((DATA / "e1_circuit.json").read_text())
    assert [_sha256(serialize(homogeneous_component_circuit(e1, ell)))
            for ell in range(4)] == [
        "494a1f4c81fd259500867802f76a4fb9fb57e1526daee30d45fb041006c88ef2",
        "856ccef261995f9452828b1a7a7bf5f88731c6d9ea3c6cee626bf4161a11cce7",
        "2eaef606e609404a3351801fcfcefb7e7f120cccc346e8f2811fdd4e9638dedf",
        "e17d31a7fe7e3f7f7383cbbf0e15fbd596f732988f30cc04870877b83ffe3f93"]
    c = rewrite_fixture(6)
    assert [g.is_product for g in c.gates] == [True, True]
    assert _sha256(serialize(algdep.rewrite_circuit(c, seed=6)[0])) == \
        "3e2bf4b5a70d75cca7b9b7d73baa4c374ff71633e7dd1a3e87299dfa07152644"


def _one_argument_adds(c):
    return [node for g in c.gates for node in g.outer.nodes
            if node[0] == "add" and len(node[1]) == 1]


def test_grafted_dags_hold_no_alias_nodes():
    import sys
    sys.path.insert(0, str(Path(__file__).parent))
    from _corpus import random_class_circuit, rewrite_fixture
    grafted = 0
    for seed in range(12):
        c = rewrite_fixture(seed)
        if all(g.is_product for g in c.gates):
            continue
        assert _one_argument_adds(c) == []
        sliced = homogeneous_component_circuit(c, 1)
        rewritten, a = algdep.rewrite_circuit(c, seed=seed)
        assert _one_argument_adds(sliced) == _one_argument_adds(rewritten) == []
        assert expand(rewritten) == expand(c).translate(a)
        grafted += 1
    for seed in range(4):
        c = random_class_circuit(60_000 + seed, gamma_outer=True, domain=Q)
        assert _one_argument_adds(c) == []
        assert _one_argument_adds(homogeneous_component_circuit(c, 1)) == []
    assert grafted >= 4
