"""Bounded fuzzing of the input boundary: the polynomial reader and the CLI.

The reader may raise a structured error, or one of the built-in errors in
`circuit._MALFORMED`, which every reader of outside input (circuit.parse and
circuit.parse_polys) turns into a CircuitSyntaxError with its JSON
path.  The CLI itself returns only its documented exit codes, and a bad
input never shows up as an InternalError.  A JSON number where an integer
or a coefficient string belongs is refused, never rounded.
"""

import functools
import json
import operator
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rankpit import cli
from rankpit.circuit import _MALFORMED
from rankpit.domains import PrimeField, Rationals
from rankpit.errors import RankpitError
from rankpit.poly import Polynomial

DOMAINS = st.sampled_from([Rationals(), PrimeField(7), PrimeField((1 << 61) - 1)])

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)

# coefficients and exponents near the valid ones, so that most terms parse
_COEFF = st.sampled_from(["1", "-2", "3/4", "1/0", "0", "7/7", "x", "", " 5"]) | _JSON
_EXPONENT = st.integers(-1, 3) | _JSON
_TERM = st.fixed_dictionaries(
    {"coeff": _COEFF},
    optional={"mono": st.dictionaries(st.sampled_from(["0", "1", "2", "3", "a", "-1"]),
                                      _EXPONENT, max_size=3) | _JSON})
_TERMS = st.lists(_TERM | _JSON, max_size=4) | _JSON


def _damage(draw, text: str) -> str:
    """text with a few characters deleted, inserted or replaced."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["delete", "insert", "replace"]))
        c = draw(st.sampled_from(list('x1290^*+-/ {}[]":,')))
        if op == "insert" or i == len(chars):
            chars.insert(i, c)
        elif op == "delete":
            del chars[i]
        else:
            chars[i] = c
    return "".join(chars)


@settings(max_examples=300, deadline=None)
@given(DOMAINS, st.integers(0, 4), _TERMS)
def test_terms_from_json_raises_only_boundary_errors(domain, nvars, items):
    try:
        Polynomial.terms_from_json(domain, nvars, items)
    except (RankpitError, *_MALFORMED):
        pass


_E1 = {"field": {"type": "rational"}, "nvars": 2, "polys": [
    [{"coeff": "1", "mono": {"1": 1}}, {"coeff": "1", "mono": {"2": 1}}],
    [{"coeff": "1/2", "mono": {"1": 1, "2": 1}}],
    [{"coeff": "1", "mono": {"1": 2}}, {"coeff": "-1", "mono": {"2": 2}}]]}


def mistype(draw, obj):
    """obj with one integer, or one coefficient string (a "coeff" or a DAG
    "value"), replaced by a bool or a float, or a coefficient by an int:
    values that int() or Fraction() would read as numbers."""
    slots = []

    def walk(node, path):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, value in items:
            if isinstance(value, int) or key in ("coeff", "value"):
                slots.append(path + (key,))
            walk(value, path + (key,))

    walk(obj, ())
    path = draw(st.sampled_from(slots))
    parent = functools.reduce(operator.getitem, path[:-1], obj)
    numbers = st.booleans() | st.floats()
    if isinstance(parent[path[-1]], str):
        numbers |= st.integers()
    parent[path[-1]] = draw(numbers)
    return obj


@settings(max_examples=200, deadline=None)
@given(DOMAINS, st.booleans() | st.floats() | st.integers(), st.booleans() | st.floats())
def test_json_numbers_are_not_coefficients_or_exponents(domain, coeff, exponent):
    for term in ({"coeff": coeff}, {"coeff": "1", "mono": {"1": exponent}}):
        with pytest.raises(TypeError):
            Polynomial.terms_from_json(domain, 2, [term])


@st.composite
def _mistyped_poly_file(draw):
    field = draw(st.sampled_from([{"type": "rational"}, {"type": "prime", "p": 7},
                                  {"type": "prime", "p": "7"}]))
    return json.dumps(mistype(draw, dict(json.loads(json.dumps(_E1)), field=field)))


@settings(max_examples=150, deadline=None)
@given(_mistyped_poly_file())
def test_cli_refuses_json_numbers_where_integers_or_coefficients_belong(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "polys.json"
        path.write_text(text)
        code, out = cli.run(["rank", "--poly-file", str(path), "--json"])
    assert (code, json.loads(out)["error"]) == (2, "CircuitSyntaxError"), text


@st.composite
def _poly_file(draw):
    kind = draw(st.sampled_from(["damaged", "terms", "json"]))
    if kind == "damaged":
        base = dict(_E1, field=draw(st.sampled_from(
            [{"type": "rational"}, {"type": "prime", "p": "7"}])))
        return _damage(draw, json.dumps(base))
    if kind == "terms":
        return json.dumps({"field": {"type": "rational"}, "nvars": 2,
                           "polys": draw(st.lists(_TERMS, max_size=3))})
    return json.dumps(draw(_JSON))


@settings(max_examples=150, deadline=None)
@given(_poly_file())
def test_cli_rank_on_damaged_poly_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "polys.json"
        path.write_text(text)
        try:
            code, out = cli.run(["rank", "--poly-file", str(path), "--json"])
        except SystemExit as exc:
            code, out = exc.code, None
    assert code in (0, 1, 2, 64)
    if code == 2:
        assert json.loads(out)["error"] != "InternalError", out
