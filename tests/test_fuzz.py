"""Bounded fuzzing of the input boundary: polynomial parsers and the CLI.

The parsers may raise a structured error, or one of the built-in errors in
`circuit._MALFORMED`, which every reader of outside input (circuit.parse,
the CLI's poly-file loader) turns into a CircuitSyntaxError with its JSON
path.  The CLI itself returns only its documented exit codes, and a bad
input never shows up as an InternalError.
"""

import json
import tempfile
from pathlib import Path

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


@st.composite
def _damaged_text(draw):
    return _damage(draw, draw(st.sampled_from(
        ["x1^2*x2 - 3/2*x1 + 7", "2*x1*x3^2 + x2 - 1", "-x1 + 1/3"])))


@settings(max_examples=300, deadline=None)
@given(DOMAINS, st.integers(0, 4), _TERMS)
def test_terms_from_json_raises_only_boundary_errors(domain, nvars, items):
    try:
        Polynomial.terms_from_json(domain, nvars, items)
    except (RankpitError, *_MALFORMED):
        pass


@settings(max_examples=300, deadline=None)
@given(DOMAINS, st.integers(0, 4), st.text(max_size=20) | _damaged_text())
def test_from_text_raises_only_boundary_errors(domain, nvars, text):
    try:
        Polynomial.from_text(domain, nvars, text)
    except (RankpitError, *_MALFORMED):
        pass


_E1 = {"field": {"type": "rational"}, "nvars": 2, "polys": [
    [{"coeff": "1", "mono": {"1": 1}}, {"coeff": "1", "mono": {"2": 1}}],
    [{"coeff": "1/2", "mono": {"1": 1, "2": 1}}],
    [{"coeff": "1", "mono": {"1": 2}}, {"coeff": "-1", "mono": {"2": 2}}]]}


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
