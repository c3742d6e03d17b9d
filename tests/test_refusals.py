"""Every public refusal that the other tests never reach: a bad argument to a
constructor or an entry point raises its structured error (or the built-in
one the API documents), with its message, before any work is done."""

import copy
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

from rankpit import algdep, circuit, domains, errors, measure, nw, pit, util
from rankpit.circuit import Circuit, DeclaredBounds, Gate, OuterExpr
from rankpit.domains import PrimeField, Rationals
from rankpit.errors import (ArityMismatch, DimensionMismatch, DomainMismatch,
                            ExpansionTooLarge, InvalidParams, UnreadableInput)
from rankpit.poly import Polynomial, compose

Q = Rationals()
FP = PrimeField(1_000_003)


def x(i, nvars=2, dom=Q):
    return Polynomial.variable(dom, nvars, i)


def _circuit(*gates, nvars=2, dom=Q):
    return Circuit(dom, nvars, DeclaredBounds(d=1, k=1, delta=1), list(gates))


def _moment_curve():
    v = x(0, 1)
    return [v, v.pow(2), v.pow(3)]


# the dependence entry points, each on (x1, x1^2, x1^3) with a given basis
_DEPENDENCE_CALLS = {
    "translation": lambda basis: algdep.sample_good_translation(_moment_curve(), basis),
    "reconstruct": lambda basis: algdep.reconstruct_dependence(_moment_curve(), basis, (1,)),
    "newton": lambda basis: algdep.newton_reconstruct(_moment_curve(), basis, (1,), 2),
}
_BAD_BASES = {"out-of-range": (5,), "negative": (-1,), "repeated": (0, 0),
              "repeated-to-full": (0, 0, 0)}


# derivative monomials that break the format: each variable once, in ascending
# order, with an exponent >= 1
_BAD_DERIVATIVES = {"zero-exponent": ((0, 0),), "negative-exponent": ((0, -1),),
                    "unsorted": ((1, 1), (0, 1)), "repeated": ((0, 1), (0, 1)),
                    "negative-variable": ((-1, 1),)}


def _read_latin1():
    Path("latin1.txt").write_bytes("café".encode("latin-1"))
    return util.read_text("latin1.txt")


REFUSALS = {
    # poly
    "compose-no-inners": (lambda: compose(Polynomial.constant(Q, 0, 1), []),
                          ArityMismatch, "at least one inner"),
    "compose-mixed-domains": (lambda: compose(x(0) + x(1), [x(0), x(0, dom=FP)]),
                              DomainMismatch, "inner polynomials on different domains"),
    "compose-mixed-nvars": (lambda: compose(x(0) + x(1), [x(0), x(0, nvars=3)]),
                            DimensionMismatch, "different variable counts"),
    "compose-outer-domain": (lambda: compose(x(0, 1, FP), [x(0)]),
                             DomainMismatch, "outer and inner"),
    "variable-out-of-range": (lambda: Polynomial.variable(Q, 2, 2),
                              InvalidParams, "variable 2 out of range"),
    "negative-power": (lambda: x(0).pow(-1), InvalidParams, "negative power"),
    "evaluate-short-point": (lambda: x(0).evaluate([1]),
                             DimensionMismatch, "point has 1 coords, nvars=2"),
    **{f"derivative-{name}": (
        lambda gamma=gamma: x(0).partial_derivative(gamma), InvalidParams,
        re.escape(f"derivative {gamma} needs ascending variables and exponents >= 1"))
       for name, gamma in _BAD_DERIVATIVES.items()},
    "derivative-variable-out-of-range": (lambda: x(0).partial_derivative(((2, 1),)),
                                         InvalidParams, "derivative variable 2 out of range"),
    # circuit
    "gate-no-inners": (lambda: Gate("product", []), InvalidParams, "at least one inner"),
    "gate-mixed-domains": (lambda: Gate("product", [x(0), x(0, dom=FP)]),
                           DomainMismatch, "different domains"),
    "gate-mixed-nvars": (lambda: Gate("product", [x(0), x(0, nvars=3)]),
                         DimensionMismatch, "different variable counts"),
    "gate-outer-not-a-dag": (lambda: Gate("sum", [x(0)]),
                             InvalidParams, 'outer must be "product" or an OuterExpr'),
    "gate-outer-arity": (lambda: Gate(OuterExpr(1, [("input", 0)], 0), [x(0), x(1)]),
                         InvalidParams, "outer arity 1 != 2 inner"),
    "dag-unknown-op": (lambda: OuterExpr(1, [("input", 0), ("neg", (0,))], 1),
                       InvalidParams, "node 1: unknown op 'neg'"),
    "dag-call-forward-argument": (
        lambda: OuterExpr(1, [("input", 0), ("call", x(0, nvars=1), (1,))], 1),
        InvalidParams, r"node 1: bad argument list \(1,\)"),
    "circuit-nvars": (lambda: _circuit(Gate("product", [x(0)]), nvars=3),
                      DimensionMismatch, "gate 0: inner polynomial on 2 variables"),
    "circuit-domain": (lambda: _circuit(Gate("product", [x(0)]), dom=FP),
                       DomainMismatch, "gate 0: inner polynomial domain differs"),
    "expand-over-term-cap": (
        lambda: circuit.expand(_circuit(Gate("product", [x(0)]), Gate("product", [x(1)])),
                               term_cap=1),
        ExpansionTooLarge, "2 terms"),
    "negative-degree-slice": (
        lambda: circuit.homogeneous_component_circuit(_circuit(Gate("product", [x(0)])), -1),
        InvalidParams, "negative degree slice"),
    # domains
    "composite-modulus": (lambda: PrimeField(4), InvalidParams, "modulus 4 is not a prime"),
    "inverse-of-zero-Q": (lambda: Q.inv(0), ZeroDivisionError, "inverse of zero"),
    "inverse-of-zero-Fp": (lambda: FP.inv(FP.p), ZeroDivisionError, "inverse of zero"),
    "field-spec-not-an-object": (lambda: domains.domain_from_json("rational"),
                                 InvalidParams, "bad field spec"),
    "field-spec-unknown-type": (lambda: domains.domain_from_json({"type": "complex"}),
                                InvalidParams, "unknown field type 'complex'"),
    # measure
    "spec-empty": (lambda: measure.MeasureSpec.of([], 1),
                   InvalidParams, "derivative set must be nonempty"),
    "spec-negative-shift": (lambda: measure.MeasureSpec.of([((0, 1),)], -1),
                            InvalidParams, "shift degree must be >= 0"),
    # the dataclass constructor checks what `of` and `multilinear` check
    "spec-degree-not-the-derivatives": (
        lambda: measure.MeasureSpec(monomials=(((0, 1),),), shift_degree=1, degree=2),
        InvalidParams, "spec degree 2 is not the derivatives' degree 1"),
    "spec-constructor-negative-shift": (
        lambda: measure.MeasureSpec(monomials=(((0, 1),),), shift_degree=-1, degree=1),
        InvalidParams, "shift degree must be >= 0"),
    "spec-constructor-empty": (
        lambda: measure.MeasureSpec(monomials=(), shift_degree=1, degree=0),
        InvalidParams, "derivative set must be nonempty"),
    "spec-constructor-bad-derivative": (
        lambda: measure.MeasureSpec(monomials=(((0, 0),),), shift_degree=1, degree=0),
        InvalidParams, re.escape("derivative ((0, 0),) needs ascending variables")),
    "spec-multilinear-negative-degree": (lambda: measure._Multilinear(3, -1),
                                         InvalidParams, "derivative degree must be >= 0"),
    "spec-multilinear-above-nvars": (
        lambda: measure.MeasureSpec(measure._Multilinear(3, 4), shift_degree=0, degree=4),
        InvalidParams, "derivative set must be nonempty"),
    "spec-multilinear-degree-not-r": (
        lambda: measure.MeasureSpec(measure._Multilinear(3, 1), shift_degree=1, degree=2),
        InvalidParams, "spec degree 2 is not the derivatives' degree 1"),
    **{f"spec-derivative-{name}": (
        lambda gamma=gamma: measure.MeasureSpec.of([gamma], 1), InvalidParams,
        re.escape(f"derivative {gamma} needs ascending variables and exponents >= 1"))
       for name, gamma in _BAD_DERIVATIVES.items()},
    "measure-variable-out-of-range": (
        lambda: measure.psp_dimension(x(0, 3) * x(1, 3) + x(2, 3),
                                      measure.MeasureSpec.of([((7, 1),)], 1)),
        InvalidParams, "derivative variable 7 out of range for 3 variables"),
    "bound-negative-rank": (lambda: measure.circuit_measure_bound(1, 4, -1, 1, 0, 1, 0),
                            InvalidParams, "k and degree must be >= 0"),
    "bound-zero-fanin": (lambda: measure.circuit_measure_bound(0, 4, 1, 1, 0, 1, 0),
                         InvalidParams, "bound inputs out of range"),
    # nw
    "nw-degree-above-q": (lambda: nw.NWParams(2, 2, 3), InvalidParams, "need 0 <= e <= q"),
    "hard-poly-zero-p": (lambda: nw.HardPolyParams(nw.NWParams(2, 2, 1), 1, Fraction(0)),
                         InvalidParams, "need 0 < p <= 1"),
    "restriction-zero-p": (lambda: nw.sample_restriction(3, 0, 0),
                           InvalidParams, "need 0 < p <= 1"),
    "survival-no-trials": (lambda: nw.survival_experiment(
        nw.HardPolyParams(nw.NWParams(2, 2, 1), 1), 0, 0),
                           InvalidParams, "trials >= 1"),
    "instantiate-n-below-2": (lambda: nw.instantiate_parameters(1),
                              InvalidParams, "need n >= 2"),
    # pit
    "hitting-set-negative": (lambda: pit.hitting_set(2, -1, 1, FP),
                             InvalidParams, "must be nonnegative"),
    "oracle-no-rounds": (lambda: pit.schwartz_zippel_test(_circuit(Gate("product", [x(0)])),
                                                          rounds=0),
                         InvalidParams, "at least 1 round, got 0"),
    "pit-unknown-mode": (lambda: pit.pit_test(_circuit(Gate("product", [x(0)])),
                                              mode="exhaustive"),
                         InvalidParams, "unknown mode 'exhaustive'"),
    # algdep
    "rank-unknown-mode": (lambda: algdep.algebraic_rank([x(0)], mode="numeric"),
                          InvalidParams, "unknown rank mode 'numeric'"),
    "annihilator-empty-tuple": (lambda: algdep.find_annihilator([]),
                                InvalidParams, "empty tuple has no annihilator"),
    "annihilator-zero-cap": (lambda: algdep.find_annihilator([x(0)], cap=0),
                             InvalidParams, "cap must be >= 1"),
    **{f"{call}-basis-{name}": (
        lambda call=call, basis=basis: _DEPENDENCE_CALLS[call](basis), InvalidParams,
        re.escape(f"basis {basis} is not distinct indices into 3 polynomials"))
       for call in _DEPENDENCE_CALLS for name, basis in _BAD_BASES.items()},
    "translation-empty-tuple": (lambda: algdep.sample_good_translation([], ()),
                                InvalidParams, "empty tuple has no dependence"),
    "reconstruct-empty-tuple": (lambda: algdep.reconstruct_dependence([], (), ()),
                                InvalidParams, "empty tuple has no dependence"),
    **{f"newton-index-{i}": (
        lambda i=i: algdep.newton_reconstruct(_moment_curve(), (0,), (1,), i),
        InvalidParams, f"index {i} out of range for 3 polynomials") for i in (-1, 3)},
    # util
    "read-text-not-utf8": (_read_latin1, UnreadableInput, "latin1.txt: not UTF-8 text"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_public_refusal(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


_FIELDED = sorted((cls for cls in vars(errors).values() if isinstance(cls, type)
                   and issubclass(cls, errors.RankpitError) and cls.fields),
                  key=lambda cls: cls.__name__)


@pytest.mark.parametrize("cls", _FIELDED, ids=lambda cls: cls.__name__)
def test_a_fielded_error_survives_copy_and_pickle(cls):
    """A copy or an unpickled error has the same type, attributes, message
    and args as the one it was made from, and it is built from its fields
    alone."""
    values = [(i, i + 1) if name == "slot" else 10 + i for i, name in enumerate(cls.fields)]
    exc = cls(*values)
    assert vars(exc) == dict(zip(cls.fields, values))
    for twin in (copy.copy(exc), copy.deepcopy(exc), pickle.loads(pickle.dumps(exc))):
        assert type(twin) is cls
        assert (vars(twin), str(twin), twin.args) == (vars(exc), str(exc), exc.args)
    with pytest.raises(TypeError):
        cls(*values, 0)


def test_a_circuit_syntax_error_survives_copy_and_pickle():
    exc = errors.CircuitSyntaxError("unexpected token", 3, 7)
    for twin in (copy.copy(exc), pickle.loads(pickle.dumps(exc))):
        assert (str(twin), vars(twin)) == ("unexpected token at line 3, column 7",
                                           {"line": 3, "column": 7, "path": None})
