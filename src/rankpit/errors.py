"""Structured exception types shared across the package.

Every error the library raises deliberately derives from RankpitError and
carries the data a caller needs to react (offending gate, exact set size,
retry count, ...) as attributes, so the CLI can render them as structured
reports instead of bare strings.
"""

from __future__ import annotations


class RankpitError(Exception):
    """Base class for all structured errors raised by this package."""


class ZeroPolynomial(RankpitError):
    """An operation that needs a nonzero polynomial received zero."""


class DimensionMismatch(RankpitError):
    """A point's length does not match the variable count."""


class ArityMismatch(RankpitError):
    """Composition arity does not match the outer polynomial's variables."""


class DomainMismatch(RankpitError):
    """Operands live in different coefficient domains."""


class ExpansionTooLarge(RankpitError):
    """An expansion exceeded the configured term cap."""

    def __init__(self, terms: int, cap: int):
        super().__init__(f"expansion reached {terms} terms, cap is {cap}")
        self.terms = terms
        self.cap = cap


class CircuitSyntaxError(RankpitError):
    """Malformed circuit/polynomial file; carries location when known."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None, path: str | None = None):
        loc = ""
        if line is not None:
            loc = f" at line {line}, column {column}"
        elif path:
            loc = f" at {path}"
        super().__init__(message + loc)
        self.line = line
        self.column = column
        self.path = path


class UnreadableInput(RankpitError):
    """An input file could not be opened or decoded as UTF-8 text."""

    def __init__(self, file: str, reason: str):
        super().__init__(f"cannot read {file}: {reason}")
        self.file = file
        self.reason = reason


class UnwritableOutput(RankpitError):
    """An output file could not be written."""

    def __init__(self, file: str, reason: str):
        super().__init__(f"cannot write {file}: {reason}")
        self.file = file
        self.reason = reason


class BoundViolation(RankpitError):
    """A declared circuit bound does not hold."""

    def __init__(self, gate: int, bound: str, declared, actual):
        super().__init__(
            f"gate {gate}: declared {bound}={declared} but actual value is {actual}")
        self.gate = gate
        self.bound = bound
        self.declared = declared
        self.actual = actual


class FieldTooSmall(RankpitError):
    """The field cannot supply the scalar set an operation requires."""


class CharacteristicTooSmall(RankpitError):
    """The Jacobian rank criterion needs char 0 or p above the degree product."""


class RankNotCertified(RankpitError):
    """No Jacobian point's rank was confirmed by checked annihilators."""

    def __init__(self, attempts: int):
        super().__init__(f"rank not certified at {attempts} Jacobian points")
        self.attempts = attempts


class NoAnnihilatorWithinCap(RankpitError):
    """No annihilating polynomial exists up to the degree cap."""

    def __init__(self, cap: int):
        super().__init__(f"no annihilator of total degree <= {cap}")
        self.cap = cap


class NoGoodTranslation(RankpitError):
    """Translation sampling exhausted its retries."""

    def __init__(self, retries: int):
        super().__init__(f"no good translation found in {retries} samples")
        self.retries = retries


class NoSolutionWithinCap(RankpitError):
    """Dependence reconstruction found no witness up to the target's degree."""

    def __init__(self, index: int, cap: int):
        super().__init__(
            f"no functional-dependence witness of degree <= {cap} for polynomial {index}"
            " (bad translation; resample the translation)")
        self.index = index
        self.cap = cap


class DerivativeVanishes(RankpitError):
    """The root-lifting derivative vanishes at the translation: not a good point."""


class NonConvergence(RankpitError):
    """Newton lifting failed to reproduce the target series (bug trap)."""


class MatrixTooLarge(RankpitError):
    """The measure matrix exceeds the configured cell cap."""

    def __init__(self, cells: int, cap: int):
        super().__init__(f"measure matrix needs {cells} cells, cap is {cap}")
        self.cells = cells
        self.cap = cap


class HypothesisViolated(RankpitError):
    """A closed-form bound was queried outside its hypothesis m + r*s <= N/2."""


class InvalidParams(RankpitError):
    """Parameters violate a documented invariant."""


class SlotDied(RankpitError):
    """A restriction killed every variable of one linear-form slot."""

    def __init__(self, slot: tuple[int, int]):
        super().__init__(f"slot {slot} has no alive variable")
        self.slot = slot


class SetTooLarge(RankpitError):
    """An explicit point set would exceed the configured cap; size is exact."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"hitting set would contain {size} points, cap is {cap}")
        self.size = size
        self.cap = cap
