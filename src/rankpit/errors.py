"""Structured exception types shared across the package.

Every error the library raises deliberately derives from RankpitError and
carries the data a caller needs to react (offending gate, exact set size,
retry count, ...) as attributes, so the CLI can render them as structured
reports instead of bare strings.
"""

from __future__ import annotations


class RankpitError(Exception):
    """Base class for all structured errors raised by this package.

    A subclass with attributes names them once, in `fields`, and words its
    message as `template`, formatted with them.  It is built from the field
    values in that order, and they are its `args`, so copy and pickle
    rebuild it."""

    fields: tuple = ()
    template = ""

    def __init__(self, *args):
        if self.fields and len(args) != len(self.fields):
            raise TypeError(f"{type(self).__name__} takes {', '.join(self.fields)}")
        super().__init__(*args)
        for name, value in zip(self.fields, args):
            setattr(self, name, value)

    def __str__(self):
        return self.template.format(**vars(self)) if self.fields else super().__str__()


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
    fields = ("terms", "cap")
    template = "expansion reached {terms} terms, cap is {cap}"


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
    fields = ("file", "reason")
    template = "cannot read {file}: {reason}"


class UnwritableOutput(RankpitError):
    """An output file could not be written."""
    fields = ("file", "reason")
    template = "cannot write {file}: {reason}"


class BoundViolation(RankpitError):
    """A declared circuit bound does not hold."""
    fields = ("gate", "bound", "declared", "actual")
    template = "gate {gate}: declared {bound}={declared} but actual value is {actual}"


class FieldTooSmall(RankpitError):
    """The field cannot supply the scalar set an operation requires."""


class CharacteristicTooSmall(RankpitError):
    """The Jacobian rank criterion needs char 0 or p above the degree product."""


class RankNotCertified(RankpitError):
    """No Jacobian point's rank was confirmed by checked annihilators."""
    fields = ("attempts",)
    template = "rank not certified at {attempts} Jacobian points"


class NoAnnihilatorWithinCap(RankpitError):
    """No annihilating polynomial exists up to the degree cap."""
    fields = ("cap",)
    template = "no annihilator of total degree <= {cap}"


class NoGoodTranslation(RankpitError):
    """Translation sampling exhausted its retries."""
    fields = ("retries",)
    template = "no good translation found in {retries} samples"


class NoSolutionWithinCap(RankpitError):
    """Dependence reconstruction found no witness up to the target's degree."""
    fields = ("index", "cap")
    template = ("no functional-dependence witness of degree <= {cap} for polynomial {index}"
                " (bad translation; resample the translation)")


class DerivativeVanishes(RankpitError):
    """The root-lifting derivative vanishes at the translation: not a good point."""


class NonConvergence(RankpitError):
    """Newton lifting failed to reproduce the target series (bug trap)."""


class MatrixTooLarge(RankpitError):
    """The measure matrix exceeds the configured cell cap."""
    fields = ("cells", "cap")
    template = "measure matrix needs {cells} cells, cap is {cap}"


class HypothesisViolated(RankpitError):
    """A closed-form bound was queried outside its hypothesis m + r*s <= N/2."""


class InvalidParams(RankpitError):
    """Parameters violate a documented invariant."""


class SlotDied(RankpitError):
    """A restriction killed every variable of one linear-form slot."""
    fields = ("slot",)
    template = "slot {slot} has no alive variable"


class SetTooLarge(RankpitError):
    """An explicit point set would exceed the configured cap; size is exact."""
    fields = ("size", "cap")
    template = "hitting set would contain {size} points, cap is {cap}"
