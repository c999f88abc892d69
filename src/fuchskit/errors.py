"""Typed errors shared across the package.

Every domain failure raises a subclass of FuchsKitError so callers (and the
CLI) can distinguish "the input is outside the computable theory" from a bug.
"""


class FuchsKitError(Exception):
    """Base class for all domain errors."""


class DivisionByZero(FuchsKitError):
    """Inversion of zero in a field."""


class NotRootOfUnity(FuchsKitError):
    """Element has infinite multiplicative order, so gamma_inverse is undefined."""


class NonRationalExponent(FuchsKitError):
    """An exponent/eigenvalue lies outside Q, beyond the computable image of gamma."""


class NonSquare(FuchsKitError):
    """Operation requires a square matrix."""


class EigenvalueNotFound(FuchsKitError):
    """Characteristic polynomial has a factor with no root in Q or in the
    roots of unity.  The search for such roots is exhaustive (the degree
    bounds their orders), so this is a certificate, not a missed search."""


class NotInvertibleOverA(FuchsKitError):
    """Determinant is not a unit of K[t,1/t]."""


class NotAUnit(FuchsKitError):
    """Expected a unit (c*t^m) of the Laurent ring."""


class DimensionMismatch(FuchsKitError):
    """Matrix/module dimensions are inconsistent."""


class DerivationMismatch(FuchsKitError):
    """Arithmetic mixing modules over different (twisted) derivations."""


class NotConstant(FuchsKitError):
    """Operation requires a connection matrix with entries in K; reduce via
    find_constant_form first."""


class ZeroEigenvalue(FuchsKitError):
    """Monodromy must be invertible."""


class LogObstruction(FuchsKitError):
    """partial + 0 is not surjective on K[t,1/t]: the image misses constants.

    Carries the offending constant term; the exponent-ring solver absorbs it
    into the next power of the symbolic logarithm.
    """

    def __init__(self, constant):
        super().__init__(f"constant-term obstruction {constant}")
        self.constant = constant


class NotFoundWithinBounds(FuchsKitError):
    """Bounded search exhausted; absence within bounds, not a proof of irregularity."""


class NotRegularWithinBounds(NotFoundWithinBounds):
    """No constant form was found within the search bounds."""


class MissingCandidates(FuchsKitError):
    """Exponent candidates are required when the default heuristic does not apply."""


class InputError(FuchsKitError):
    """Malformed JSON input (schema violation); CLI exit code 2."""
