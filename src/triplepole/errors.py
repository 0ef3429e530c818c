"""Exception hierarchy shared by every layer of the package."""

from __future__ import annotations


class TriplePoleError(Exception):
    """Base class for all errors raised by this package."""


class ModelMismatchError(TriplePoleError):
    """Operands belong to different label models and cannot be combined."""


class UnsupportedOperationError(TriplePoleError):
    """The label model does not implement the requested operation."""


class PreconditionError(TriplePoleError):
    """A documented input precondition was violated."""


class UnsupportedModulusError(PreconditionError):
    """Modulus outside the supported class (even norm, zero, ...)."""


class RelationValidationError(TriplePoleError):
    """Declared matching relations fail a structural check.

    `diagnostics` is a list of RelationDiagnostic values describing each
    violated constraint.
    """

    def __init__(self, message: str, diagnostics: list | None = None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class InvariantViolationError(TriplePoleError):
    """An internal consistency invariant failed; indicates a bug upstream."""


class IndeterminatePoleError(TriplePoleError):
    """Numerical pole test landed between the accept and reject thresholds.

    Carries the measured `ratio` and, when raised while assembling a triple
    estimate, the offending `pair` of shift indices.
    """

    def __init__(self, message: str, ratio: float, pair: tuple | None = None):
        super().__init__(message)
        self.ratio = ratio
        self.pair = pair


class ConfigError(TriplePoleError):
    """Run configuration failed schema or semantic validation."""
