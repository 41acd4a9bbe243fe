"""Exception taxonomy shared by every module.

Callers are expected to catch these rather than bare ValueError when the
failure is geometric (bad point, degenerate metric, ...) rather than a
plain argument-contract violation.
"""


class FinslerError(Exception):
    """Base class for all library-specific failures."""


class DomainError(FinslerError):
    """A chart point lies outside the admissible domain (y = 0, excluded x, L <= 0)."""


class CapabilityError(FinslerError):
    """The request exceeds what the implementation supports (jet order, form degree)."""


class NumericalError(FinslerError):
    """A numerical procedure lost its footing (step underflow, non-finite values)."""


class SingularMetricError(FinslerError):
    """The fundamental tensor is singular or too ill-conditioned to invert."""


class DegenerateFieldError(FinslerError):
    """A field argument is degenerate where the operation needs it nonzero."""
