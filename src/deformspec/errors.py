"""Exception types shared across the library.

The CLI maps these onto exit codes: validation-style errors (bad inputs,
under-resolved grids, malformed files) exit 2, numerical failures exit 3.
"""


class DeformSpecError(Exception):
    """Base class for all library errors."""


class ValidationError(DeformSpecError):
    """An argument violates a documented precondition."""


class DomainError(DeformSpecError):
    """A velocity argument lies outside [-v_c, v_c]."""


class ResolutionError(DeformSpecError):
    """A grid or quadrature rule is too coarse for the requested mode."""


class FormatError(DeformSpecError):
    """A serialized input file does not match its schema."""


class NumericalError(DeformSpecError):
    """An iterative numerical procedure failed to converge."""


class ConditioningWarning(UserWarning):
    """Result is computable but poorly conditioned (e.g. clustered eigenvalues)."""
