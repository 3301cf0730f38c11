"""Exception types shared across the library, and `_finite`, the one overflow check.

The CLI maps these onto exit codes: validation-style errors (bad inputs,
under-resolved grids, malformed files) exit 2, numerical failures exit 3.
"""

import numpy as np


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
    """A result is not finite (most often a float overflow), or an iteration failed to converge."""


class ConditioningWarning(UserWarning):
    """Result is computable but poorly conditioned (e.g. clustered eigenvalues)."""


def _finite(compute, message: str):
    """compute() with numpy's floating-point errors ignored, returned unchanged
    when every value is finite; raises :class:`NumericalError` (message)
    otherwise.  A Python OverflowError or ZeroDivisionError reads as inf."""
    try:
        with np.errstate(all="ignore"):
            value = compute()
    except (OverflowError, ZeroDivisionError):
        value = np.inf
    if not np.all(np.isfinite(value)):
        raise NumericalError(message)
    return value
