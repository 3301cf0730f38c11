"""Physical parameters of the deformation operator pi*(1 + (hbar/c)^2 d^2/dv^2).

An :class:`OperatorParams` value fixes one operator instance: the constants
hbar and c and the interval half-width v_c.  Every other module takes one of
these as its first argument.  The canonical (dimensionless) instance uses
hbar = c = 1 and pins v_c to the critical velocity c*sqrt(1 - 1/pi), the
point where the parabolic profile pi*(1 - v^2/c^2) drops to 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

#: v_c / c for the canonical interval, from pi*(1 - (v_c/c)^2) = 1.
CRITICAL_VELOCITY_RATIO = math.sqrt(1.0 - 1.0 / math.pi)

#: CODATA 2018 values, used only by :func:`si_params`.
SI_HBAR = 1.054571817e-34
SI_C = 2.99792458e8

_UNIT_MODES = ("dimensionless", "SI", "custom")


@dataclass(frozen=True)
class OperatorParams:
    """Immutable operator parameters; safe to share between threads."""

    hbar: float
    c: float
    v_c: float
    unit_mode: str = "custom"

    def __post_init__(self):
        if self.unit_mode not in _UNIT_MODES:
            raise ValidationError(f"unit_mode must be one of {_UNIT_MODES}")
        for name in ("hbar", "c", "v_c"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be positive")
        if not self.v_c < self.c:
            raise ValidationError("v_c must be < c")
        # the interval [-v_c, v_c] has width 2 v_c, and every mode scales by sqrt(1/v_c)
        if not (sys.float_info.min <= self.v_c and math.isfinite(2.0 * self.v_c)):
            raise ValidationError(f"v_c must be a normal float whose double is finite, got {self.v_c!r}")
        if self.unit_mode == "dimensionless":
            if self.hbar != 1.0 or self.c != 1.0:
                raise ValidationError("dimensionless mode requires hbar = c = 1")
            if abs(self.v_c - CRITICAL_VELOCITY_RATIO) > 1e-12 * CRITICAL_VELOCITY_RATIO:
                raise ValidationError("dimensionless mode requires v_c = sqrt(1 - 1/pi)")

    @property
    def hbar_over_c(self) -> float:
        """hbar/c, the only combination of hbar and c the operator depends on."""
        return self.hbar / self.c

    @property
    def gamma(self) -> float:
        """The single dimensionless group hbar/(c*v_c) controlling the spectrum."""
        return self.hbar_over_c / self.v_c


def canonical_params() -> OperatorParams:
    """Dimensionless-mode parameters: hbar = c = 1, v_c = sqrt(1 - 1/pi)."""
    return OperatorParams(1.0, 1.0, CRITICAL_VELOCITY_RATIO, "dimensionless")


def si_params() -> OperatorParams:
    """SI-unit parameters with the critical interval v_c = sqrt(1 - 1/pi)*c.

    Provided for the critical-index demonstration; the mode index where the
    spectrum changes sign is astronomically large in these units.
    """
    return OperatorParams(SI_HBAR, SI_C, CRITICAL_VELOCITY_RATIO * SI_C, "SI")


def custom_params(hbar: float, c: float, v_c: float) -> OperatorParams:
    """Validated parameters in custom mode (any positive hbar, c and v_c < c)."""
    return OperatorParams(float(hbar), float(c), float(v_c), "custom")


def _require_in_interval(params: OperatorParams, v) -> np.ndarray:
    """v as a float ndarray; raises :class:`DomainError` unless every |v| <= v_c, so NaN fails."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.abs(v) <= params.v_c):
        bad = float(v.flat[int(np.argmax(np.abs(v)))])
        raise DomainError(f"v = {bad!r} outside [-v_c, v_c] with v_c = {params.v_c!r}")
    return v


def deformation_profile(params: OperatorParams, v):
    """The parabolic profile pi*(1 - v^2/c^2), defined for |v| <= v_c.

    Accepts a scalar or ndarray; values lie in [1, pi] on the canonical
    interval.  Raises :class:`DomainError` for arguments outside it.
    """
    v = _require_in_interval(params, v)
    out = math.pi * (1.0 - (v / params.c) ** 2)
    return float(out) if out.ndim == 0 else out
