"""Altitude profiles of wind speed, air density and derived quantities.

Wind speed follows the logarithmic wind law of the neutral atmospheric
boundary layer; air density follows the isothermal barometric formula.
Both are steady: profiles vary with altitude but not with time.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from .errors import DomainError, ValidationError
from .frozen import Frozen

__all__ = ["Environment", "WindState", "wind_state_at", "bind_wind"]


class Environment(Frozen):
    """Site parameters of the wind and density profiles.

    Attributes:
        v_w_ref: Wind speed [m/s] measured at the reference altitude.
        z_ref: Reference altitude [m] of the wind measurement.
        z0: Aerodynamic roughness length [m].
        rho0: Air density [kg/m^3] at sea level.
        H_rho: Scale height [m] of the density decay.
    """

    _fields = ("v_w_ref", "z_ref", "z0", "rho0", "H_rho")
    # _log_z_ref is derived, not a field: out of ==, repr and replace(),
    # which recomputes it through __init__.
    __slots__ = _fields + ("_log_z_ref",)

    def __init__(self, v_w_ref: float, z_ref: float, z0: float, rho0: float = 1.225,
                 H_rho: float = 8550.0):
        super().__init__(v_w_ref, z_ref, z0, rho0, H_rho)
        if not math.inf > z_ref > z0 > 0.0:
            raise ValidationError(
                f"requires z_ref > z0 > 0, both finite, got z_ref={z_ref}, z0={z0}"
            )
        if not 0.0 <= v_w_ref < math.inf:
            raise ValidationError(
                f"reference wind speed must be >= 0 and finite, got {v_w_ref}")
        if not 0.0 < rho0 < math.inf:
            raise ValidationError(f"sea-level density must be > 0 and finite, got {rho0}")
        if not 0.0 < H_rho < math.inf:
            raise ValidationError(f"density scale height must be > 0 and finite, got {H_rho}")
        log_z_ref = math.log(z_ref / z0)  # inf where z_ref/z0 overflows, 0 where it rounds to 1
        if not 0.0 < log_z_ref < math.inf:
            raise ValidationError(f"log(z_ref/z0) must be finite and > 0, got z_ref={z_ref}, "
                                  f"z0={z0}")
        object.__setattr__(self, "_log_z_ref", log_z_ref)

    def wind_speed(self, z: float) -> float:
        """Wind speed [m/s] at altitude ``z`` by the logarithmic wind law."""
        if z < self.z0:
            raise DomainError(
                f"altitude {z} m is below the roughness length {self.z0} m; "
                "the log wind law is undefined there"
            )
        return self.log_wind_speed(z, self.v_w_ref)

    def log_wind_speed(self, z: float, v_ref: float) -> float:
        """Log wind law at altitude ``z`` scaled to the wind speed ``v_ref``
        measured at ``z_ref``; the caller keeps ``z`` at or above ``z0``."""
        return v_ref * math.log(z / self.z0) / self._log_z_ref

    def density(self, z: float) -> float:
        """Air density [kg/m^3] at altitude ``z`` (isothermal barometric decay)."""
        return self.rho0 * math.exp(-z / self.H_rho)


class WindState(NamedTuple):
    """Local flow conditions at one altitude, unchecked: the equilibrium
    functions check v_w >= 0 and rho > 0.  ``q`` (dynamic pressure) and
    ``P_w`` (wind power density) are derived from ``v_w`` and ``rho``.
    """

    v_w: float
    rho: float

    @property
    def q(self) -> float:
        return 0.5 * self.rho * self.v_w**2

    @property
    def P_w(self) -> float:
        return 0.5 * self.rho * self.v_w**3


def wind_state_at(z: float, env: Environment) -> WindState:
    """Evaluate the flow conditions at altitude ``z``.

    Raises:
        DomainError: if ``z`` lies below the roughness length.
    """
    return WindState(env.wind_speed(z), env.density(z))


def bind_wind(env: Environment) -> Callable[[float], tuple[float, float]]:
    """:func:`wind_state_at` as ``z -> (v_w, rho)``, a plain tuple, bound once per phase."""
    z0, v_w_ref, log_wind_speed, density = env.z0, env.v_w_ref, env.log_wind_speed, env.density

    def wind(z: float) -> tuple[float, float]:
        if z < z0:
            env.wind_speed(z)  # raises its DomainError
        return log_wind_speed(z, v_w_ref), density(z)
    return wind
