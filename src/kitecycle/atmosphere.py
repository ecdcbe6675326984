"""Altitude profiles of wind speed, air density and derived quantities.

Wind speed follows the logarithmic wind law of the neutral atmospheric
boundary layer; air density follows the isothermal barometric formula.
Both are steady: profiles vary with altitude but not with time.  Both are
written once, in the closure :func:`bind_wind` binds to an environment,
which maps an altitude to ``(v_w, rho)`` in one call; the simulator and the
estimator bind it once per phase or series, and the other entry points
bind it per call.
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

    __slots__ = _fields = ("v_w_ref", "z_ref", "z0", "rho0", "H_rho")

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
        # The log is inf where z_ref/z0 overflows, 0 where it rounds to 1.
        if not 0.0 < math.log(z_ref / z0) < math.inf:
            raise ValidationError(f"log(z_ref/z0) must be finite and > 0, got z_ref={z_ref}, "
                                  f"z0={z0}")


class WindState(NamedTuple):
    """Local flow conditions at one altitude, unchecked: the equilibrium
    functions check v_w >= 0 and rho > 0.  ``P_w`` (wind power density) is
    derived from ``v_w`` and ``rho``.
    """

    v_w: float
    rho: float

    @property
    def P_w(self) -> float:
        return 0.5 * self.rho * self.v_w**3


def wind_state_at(z: float, env: Environment) -> WindState:
    """Evaluate the flow conditions at altitude ``z``.

    Raises:
        DomainError: if ``z`` lies below the roughness length.
    """
    return WindState(*bind_wind(env)(z))


def bind_wind(env: Environment) -> Callable[..., tuple[float, float]]:
    """:func:`wind_state_at` as ``(z, v_ref=v_w_ref) -> (v_w, rho)``, a plain
    tuple, with the wind law scaled to the wind speed ``v_ref`` measured at
    ``z_ref``; it raises the DomainError of an altitude below ``z0``."""
    z0, v_w_ref, rho0, H_rho = env.z0, env.v_w_ref, env.rho0, env.H_rho
    log_z_ref = math.log(env.z_ref / z0)

    def wind(z: float, v_ref: float = v_w_ref) -> tuple[float, float]:
        if z < z0:
            raise DomainError(f"altitude {z} m is below the roughness length {z0} m; "
                              "the log wind law is undefined there")
        return v_ref * math.log(z / z0) / log_z_ref, rho0 * math.exp(-z / H_rho)
    return wind
