"""Instantaneous force/velocity equilibria of the tethered kite.

Two solution routes are provided.  For a massless system the equilibrium
has a closed form: the kinematic ratio (tangential over radial apparent
wind) equals the system lift-to-drag ratio, and tether force, flight
speed and power follow directly.  With airborne mass the aerodynamic
force must additionally balance the tangential component of gravity, the
kinematic ratio becomes an unknown, and a fixed-point iteration updates
it until the lift-to-drag ratio implied by the force/velocity geometry
matches the target value.

Tether drag is lumped into the kite drag coefficient (one fourth of the
tether drag area), and the tether weight is split between a radial term
lumped with the kite weight and a sag-induced tangential reaction at the
suspension points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, NamedTuple, Optional

from scipy.optimize import brentq

from .atmosphere import WindState
from .errors import (
    NoSolutionError,
    NoTensionError,
    SetpointUnreachableError,
    SteadyStateError,
    TetherSagError,
    ValidationError,
)

__all__ = [
    "GRAVITY",
    "AeroSet",
    "TetherParams",
    "KiteParams",
    "KiteState",
    "EffectiveAero",
    "EquilibriumResult",
    "TetherProperties",
    "GroundForce",
    "tether_properties",
    "effective_aero",
    "massless_state",
    "reel_factor_for_force_massless",
    "ground_tether_force",
    "solve_kinematic_ratio",
    "reel_factor_for_force_gravity",
]

GRAVITY = 9.81  # m/s^2


@dataclass(frozen=True)
class AeroSet:
    """Constant aerodynamic coefficients of the wing for one phase.

    Attributes:
        C_L: Lift coefficient.
        LD_k: Lift-to-drag ratio of the kite alone (tether excluded).
    """

    C_L: float
    LD_k: float

    def __post_init__(self):
        if self.C_L <= 0.0 or self.LD_k <= 0.0:
            raise ValidationError(f"aero set requires C_L > 0 and LD_k > 0, got {self}")

    @property
    def C_D_k(self) -> float:
        """Drag coefficient of the kite alone."""
        return self.C_L / self.LD_k


@dataclass(frozen=True)
class TetherParams:
    """Tether geometry and material.

    Attributes:
        d_t: Diameter [m].
        rho_t: Effective material density [kg/m^3] (braiding included).
        C_D_c: Drag coefficient of a cylinder in cross flow.
    """

    d_t: float
    rho_t: float
    C_D_c: float = 1.1

    def __post_init__(self):
        if self.d_t <= 0.0 or self.rho_t <= 0.0 or self.C_D_c <= 0.0:
            raise ValidationError(f"tether parameters must be positive, got {self}")

    def mass(self, r: float) -> float:
        """Mass [kg] of ``r`` metres of tether: cylinder volume times density."""
        return self.rho_t * 0.25 * math.pi * self.d_t**2 * r


@dataclass(frozen=True)
class KiteParams:
    """Wing geometry, airborne mass, and the per-phase aerodynamic sets.

    ``m`` is the total airborne point mass: wing plus control unit.
    """

    S: float
    m: float
    aero_traction: AeroSet
    aero_retraction: AeroSet

    def __post_init__(self):
        if self.S <= 0.0:
            raise ValidationError(f"projected wing area must be > 0, got {self.S}")
        if self.m < 0.0:
            raise ValidationError(f"airborne mass must be >= 0, got {self.m}")


@dataclass(frozen=True)
class KiteState:
    """Kinematic state of the kite at one instant.

    Attributes:
        r: Tether length [m].
        theta: Polar angle [rad], measured from zenith.  A negative value
            represents a kite that has overflown the ground station in
            the phi-plane (elevation beyond 90 deg); the spherical force
            and velocity relations remain valid there.
        phi: Azimuth [rad] relative to the downwind direction.
        chi: Course angle [rad] in the tangential plane; 0 points toward
            increasing polar angle (downward), pi points upward.
        f: Reeling factor, tether speed over wind speed at the kite.
    """

    r: float
    theta: float
    phi: float
    chi: float
    f: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValidationError(f"tether length must be > 0, got {self.r}")
        if not -0.5 * math.pi < self.theta < math.pi:
            raise ValidationError(f"polar angle must be in (-pi/2, pi), got {self.theta}")

    @property
    def beta(self) -> float:
        """Elevation angle [rad] above the horizon."""
        return 0.5 * math.pi - self.theta


@dataclass(frozen=True)
class EffectiveAero:
    """Aerodynamic coefficients of the airborne system: kite plus lumped
    tether drag."""

    C_L: float
    C_D: float

    def __post_init__(self):
        if self.C_L <= 0.0 or self.C_D <= 0.0:
            raise ValidationError(f"effective coefficients must be positive, got {self}")

    @property
    def LD(self) -> float:
        return self.C_L / self.C_D

    @property
    def C_R(self) -> float:
        """Resultant force coefficient."""
        return math.hypot(self.C_D, self.C_L)


@dataclass(frozen=True)
class EquilibriumResult:
    """Solved quasi-steady state.

    Attributes:
        kappa: Kinematic ratio, tangential over radial apparent wind.
        lam: Tangential velocity factor, kite tangential speed over wind speed.
        v_a: Apparent wind speed [m/s].
        F_a: Resultant aerodynamic force [N].
        F_a_r: Radial component of the aerodynamic force [N].
        F_a_theta: Polar-tangential component of the aerodynamic force [N].
        F_t_kite: Tether force magnitude at the kite [N].
        F_tg: Tether force at the ground station [N].
        zeta: Instantaneous power harvesting factor P/(P_w*S).
        P: Mechanical power at the ground [W], negative while reeling in.
        converged: Whether the kinematic-ratio iteration met its tolerance.
        iterations: Number of fixed-point iterations used (0 for closed form).
    """

    kappa: float
    lam: float
    v_a: float
    F_a: float
    F_a_r: float
    F_a_theta: float
    F_t_kite: float
    F_tg: float
    zeta: float
    P: float
    converged: bool
    iterations: int


class TetherProperties(NamedTuple):
    m_t: float
    C_D_total: float


class GroundForce(NamedTuple):
    F_tg: float
    gamma: float


def tether_properties(
    r: float, tether: TetherParams, kite: KiteParams, aero: AeroSet
) -> TetherProperties:
    """Deployed tether mass and total system drag coefficient at length ``r``.

    One fourth of the tether drag area ``d_t*r`` is added to the kite drag
    area; the mass is the full cylinder volume times material density.
    """
    if r <= 0.0:
        raise ValidationError(f"tether length must be > 0, got {r}")
    m_t = tether.mass(r)
    C_D_total = aero.C_D_k + 0.25 * (tether.d_t * r / kite.S) * tether.C_D_c
    return TetherProperties(m_t=m_t, C_D_total=C_D_total)


def effective_aero(
    r: float, tether: TetherParams, kite: KiteParams, aero: AeroSet
) -> EffectiveAero:
    """System coefficients (kite plus tether drag) at tether length ``r``."""
    return EffectiveAero(C_L=aero.C_L, C_D=tether_properties(r, tether, kite, aero).C_D_total)


def _trig(state: KiteState) -> tuple[float, float]:
    """Trigonometric coefficients (a, b) of the tangential-speed quadratic."""
    sin_t, cos_t = math.sin(state.theta), math.cos(state.theta)
    sin_p, cos_p = math.sin(state.phi), math.cos(state.phi)
    a = cos_t * cos_p * math.cos(state.chi) - sin_p * math.sin(state.chi)
    b = sin_t * cos_p
    return a, b


def massless_state(
    state: KiteState, aero: EffectiveAero, wind: WindState, S: float
) -> EquilibriumResult:
    """Closed-form equilibrium for a massless kite and tether.

    The kinematic ratio equals the system lift-to-drag ratio, the
    aerodynamic force is purely radial and equal to the tether force at
    both ends.

    Raises:
        NoTensionError: if the reeling factor reaches sin(theta)*cos(phi),
            where the tether would have to push.
        NoSolutionError: if the tangential velocity factor has no real
            non-negative solution.
    """
    a, b = _trig(state)
    if state.f >= b:
        raise NoTensionError(
            f"reeling factor {state.f:.4f} >= sin(theta)*cos(phi) = {b:.4f}"
        )
    G = aero.LD
    radicand = a * a + b * b - 1.0 + G * G * (b - state.f) ** 2
    if radicand < 0.0:
        raise NoSolutionError("tangential velocity factor has no real solution")
    lam = a + math.sqrt(radicand)
    if lam < 0.0:
        raise NoSolutionError(f"tangential velocity factor is negative ({lam:.4f})")
    v_a = (b - state.f) * math.sqrt(1.0 + G * G) * wind.v_w
    F_t = wind.q * S * aero.C_R * (1.0 + G * G) * (b - state.f) ** 2
    P = F_t * state.f * wind.v_w
    zeta = aero.C_R * (1.0 + G * G) * state.f * (b - state.f) ** 2
    return EquilibriumResult(
        kappa=G,
        lam=lam,
        v_a=v_a,
        F_a=F_t,
        F_a_r=F_t,
        F_a_theta=0.0,
        F_t_kite=F_t,
        F_tg=F_t,
        zeta=zeta,
        P=P,
        converged=True,
        iterations=0,
    )


def reel_factor_for_force_massless(
    F_target: float, state: KiteState, aero: EffectiveAero, wind: WindState, S: float
) -> float:
    """Reeling factor that produces tether force ``F_target`` (massless).

    Inverts the normalised tether-force relation; the smaller quadratic
    root is taken since the larger one corresponds to a compressed
    tether.  Large targets give a negative factor, i.e. reeling in.
    """
    if F_target <= 0.0:
        raise ValidationError(f"force target must be > 0, got {F_target}")
    if wind.v_w <= 0.0:
        raise ValidationError("force inversion requires a positive wind speed")
    _, b = _trig(state)
    G = aero.LD
    scale = wind.q * S * aero.C_R * (1.0 + G * G)
    return b - math.sqrt(F_target / scale)


def ground_tether_force(F_t_kite: float, theta: float, m_t: float) -> GroundForce:
    """Tether force at the ground station given the force at the kite.

    The sag-induced tangential reaction at each suspension point is half
    the tether weight projected on the tangential direction; the ground
    radial component additionally carries the vertical projection of the
    tether weight.  Also returns ``gamma``, the tether weight over the
    kite-end tension, as a sag-significance diagnostic.

    Raises:
        TetherSagError: if half the tether weight exceeds the kite-end
            tension, outside the moderate-sagging validity range.
    """
    F_t_tau = 0.5 * math.sin(theta) * m_t * GRAVITY
    if F_t_kite <= abs(F_t_tau):
        raise TetherSagError(
            f"kite tension {F_t_kite:.1f} N does not exceed the sag reaction "
            f"{abs(F_t_tau):.1f} N"
        )
    radial_kite = math.sqrt(F_t_kite**2 - F_t_tau**2)
    radial_ground = radial_kite - math.cos(theta) * m_t * GRAVITY
    F_tg = math.hypot(radial_ground, F_t_tau)
    gamma = m_t * GRAVITY / F_t_kite
    return GroundForce(F_tg=F_tg, gamma=gamma)


def solve_kinematic_ratio(
    state: KiteState,
    kite: KiteParams,
    m_t: float,
    aero: EffectiveAero,
    wind: WindState,
    tol: float = 1e-6,
    max_iter: int = 100,
) -> EquilibriumResult:
    """Quasi-steady equilibrium including gravity on kite and tether.

    Fixed-point iteration on the kinematic ratio kappa: starting from the
    massless value (the system lift-to-drag ratio G*), each pass computes
    the apparent wind and aerodynamic force components for the current
    kappa, evaluates the implied lift-to-drag ratio G from the drag
    projection, and updates kappa by sqrt(G*/G) until G matches G* to
    ``tol`` (relative).

    Raises:
        NoTensionError: if the reeling factor leaves no radial apparent wind.
        SteadyStateError: if no quasi-steady solution exists (iteration
            diverges, kappa leaves (0, 50*G*], the radial force component
            turns imaginary, or the tangential speed is invalid).
    """
    a, b = _trig(state)
    if state.f >= b:
        raise NoTensionError(
            f"reeling factor {state.f:.4f} >= sin(theta)*cos(phi) = {b:.4f}"
        )
    if m_t < 0.0:
        raise ValidationError(f"tether mass must be >= 0, got {m_t}")
    if wind.v_w <= 0.0:
        raise ValidationError("the quasi-steady equilibrium requires a positive wind speed")

    G_star = aero.LD
    C_R = aero.C_R
    sin_t, cos_t = math.sin(state.theta), math.cos(state.theta)
    sin_p, cos_p = math.sin(state.phi), math.cos(state.phi)
    sin_c, cos_c = math.sin(state.chi), math.cos(state.chi)
    v_w = wind.v_w
    b_f = b - state.f
    force_scale = wind.q * kite.S * C_R * b_f * b_f
    F_a_theta = -(0.5 * m_t + kite.m) * GRAVITY * sin_t
    kappa_max = 50.0 * G_star

    kappa = G_star
    lam = v_a = F_a = F_a_r = math.nan
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        one_k2 = 1.0 + kappa * kappa
        radicand = a * a + b * b - 1.0 + kappa * kappa * b_f * b_f
        if radicand < 0.0:
            raise SteadyStateError("tangential velocity factor has no real solution")
        lam = a + math.sqrt(radicand)
        v_a = b_f * math.sqrt(one_k2) * v_w
        F_a = force_scale * one_k2
        fr2 = F_a * F_a - F_a_theta * F_a_theta
        if fr2 < 0.0:
            raise SteadyStateError(
                "aerodynamic force is too small to balance the tangential "
                "gravity component"
            )
        F_a_r = math.sqrt(fr2)

        # Drag is the projection of the aerodynamic force on the apparent wind.
        va_r = b_f * v_w
        va_th = (cos_t * cos_p - lam * cos_c) * v_w
        va_ph = (-sin_p - lam * sin_c) * v_w
        v_a_norm = math.sqrt(va_r * va_r + va_th * va_th + va_ph * va_ph)
        drag = (F_a_r * va_r + F_a_theta * va_th) / v_a_norm
        if drag <= 0.0:
            raise SteadyStateError("drag projection is non-positive; gravity "
                                   "dominates the flight direction")
        ratio2 = (F_a / drag) ** 2 - 1.0
        if ratio2 <= 0.0:
            raise SteadyStateError("force geometry implies a non-positive "
                                   "lift-to-drag ratio")
        G = math.sqrt(ratio2)

        if abs(G - G_star) / G_star <= tol:
            converged = True
            break
        kappa *= math.sqrt(G_star / G)
        if not kappa > 1e-9 or kappa > kappa_max:
            raise SteadyStateError(
                f"kinematic ratio left the admissible range (0, {kappa_max:.1f}]"
            )
    if not converged:
        raise SteadyStateError(f"no convergence within {max_iter} iterations")
    if lam < 0.0:
        raise SteadyStateError(f"converged to a negative tangential velocity "
                               f"factor ({lam:.4f})")

    # Tether force at the kite: aerodynamic force plus kite weight, expressed
    # in spherical components; the theta component reduces to the sag reaction.
    F_t_r = F_a_r - kite.m * GRAVITY * cos_t
    F_t_theta = F_a_theta + kite.m * GRAVITY * sin_t  # = -sin_t*m_t*g/2
    F_t_kite = math.hypot(F_t_r, F_t_theta)
    F_tg, _ = ground_tether_force(F_t_kite, state.theta, m_t)
    P = F_tg * state.f * v_w
    zeta = P / (wind.P_w * kite.S)
    return EquilibriumResult(
        kappa=kappa,
        lam=lam,
        v_a=v_a,
        F_a=F_a,
        F_a_r=F_a_r,
        F_a_theta=F_a_theta,
        F_t_kite=F_t_kite,
        F_tg=F_tg,
        zeta=zeta,
        P=P,
        converged=converged,
        iterations=iterations,
    )


TargetEnd = Literal["kite", "ground"]

# Failures that merely mark a bracket endpoint as outside the solvable region.
_BRACKET_FAILURES = (SteadyStateError, NoTensionError, TetherSagError)


def _force_at_end(result: EquilibriumResult, target_end: TargetEnd) -> float:
    return result.F_t_kite if target_end == "kite" else result.F_tg


def _solve_reel_factor(
    F_target: float,
    target_end: TargetEnd,
    state: KiteState,
    kite: KiteParams,
    m_t: float,
    aero: EffectiveAero,
    wind: WindState,
    f_lo: float = -3.0,
    eps: float = 1e-6,
    hint: Optional[float] = None,
) -> tuple[float, EquilibriumResult]:
    """Root-find the reeling factor for a force set-point, with gravity.

    The tether force decreases monotonically with the reeling factor, so a
    sign change of force minus target brackets the root.  A warm bracket
    around ``hint`` is tried first; otherwise the full bracket
    [f_lo, sin(theta)*cos(phi) - eps] is used, shrinking the upper end to
    the boundary of solver validity when the equilibrium ceases to exist
    there (the aerodynamic force cannot drop below the tangential gravity
    load).
    """
    if F_target <= 0.0:
        raise ValidationError(f"force target must be > 0, got {F_target}")
    if target_end not in ("kite", "ground"):
        raise ValidationError(f"force target end must be 'kite' or 'ground', got {target_end!r}")
    _, b = _trig(state)
    f_hi = b - eps
    if f_lo >= f_hi:
        raise ValidationError(f"empty reel-factor bracket [{f_lo}, {f_hi}]")

    def residual(f: float) -> float:
        res = solve_kinematic_ratio(replace(state, f=f), kite, m_t, aero, wind)
        return _force_at_end(res, target_end) - F_target

    if hint is not None:
        half_width = 0.05
        lo = max(f_lo, hint - half_width)
        hi = min(f_hi, hint + half_width)
        if lo < hi:
            try:
                r_lo, r_hi = residual(lo), residual(hi)
            except _BRACKET_FAILURES:
                r_lo = r_hi = None
            if r_lo is not None and r_lo >= 0.0 >= r_hi:
                f_root = brentq(residual, lo, hi, xtol=1e-12)
                eq = solve_kinematic_ratio(replace(state, f=f_root), kite, m_t, aero, wind)
                return f_root, eq

    try:
        r_lo = residual(f_lo)
    except _BRACKET_FAILURES as exc:
        raise SteadyStateError(
            f"no quasi-steady solution at the lower bracket end f={f_lo}: {exc}"
        ) from exc
    if r_lo < 0.0:
        raise SetpointUnreachableError(
            f"force {F_target:.1f} N exceeds the maximum achievable "
            f"{r_lo + F_target:.1f} N at f={f_lo}"
        )

    try:
        r_hi = residual(f_hi)
        hi = f_hi
    except _BRACKET_FAILURES:
        # The equilibrium ceases to exist before f reaches b; bisect toward
        # the largest reeling factor that still solves.
        good, bad = f_lo, f_hi
        for _ in range(80):
            mid = 0.5 * (good + bad)
            try:
                r_mid = residual(mid)
            except _BRACKET_FAILURES:
                bad = mid
            else:
                good = mid
            if bad - good < 1e-12:
                break
        hi = good
        r_hi = residual(hi)
    if r_hi > 0.0:
        raise SetpointUnreachableError(
            f"force {F_target:.1f} N is below the minimum achievable "
            f"{r_hi + F_target:.1f} N near f={hi:.4f}"
        )

    f_root = brentq(residual, f_lo, hi, xtol=1e-12)
    eq = solve_kinematic_ratio(replace(state, f=f_root), kite, m_t, aero, wind)
    return f_root, eq



def reel_factor_for_force_gravity(
    F_target: float,
    target_end: TargetEnd,
    state: KiteState,
    kite: KiteParams,
    m_t: float,
    aero: EffectiveAero,
    wind: WindState,
    f_lo: float = -3.0,
) -> float:
    """Reeling factor whose gravity-including equilibrium carries
    ``F_target`` at the requested tether end.

    Raises:
        SetpointUnreachableError: if no sign change exists in the bracket.
        SteadyStateError: if the equilibrium solver fails where a solution
            is required.
    """
    f_root, _ = _solve_reel_factor(F_target, target_end, state, kite, m_t, aero, wind, f_lo=f_lo)
    return f_root
