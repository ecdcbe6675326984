"""Instantaneous force/velocity equilibria of the tethered kite.

Two solution routes are provided.  For a massless system the equilibrium
has a closed form: the kinematic ratio (tangential over radial apparent
wind) equals the system lift-to-drag ratio, and tether force, flight
speed and power follow directly.  With airborne mass the aerodynamic
force must additionally balance the tangential component of gravity, and
the kinematic ratio becomes the root at which the lift-to-drag ratio
implied by the force/velocity geometry matches the target value.

One iteration serves both searches: a Broyden (1965) quasi-Newton
iteration over (log kappa, f), given the force geometry of a flight state
by one function.  The kinematic ratio at a given reeling factor is its
one-dimensional case, a secant on log kappa from the massless solution,
with an in-house Illinois bracketing fallback.  A force set-point is met
by solving the kinematic ratio and the reeling factor together,
warm-started from the previous step's solution and Jacobian, with
bracketing of the reeling factor over nested kinematic-ratio solves as
the fallback.  This is a change to the solver, not to the model.  A
solve that fails names why no root exists; it never fails for running
out of iterations.

Tether drag is lumped into the kite drag coefficient (one fourth of the
tether drag area), and the tether weight is split between a radial term
lumped with the kite weight and a sag-induced tangential reaction at the
suspension points.

The per-step values are NamedTuples that check nothing; each public
equilibrium function checks its inputs first, in :func:`_trig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Optional

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
    "tether_properties",
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
        # A product, so that it gives inf where mass()'s d_t**2 raises OverflowError.
        if not math.isfinite(self.d_t * self.d_t * self.rho_t):
            raise ValidationError(f"tether mass per metre must be finite, got {self}")

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


class KiteState(NamedTuple):
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


class EffectiveAero(NamedTuple):
    """Aerodynamic coefficients of the airborne system: kite plus lumped
    tether drag."""

    C_L: float
    C_D: float

    @property
    def LD(self) -> float:
        return self.C_L / self.C_D

    @property
    def C_R(self) -> float:
        """Resultant force coefficient."""
        return math.hypot(self.C_D, self.C_L)


class EquilibriumResult(NamedTuple):
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
        iterations: Number of force-geometry evaluations: of the
            kinematic-ratio solve, or of a whole reel-factor inversion
            (0 for closed form).  A solve that cannot meet its tolerance
            raises instead of returning.
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
    iterations: int


def tether_properties(
    r: float, tether: TetherParams, kite: KiteParams, aero: AeroSet
) -> tuple[float, float]:
    """Deployed tether mass and total system drag coefficient at length ``r``,
    as the pair (m_t, C_D_total).

    One fourth of the tether drag area ``d_t*r`` is added to the kite drag
    area; the mass is the full cylinder volume times material density.
    """
    if r <= 0.0:
        raise ValidationError(f"tether length must be > 0, got {r}")
    m_t = tether.mass(r)
    C_D_total = aero.C_D_k + 0.25 * (tether.d_t * r / kite.S) * tether.C_D_c
    return m_t, C_D_total


def _trig(state: KiteState, aero: EffectiveAero, wind: WindState) -> tuple[float, float]:
    """Trigonometric coefficients (a, b) of the tangential-speed quadratic,
    once theta is in (-pi/2, pi), C_L, C_D are positive and finite, v_w >= 0
    and rho > 0."""
    if not -0.5 * math.pi < state.theta < math.pi:
        raise ValidationError(f"polar angle must be in (-pi/2, pi), got {state.theta}")
    if aero.C_L <= 0.0 or aero.C_D <= 0.0:
        raise ValidationError(f"effective coefficients must be positive, got {aero}")
    if not math.isfinite(aero.C_L + aero.C_D):
        raise ValidationError(f"effective coefficients must be finite, got {aero}")
    if wind.v_w < 0.0 or wind.rho <= 0.0:
        raise ValidationError(
            f"wind state requires v_w >= 0 and rho > 0, got v_w={wind.v_w}, rho={wind.rho}"
        )
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
    a, b = _trig(state, aero, wind)
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
    _, b = _trig(state, aero, wind)
    if F_target <= 0.0:
        raise ValidationError(f"force target must be > 0, got {F_target}")
    if wind.v_w <= 0.0:
        raise ValidationError("force inversion requires a positive wind speed")
    G = aero.LD
    scale = wind.q * S * aero.C_R * (1.0 + G * G)
    return b - math.sqrt(F_target / scale)


def ground_tether_force(F_t_kite: float, theta: float, m_t: float) -> float:
    """Tether force at the ground station given the force at the kite.

    The sag-induced tangential reaction at each suspension point is half
    the tether weight projected on the tangential direction; the ground
    radial component additionally carries the vertical projection of the
    tether weight.

    Raises:
        TetherSagError: if half the tether weight exceeds the kite-end
            tension, outside the moderate-sagging validity range, or the
            radial tension at the kite does not carry the radial tether
            weight, so that the tether would push on the ground station.
    """
    F_t_tau = 0.5 * math.sin(theta) * m_t * GRAVITY
    if F_t_kite <= abs(F_t_tau):
        raise TetherSagError(
            f"kite tension {F_t_kite:.1f} N does not exceed the sag reaction "
            f"{abs(F_t_tau):.1f} N"
        )
    radial_kite = math.sqrt(F_t_kite**2 - F_t_tau**2)
    radial_ground = radial_kite - math.cos(theta) * m_t * GRAVITY
    if radial_ground < 0.0:
        raise TetherSagError(f"kite tension {F_t_kite:.1f} N leaves the tether pushing on the "
                             f"ground station: it cannot carry the radial tether weight "
                             f"{radial_kite - radial_ground:.1f} N")
    return math.hypot(radial_ground, F_t_tau)


class _Probe(NamedTuple):
    """One root-search evaluation: abscissa, residual (None where the
    equilibrium does not exist) and the solved values."""

    x: float
    r: Optional[float]
    value: object


# Failures that mark a probe as outside the solvable region.
_BRACKET_FAILURES = (SteadyStateError, NoTensionError, TetherSagError)


def _force_geometry(state: KiteState, kite: KiteParams, m_t: float, aero: EffectiveAero,
                    wind: WindState):
    """The force geometry of one flight state, as two functions of the
    reeling factor f, which neither checks against sin(theta)*cos(phi).

    ``geometry(x, f)`` evaluates the apparent wind and the aerodynamic
    force at kappa = exp(x) and returns a probe with residual log(G/G*),
    where G is the lift-to-drag ratio they imply and G* the system
    lift-to-drag ratio, and values (kappa, lam, v_a, F_a, F_a_r,
    F_t_kite).  It raises SteadyStateError where the geometry has no
    solution.  ``equilibrium(values, f, iterations)`` completes such
    values to the ground force and power of an :class:`EquilibriumResult`.
    """
    if m_t < 0.0:
        raise ValidationError(f"tether mass must be >= 0, got {m_t}")
    if wind.v_w <= 0.0:
        raise ValidationError("the quasi-steady equilibrium requires a positive wind speed")
    log_G_star = math.log(aero.LD)
    sin_t, cos_t = math.sin(state.theta), math.cos(state.theta)
    sin_p, cos_p = math.sin(state.phi), math.cos(state.phi)
    sin_c, cos_c = math.sin(state.chi), math.cos(state.chi)
    a, b = cos_t * cos_p * cos_c - sin_p * sin_c, sin_t * cos_p  # as in _trig
    v_w = wind.v_w
    force_coefficient = wind.q * kite.S * aero.C_R
    F_a_theta = -(0.5 * m_t + kite.m) * GRAVITY * sin_t
    # Tether force at the kite: aerodynamic force plus kite weight, in
    # spherical components; the theta component reduces to the sag reaction.
    W_r = kite.m * GRAVITY * cos_t
    F_t_theta = F_a_theta + kite.m * GRAVITY * sin_t  # = -sin_t*m_t*g/2

    def geometry(x: float, f: float) -> _Probe:
        kappa = math.exp(x)
        b_f = b - f
        one_k2 = 1.0 + kappa * kappa
        radicand = a * a + b * b - 1.0 + kappa * kappa * b_f * b_f
        if radicand < 0.0:
            raise SteadyStateError("tangential velocity factor has no real solution")
        lam = a + math.sqrt(radicand)
        F_a = force_coefficient * b_f * b_f * one_k2
        fr2 = F_a * F_a - F_a_theta * F_a_theta
        if fr2 < 0.0:
            raise SteadyStateError("aerodynamic force below the tangential gravity load")
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
        v_a = b_f * math.sqrt(one_k2) * v_w
        F_t_kite = math.hypot(F_a_r - W_r, F_t_theta)
        return _Probe(x, 0.5 * math.log(ratio2) - log_G_star,
                      (kappa, lam, v_a, F_a, F_a_r, F_t_kite))

    def equilibrium(value: tuple, f: float, iterations: int) -> EquilibriumResult:
        kappa, lam, v_a, F_a, F_a_r, F_t_kite = value
        F_tg = ground_tether_force(F_t_kite, state.theta, m_t)
        P = F_tg * f * v_w
        return EquilibriumResult(
            kappa=kappa, lam=lam, v_a=v_a, F_a=F_a, F_a_r=F_a_r, F_a_theta=F_a_theta,
            F_t_kite=F_t_kite, F_tg=F_tg, zeta=P / (wind.P_w * kite.S), P=P,
            iterations=iterations,
        )

    return geometry, equilibrium


def _bracketed_root(fun: Callable[[float], _Probe], p: _Probe, n: _Probe, rtol: float,
                    xtol: float) -> tuple[_Probe, _Probe]:
    """Illinois false position (Dowell & Jarratt 1971) on a sign change.

    ``p`` has a positive residual and ``n`` a negative one or none: a
    probe that fails counts as the negative side, and the next probe
    bisects toward it.  Stops at a probe within ``rtol`` or when the
    bracket is narrower than ``xtol``.  Returns the final (p, n).
    """
    w_p, w_n, last = p.r, n.r, 0  # Illinois halves the weight of an end kept twice
    while abs(p.x - n.x) > xtol:
        x = 0.5 * (p.x + n.x)
        if w_n is not None:
            x_fp = p.x - w_p * (n.x - p.x) / (w_n - w_p)
            x = x_fp if min(p.x, n.x) < x_fp < max(p.x, n.x) else x
        if x in (p.x, n.x):
            break
        try:
            q = fun(x)
        except _BRACKET_FAILURES:
            q = _Probe(x, None, None)
        if q.r is not None and q.r >= 0.0:
            p, w_p, w_n = q, q.r, (0.5 * w_n if last > 0 and w_n is not None else w_n)
            last = 1
        else:
            n, w_n, w_p = q, q.r, (0.5 * w_p if last < 0 else w_p)
            last = -1
        if q.r is not None and abs(q.r) <= rtol:
            break
    return p, n


def _nearest(p: _Probe, n: _Probe) -> _Probe:
    """The end of a final bracket whose residual is nearer zero."""
    return n if n.r is not None and -n.r < p.r else p


# Kinematic ratios lie in [1e-9, 50*G*]; the bracketed search steps down
# from the top by factors of 2**0.25.
_LOG_KAPPA_MIN = math.log(1e-9)
_LOG_KAPPA_STEP = 0.25 * math.log(2.0)
# Default tolerance on G/G* - 1; the tether force is off by about twice
# as much, near the force tolerance of a reel-factor inversion.
_KAPPA_TOL = 1e-7


def solve_kinematic_ratio(
    state: KiteState,
    kite: KiteParams,
    m_t: float,
    aero: EffectiveAero,
    wind: WindState,
    tol: float = _KAPPA_TOL,
) -> EquilibriumResult:
    """Quasi-steady equilibrium including gravity on kite and tether.

    The kinematic ratio kappa is the root of log(G/G*), where G is the
    lift-to-drag ratio that the apparent wind and the aerodynamic force
    components at kappa imply and G* the system lift-to-drag ratio.  The
    geometry is evaluated at the massless solution kappa = G* first and
    accepted if G matches G* to ``tol`` (relative).  Otherwise a secant
    on log kappa (:func:`_broyden` with f held) takes the fixed-point
    step kappa*sqrt(G*/G) first.  If the secant leaves (0, 50*G*], a
    probe fails, ``_JOINT_STEPS`` steps pass or its slope has G falling
    with kappa, a bracketed search steps down from 50*G* by factors of
    2**0.25 to the first kappa with G < G*, or where the geometry fails,
    and refines that sign change.  Both find the largest root, where G
    rises through G*.  ``iterations`` counts the geometry evaluations.

    Raises:
        NoTensionError: if the reeling factor leaves no radial apparent wind.
        SteadyStateError: if G - G* has no sign change on (0, 50*G*] before
            the geometry fails (the aerodynamic force falls below the
            tangential gravity load, or gravity turns the drag projection
            non-positive), or the root has a negative tangential speed.
    """
    _, b = _trig(state, aero, wind)
    if state.f >= b:
        raise NoTensionError(
            f"reeling factor {state.f:.4f} >= sin(theta)*cos(phi) = {b:.4f}"
        )
    geometry, equilibrium = _force_geometry(state, kite, m_t, aero, wind)
    f = state.f
    evaluations = 0

    def probe(x: float) -> _Probe:
        nonlocal evaluations
        evaluations += 1
        return geometry(x, f)

    def secant(x: float, f_: float) -> tuple[float, float, tuple]:
        p = probe(x)
        return p.r, f_ - f, p.value

    rtol = math.log1p(tol)
    x_max = math.log(50.0 * aero.LD)
    # The second residual holds f, so with the Jacobian diag(2, 1) the
    # first step is the fixed-point step and each update the secant slope.
    found = _broyden(secant, _ReelStart(math.log(aero.LD), f, (2.0, 0.0, 0.0, 1.0)),
                     rtol, x_max, f, f)
    if found is not None:
        value = found[0]
    else:
        value = _largest_kappa_root(probe, x_max, rtol).value
    if value[1] < 0.0:
        raise SteadyStateError(f"converged to a negative tangential velocity "
                               f"factor ({value[1]:.4f})")
    return equilibrium(value, f, evaluations)


def _largest_kappa_root(geometry: Callable[[float], _Probe], x_max: float,
                        rtol: float) -> _Probe:
    """Step down in log kappa from ``x_max`` to the first probe with
    G < G*, or at which the geometry fails, and refine that sign change;
    a failed probe counts as G < G*, which finds a root at the edge of the
    geometry.  Where G stops falling from one step to the next, the last
    two steps are first searched for the least G (:func:`_golden_least`),
    so that a dip of G below G* between steps is found too.  Raises
    SteadyStateError when G stays above G* down to the edge of the
    geometry or to kappa = 1e-9."""
    def probe(x: float) -> _Probe:
        try:
            return geometry(x)
        except SteadyStateError as exc:
            return _Probe(x, math.inf, str(exc))  # a failure ranks above every G

    pp = p = None
    x = x_max
    while x > _LOG_KAPPA_MIN:
        q = probe(x)
        if p is not None and q.r >= p.r and (pp is None or pp.r > p.r):
            top = pp or p
            least = _golden_least(probe, q.x, top.x, rtol)
            if least.r < rtol:
                p, q = top, least
        if abs(q.r) <= rtol:
            return q
        if 0.0 < q.r < math.inf:
            pp, p, x = p, q, x - _LOG_KAPPA_STEP
            continue
        if p is None:
            if q.r < 0.0:
                reason = "G < G* at the upper end"
            else:
                reason = f"{q.value} at kappa = {math.exp(x):.4g}"
            break
        p, n = _bracketed_root(geometry, p, q if q.r < 0.0 else _Probe(q.x, None, None),
                               rtol, 1e-13)
        if n.r is not None or p.r <= rtol:
            return _nearest(p, n)
        reason = f"{q.value} below kappa = {math.exp(p.x):.4g}"
        break
    else:
        reason = f"G > G* down to kappa = {math.exp(x):.4g}"
    raise SteadyStateError(f"no sign change of G(kappa) - G* on "
                           f"(0, {math.exp(x_max):.1f}]: {reason}")


_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def _golden_least(probe: Callable[[float], _Probe], lo: float, hi: float,
                  rtol: float) -> _Probe:
    """Golden-section search of [lo, hi] for the least residual, on the
    premise that G has one minimum there.  Stops at the first probe with
    a residual below ``rtol``, or when the interval is narrower than
    1e-13."""
    c, d = probe(hi - _GOLDEN * (hi - lo)), probe(lo + _GOLDEN * (hi - lo))
    while hi - lo > 1e-13 and min(c.r, d.r) >= rtol:
        if c.r < d.r:
            hi, d = d.x, c
            c = probe(hi - _GOLDEN * (hi - lo))
        else:
            lo, c = c.x, d
            d = probe(lo + _GOLDEN * (hi - lo))
    return c if c.r < d.r else d


TargetEnd = Literal["kite", "ground"]

# A reel-factor inversion stops at a force within this fraction of the
# target; a joint root also meets the default tolerance of a kinematic solve.
_FORCE_RTOL = 1e-7
_JOINT_STEPS = 10
_FD_STEP = 1e-6
# The reel-factor bracket is [_F_LO, b - _F_EPS], b = sin(theta)*cos(phi).
_F_LO = -3.0
_F_EPS = 1e-6


class _ReelStart(NamedTuple):
    """Start of a joint solve: (log kappa, f) and the row-major Jacobian, if known."""

    x: float
    f: float
    J: Optional[tuple[float, float, float, float]]


def _broyden(fun: Callable[[float, float], tuple[float, float, tuple]], start: _ReelStart,
             rtol: float, x_max: float, f_lo: float,
             f_hi: float) -> Optional[tuple[tuple, _ReelStart]]:
    """Broyden (1965) iteration on the two residuals of ``fun`` over
    (log kappa, f), from ``start``; a start without a Jacobian takes
    finite differences.  The first residual, log(G/G*), is met to
    ``rtol``, the second to ``_FORCE_RTOL``.

    Returns the geometry values of the first probe within both
    tolerances and the start for a neighbouring state, or None once a
    probe fails, a step leaves [1e-9, exp(x_max)] x [f_lo, f_hi],
    ``_JOINT_STEPS`` steps pass or, with f held (f_lo == f_hi), the
    updated Jacobian has G falling with kappa.  Where it has G falling
    with kappa at a joint root, it is taken again by finite differences,
    since after a long walk the update can be far off.
    """
    def differences(x, f, r1, r2):
        # f steps down: f may sit at the upper end of its range.
        a1, a2, _ = fun(x + _FD_STEP, f)
        b1, b2, _ = fun(x, f - _FD_STEP)
        return ((a1 - r1) / _FD_STEP, (r1 - b1) / _FD_STEP,
                (a2 - r2) / _FD_STEP, (r2 - b2) / _FD_STEP)

    x, f, J = start
    try:
        r1, r2, value = fun(x, f)
        if J is None:
            J = differences(x, f, r1, r2)
        steps = 0
        while not (abs(r1) <= rtol and abs(r2) <= _FORCE_RTOL):
            if steps == _JOINT_STEPS:
                return None
            steps += 1
            j11, j12, j21, j22 = J
            det = j11 * j22 - j12 * j21
            if det == 0.0:
                return None
            dx = (j12 * r2 - j22 * r1) / det
            df = (j21 * r1 - j11 * r2) / det
            x, f = x + dx, f + df
            if not (_LOG_KAPPA_MIN <= x <= x_max and f_lo <= f <= f_hi):
                return None
            r1, r2, value = fun(x, f)
            # Good Broyden update; J*(dx, df) = -(old residuals), so the
            # secant misfit is the new residual vector.
            s = dx * dx + df * df
            J = (j11 + r1 * dx / s, j12 + r1 * df / s, j21 + r2 * dx / s, j22 + r2 * df / s)
            if J[0] <= 0.0 and f_lo == f_hi:
                return None  # with f held, a root where G falls is rejected anyway
        if J[0] <= 0.0:
            J = differences(x, f, r1, r2)
    except _BRACKET_FAILURES:
        return None
    return value, _ReelStart(x, f, J)


def reel_factor_for_force_gravity(
    F_target: float,
    target_end: TargetEnd,
    state: KiteState,
    kite: KiteParams,
    m_t: float,
    aero: EffectiveAero,
    wind: WindState,
    start: Optional[_ReelStart] = None,
) -> tuple[float, EquilibriumResult, _ReelStart]:
    """Reeling factor whose gravity-including equilibrium carries
    ``F_target`` at the requested tether end.

    The kinematic ratio and the reeling factor are solved together
    (:func:`_broyden`), from ``start`` (the start this function returned
    for a neighbouring state: its solution and Jacobian), or without one
    from the massless inversion at kappa = G*.  A joint root counts if no
    probe failed and it is the kind of root a nested solve finds:
    lam >= 0 and G rising through G* with kappa.  Otherwise the tether
    force, which falls with f, is bracketed on [-3, b - 1e-6] with
    b = sin(theta)*cos(phi), each probe a :func:`solve_kinematic_ratio`,
    and the sign change refined by :func:`_bracketed_root`; a factor
    without an equilibrium (the aerodynamic force cannot balance the
    tangential gravity load, or the tether would push on the ground
    station) counts as the low-force side.  Returns the factor, its
    equilibrium, whose ``iterations`` counts the geometry evaluations of
    the joint solve and of the nested solves that returned, and the start
    for a neighbouring state.

    Raises:
        SetpointUnreachableError: if no sign change exists in the bracket.
        SteadyStateError: if the equilibrium solver fails where a solution
            is required.
    """
    _, b = _trig(state, aero, wind)
    if F_target <= 0.0:
        raise ValidationError(f"force target must be > 0, got {F_target}")
    if target_end not in ("kite", "ground"):
        raise ValidationError(f"force target end must be 'kite' or 'ground', got {target_end!r}")
    f_hi = b - _F_EPS
    geometry, equilibrium = _force_geometry(state, kite, m_t, aero, wind)
    evaluations = 0

    def joint(x: float, f: float) -> tuple[float, float, tuple]:
        nonlocal evaluations
        evaluations += 1
        p = geometry(x, f)
        F_tg = ground_tether_force(p.value[5], state.theta, m_t)
        return p.r, (p.value[5] if target_end == "kite" else F_tg) / F_target - 1.0, p.value

    if start is None:
        f = reel_factor_for_force_massless(F_target, state, aero, wind, kite.S)
        start = _ReelStart(math.log(aero.LD), min(max(f, _F_LO), f_hi), None)
    found = _broyden(joint, start, math.log1p(_KAPPA_TOL), math.log(50.0 * aero.LD), _F_LO,
                     f_hi)
    if found is not None:
        value, start = found
        # Accept the root a nested solve would find: lam >= 0, and G
        # rising through G* with kappa.
        if value[1] >= 0.0 and start.J[0] > 0.0:
            return start.f, equilibrium(value, start.f, evaluations), start

    rtol = _FORCE_RTOL * F_target

    def residual(f: float) -> _Probe:
        nonlocal evaluations
        eq = solve_kinematic_ratio(state._replace(f=f), kite, m_t, aero, wind)
        evaluations += eq.iterations
        return _Probe(f, (eq.F_t_kite if target_end == "kite" else eq.F_tg) - F_target, eq)

    try:
        p = residual(_F_LO)
    except _BRACKET_FAILURES as exc:
        raise SteadyStateError(
            f"no quasi-steady solution at the lower bracket end f={_F_LO}: {exc}"
        ) from exc
    if p.r < 0.0:
        raise SetpointUnreachableError(
            f"force {F_target:.1f} N exceeds the maximum achievable "
            f"{p.r + F_target:.1f} N at f={_F_LO} (over by {-p.r:.3g} N)"
        )
    try:
        n = residual(f_hi)
    except _BRACKET_FAILURES:
        n = _Probe(f_hi, None, None)
    if n.r is None or n.r < 0.0:
        p, n = _bracketed_root(residual, p, n, rtol, 1e-12)
    root = _nearest(p, n)
    if root.r > rtol and (n.r is None or n.r > 0.0):
        # The bracket closed on the edge of solvability, or the force at
        # the upper end is still above the set-point.
        raise SetpointUnreachableError(
            f"force {F_target:.1f} N is below the minimum achievable "
            f"{root.r + F_target:.1f} N near f={root.x:.4f} (short by {root.r:.3g} N)"
        )
    return root.x, root.value._replace(iterations=evaluations), _ReelStart(
        math.log(root.value.kappa), root.x, None)
