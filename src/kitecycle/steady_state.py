"""Instantaneous force/velocity equilibria of the tethered kite.

For a massless system the equilibrium has a closed form: the kinematic
ratio (tangential over radial apparent wind) equals the system
lift-to-drag ratio, and tether force, flight speed and power follow
directly.  With airborne mass the aerodynamic force must additionally
balance the tangential component of gravity, and the kinematic ratio at
a given reeling factor f becomes the root at which the lift-to-drag ratio
G implied by the force/velocity geometry matches the target value G*.
It is solved as the set-point's inverse (below): the root is the largest
trial aerodynamic force, which rises with kappa at fixed f, whose
drag-condition kernel gives f, found by a secant from the massless force
with a scan and an Illinois bracket as fallback.  A solve that fails names
why no root exists; it never fails for running out of iterations.

A force set-point needs no search.  The set-point fixes the tether force
at the kite (from the ground end through the inverted sag relation), so
the aerodynamic force vector (F_a_r, F_a_theta) and, through
F_a = q*S*C_R*|v_a|^2/v_w^2, the apparent wind speed are known.  With
a = cos(theta)cos(phi)cos(chi) - sin(phi)sin(chi), b = sin(theta)cos(phi)
and the tangential velocity factor lam, the apparent wind over v_w is
(b - f, cos(theta)cos(phi) - lam*cos(chi), -sin(phi) - lam*sin(chi)).
Drag is the projection of the aerodynamic force on it, so
F_a.v_a/|v_a| = F_a/sqrt(1 + G*^2) is linear in (f, lam), and
|v_a|^2/v_w^2 = (b - f)^2 + 1 - b^2 - 2*a*lam + lam^2 is quadratic in
them.  Eliminating b - f gives one quadratic in lam; its larger root gives
f and kappa.  It is the model's equilibrium only if G rises through G* with
kappa at fixed f there, which it need not.  With K = kappa^2, F_a grows as
1 + K, |v_a| = (b - f)*sqrt(1 + K)*v_w, D = N*v_w/|v_a| with N = F_a_r*(b - f)
+ F_a_theta*(cos(theta)cos(phi) - lam*cos(chi)), and s = lam - a has ds/dK =
(b - f)^2/(2s); so G, rising with F_a/D, rises where K > 0 and
3N > 2*F_a^2*(b - f)/F_a_r - (1 + K)*F_a_theta*cos(chi)*(b - f)^2/s.

Tether drag is lumped into the kite drag coefficient (one fourth of the
tether drag area), and the tether weight is split between a radial term
lumped with the kite weight and a sag-induced tangential reaction at the
suspension points; :func:`tether_balance` writes these loads.  The balance is
kept in components: the radial tension is F_a_r less the radial kite weight
at the kite, and less the radial tether weight too at the ground; each end's
force is its hypot with the sag reaction, -sin(theta)*m_t*g/2, and inverts to
F_a_r the other way.  Where the radial tension is not positive at the kite,
or negative at the ground, the tether would push: TetherSagError.

Each of the four equilibria has one public function on scalars: its
inputs (the reeling factor f, or the force set-point), then ``theta,
angles, C_L, C_D, [m_t, m,] S, v_w, rho``, where ``angles`` is the
:func:`angle_trig` of phi and chi, taken once per phase, and the massless
pair takes no masses.  Each checks every input first and raises
ValidationError for the first out of its domain.  A set-point is its
step kernel applied to :func:`bind_setpoint`: the binder checks the
constants of a phase (F_target, target_end, angles, C_L, m, S) once, the
kernel (:func:`gravity_setpoint_step`, :func:`massless_setpoint_step`)
the per-step inputs ``theta, C_D, m_t, v_w, rho``, and returns (f, the
EquilibriumResult fields as a tuple).  The simulator calls a kernel once
per step; the massless kernel is the whole massless closed form, the fixed
factor of :func:`massless_state` included, so it calls only :func:`_trig`.
"""

from __future__ import annotations

import math
from typing import Callable, Literal, NamedTuple, Optional

from .errors import (NoTensionError, SetpointUnreachableError, SteadyStateError, TetherSagError,
                     ValidationError)
from .frozen import Frozen

__all__ = [
    "GRAVITY",
    "AeroSet",
    "TetherParams",
    "KiteParams",
    "EquilibriumResult",
    "tether_properties",
    "bind_tether",
    "angle_trig",
    "massless_state",
    "massless_setpoint",
    "bind_setpoint",
    "massless_setpoint_step",
    "tether_balance",
    "solve_kinematic_ratio",
    "gravity_setpoint",
    "gravity_setpoint_step",
]

GRAVITY = 9.81  # m/s^2
# Reeling factors below this are not admitted by a force inversion.
_F_LO = -3.0


class AeroSet(Frozen):
    """Constant aerodynamic coefficients of the wing for one phase.

    Attributes:
        C_L: Lift coefficient.
        LD_k: Lift-to-drag ratio of the kite alone (tether excluded).
    """

    __slots__ = _fields = ("C_L", "LD_k")

    def __init__(self, C_L: float, LD_k: float):
        super().__init__(C_L, LD_k)
        if not all(0.0 < x < math.inf for x in (C_L, LD_k)):
            raise ValidationError(f"aero set requires C_L > 0 and LD_k > 0 (finite), got {self}")

    @property
    def C_D_k(self) -> float:
        """Drag coefficient of the kite alone."""
        return self.C_L / self.LD_k


class TetherParams(Frozen):
    """Tether geometry and material.

    Attributes:
        d_t: Diameter [m].
        rho_t: Effective material density [kg/m^3] (braiding included).
        C_D_c: Drag coefficient of a cylinder in cross flow.
    """

    __slots__ = _fields = ("d_t", "rho_t", "C_D_c")

    def __init__(self, d_t: float, rho_t: float, C_D_c: float = 1.1):
        super().__init__(d_t, rho_t, C_D_c)
        if not all(0.0 < x < math.inf for x in (d_t, rho_t, C_D_c)):
            raise ValidationError(f"tether parameters must be positive and finite, got {self}")
        # A product, so that it gives inf where mass()'s d_t**2 raises OverflowError.
        if not math.isfinite(d_t * d_t * rho_t):
            raise ValidationError(f"tether mass per metre must be finite, got {self}")

    def mass(self, r: float) -> float:
        """Mass [kg] of ``r`` metres of tether: cylinder volume times density."""
        return self.rho_t * 0.25 * math.pi * self.d_t**2 * r


class KiteParams(Frozen):
    """Wing geometry, airborne mass, and the per-phase aerodynamic sets.

    ``m`` is the total airborne point mass: wing plus control unit.
    """

    __slots__ = _fields = ("S", "m", "aero_traction", "aero_retraction")

    def __init__(self, S: float, m: float, aero_traction: AeroSet, aero_retraction: AeroSet):
        super().__init__(S, m, aero_traction, aero_retraction)
        _check_phase((), S, m)


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
        iterations: Number of drag-condition kernel evaluations of the
            kinematic-ratio solve; 0 for the closed forms (the set-points
            and the massless state).  A solve that cannot meet its
            tolerance raises instead of returning.
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
    return bind_tether(tether, kite, aero)(r)


def bind_tether(tether: TetherParams, kite: KiteParams,
                aero: AeroSet) -> Callable[[float], tuple[float, float]]:
    """:func:`tether_properties` as ``r -> (m_t, C_D_total)``, bound once per phase."""
    # mass(r) is its product up to d_t**2 times r: mass(1.0)*r, float for float.
    per_metre, d_t, C_D_c, S, C_D_k = tether.mass(1.0), tether.d_t, tether.C_D_c, kite.S, aero.C_D_k

    def properties(r: float) -> tuple[float, float]:
        if not r > 0.0:
            raise ValidationError(f"tether length must be > 0, got {r}")
        return per_metre * r, C_D_k + 0.25 * (d_t * r / S) * C_D_c
    return properties


def angle_trig(phi: float, chi: float) -> tuple[float, float, float, float]:
    """The sines and cosines (sin_p, cos_p, sin_c, cos_c) of phi and chi,
    once both are finite.  The simulator takes them once per phase."""
    for name, angle in (("azimuth phi", phi), ("course angle chi", chi)):
        if not math.isfinite(angle):
            raise ValidationError(f"{name} must be finite, got {angle}")
    return math.sin(phi), math.cos(phi), math.sin(chi), math.cos(chi)


def _check_phase(angles: tuple, S: float, m: float = 0.0) -> None:
    """Raise ValidationError unless the :func:`angle_trig` values are finite,
    S is positive and finite and m is non-negative and finite."""
    if not 0.0 < S < math.inf:
        raise ValidationError(f"projected wing area must be > 0 and finite, got {S}")
    if not 0.0 <= m < math.inf:
        raise ValidationError(f"airborne mass must be >= 0 and finite, got {m}")
    if not all(map(math.isfinite, angles)):
        raise ValidationError(f"angles must be finite sines and cosines, got {angles}")


def _trig(theta: float, angles: tuple[float, float, float, float], C_L: float, C_D: float,
          v_w: float, rho: float) -> tuple[float, float, float, float]:
    """The coefficients (a, b) of the tangential-speed quadratic and (sin_t,
    cos_t), from theta and the :func:`angle_trig` of phi and chi, once theta is
    in (-pi/2, pi), C_L, C_D are positive and finite, v_w >= 0 and rho > 0."""
    if not -0.5 * math.pi < theta < math.pi:
        raise ValidationError(f"polar angle must be in (-pi/2, pi), got {theta}")
    if C_L <= 0.0 or C_D <= 0.0 or not math.isfinite(C_L + C_D):
        kind = "positive" if C_L <= 0.0 or C_D <= 0.0 else "finite"
        raise ValidationError(f"effective coefficients must be {kind}, got C_L={C_L}, C_D={C_D}")
    if v_w < 0.0 or rho <= 0.0:
        raise ValidationError(f"wind state requires v_w >= 0 and rho > 0, got v_w={v_w}, rho={rho}")
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    sin_p, cos_p, sin_c, cos_c = angles
    return cos_t * cos_p * cos_c - sin_p * sin_c, sin_t * cos_p, sin_t, cos_t


def massless_state(f: float, theta: float, angles: tuple, C_L: float, C_D: float, S: float,
                   v_w: float, rho: float) -> EquilibriumResult:
    """Closed-form equilibrium for a massless kite and tether at reeling
    factor ``f``, with ``angles`` the :func:`angle_trig` of phi and chi.

    The kinematic ratio equals the system lift-to-drag ratio, the
    aerodynamic force is purely radial and equal to the tether force at
    both ends.

    Raises:
        NoTensionError: if the reeling factor reaches sin(theta)*cos(phi),
            where the tether would have to push.
        SteadyStateError: if the tangential velocity factor has no real
            non-negative solution, or the state overflows.
    """
    _check_phase(angles, S)
    return EquilibriumResult(*massless_setpoint_step((None, None, angles, C_L, None, S), theta,
                                                     C_D, 0.0, v_w, rho, f)[1])


def massless_setpoint(F_target: float, theta: float, angles: tuple, C_L: float, C_D: float,
                      S: float, v_w: float, rho: float) -> tuple[float, EquilibriumResult]:
    """Reeling factor that produces tether force ``F_target`` (massless),
    and its :func:`massless_state` equilibrium.

    Inverts the normalised tether-force relation; the smaller quadratic
    root is taken since the larger one corresponds to a compressed
    tether.  Large targets give a negative factor, i.e. reeling in.

    Raises:
        SetpointUnreachableError: if the factor is below -3, the bound of
            :func:`gravity_setpoint`.
        NoTensionError, SteadyStateError: as :func:`massless_state` at
            that factor.
    """
    f, values = massless_setpoint_step(bind_setpoint(F_target, "kite", angles, C_L, 0.0, S),
                                       theta, C_D, 0.0, v_w, rho)
    return f, EquilibriumResult(*values)


def massless_setpoint_step(bound: tuple, theta: float, C_D: float, m_t: float, v_w: float,
                           rho: float, f: Optional[float] = None) -> tuple[float, tuple]:
    """:func:`massless_setpoint` for the :func:`bind_setpoint` constants
    ``bound``, whose target end and masses it ignores, as (f, the
    equilibrium's fields); given ``f``, :func:`massless_state` at ``f``
    instead, which ignores the target too.  It checks G* after the state's
    tension check and after the set-point's wind check, where the gravity
    pair checks it."""
    F_target, _, angles, C_L, _, S = bound
    a, b, _, _ = _trig(theta, angles, C_L, C_D, v_w, rho)
    setpoint = f is None
    if setpoint:
        if v_w <= 0.0:
            raise ValidationError("force inversion requires a positive wind speed")
    elif not math.isfinite(f):
        raise ValidationError(f"reeling factor must be finite, got {f}")
    elif f >= b:
        raise _no_tension(f, b)
    G, C_R = C_L / C_D, math.hypot(C_D, C_L)
    if not 0.0 < G < math.inf:
        raise _lift_to_drag_error(G)
    try:
        scale = 0.5 * rho * v_w**2 * S * C_R * (1.0 + G * G)  # tether force over (b - f)**2
        if setpoint:
            f = b - math.sqrt(F_target / scale)
    except (OverflowError, ZeroDivisionError):
        raise _beyond_floats(v_w) from None
    if setpoint and f < _F_LO:
        raise SetpointUnreachableError(f"force {F_target:.6g} N: f = {f:.6g} is below {_F_LO}")
    if f >= b:
        raise _no_tension(f, b)
    try:
        b_f2 = (b - f) ** 2
    except OverflowError:
        b_f2 = math.inf
    radicand = a * a + b * b - 1.0 + G * G * b_f2
    if radicand < 0.0:
        raise SteadyStateError("tangential velocity factor has no real solution")
    lam = a + math.sqrt(radicand)
    if lam < 0.0:
        raise SteadyStateError(f"tangential velocity factor is negative ({lam:.3g})")
    v_a = (b - f) * math.sqrt(1.0 + G * G) * v_w
    F_t = scale * b_f2
    P = F_t * f * v_w
    zeta = C_R * (1.0 + G * G) * f * b_f2
    # A finite sum means finite fields (P is not, where F_t is not); one that overflows is
    # checked field by field.
    if not math.isfinite(lam + v_a + P + zeta) and not all(map(math.isfinite,
                                                            (lam, v_a, P, zeta))):
        raise SteadyStateError(f"reeling factor {f:.6g} is beyond float arithmetic: its tether "
                               f"force {F_t:.6g} N, power or speeds overflow")
    # kappa, lam, v_a, F_a, F_a_r, F_a_theta, F_t_kite, F_tg, zeta, P, iterations
    return f, (G, lam, v_a, F_t, F_t, 0.0, F_t, F_t, zeta, P, 0)


TargetEnd = Literal["kite", "ground"]


def tether_balance(sin_t: float, cos_t: float, m_t: float, m: float,
                   F_end: Optional[float] = None, ground: bool = False,
                   flight: Optional[tuple] = None) -> Optional[tuple]:
    """The aerodynamic force (F_a_r, F_a) on a kite of mass ``m`` whose tether, of mass ``m_t``,
    carries ``F_end`` at the ground (``ground``) or at the kite; None without F_end, or with one
    below the sag reaction (or at it, at the kite).  ``F_end**2`` may raise OverflowError.  Given
    ``flight`` = (C_L, C_D, S, v_w, rho), once m_t >= 0, v_w > 0 and 0 < G* < inf, the flight
    state's (G*, q*S*C_R, F_a_theta, radial weights W_r and W_t, sag reaction, force) instead."""
    if flight is not None:
        C_L, C_D, S, v_w, rho = flight
        if not m_t >= 0.0:
            raise ValidationError(f"tether mass must be >= 0, got {m_t}")
        if v_w <= 0.0:
            raise ValidationError("the quasi-steady equilibrium requires a positive wind speed")
        G_star = C_L / C_D
        if not 0.0 < G_star < math.inf:
            raise _lift_to_drag_error(G_star)
        try:
            force_coefficient = 0.5 * rho * v_w**2 * S * math.hypot(C_D, C_L)
        except OverflowError:
            raise _beyond_floats(v_w) from None
    F_a_theta = -(0.5 * m_t + m) * GRAVITY * sin_t
    W_r, F_t_theta = m * GRAVITY * cos_t, -0.5 * sin_t * m_t * GRAVITY
    force = None
    # As in _equilibrium, the radial tension must be > 0 at the kite and >= 0 at the ground.
    if F_end is not None and (ground or F_end > abs(F_t_theta)):
        radicand = F_end**2 - F_t_theta**2
        if not radicand < 0.0:
            # The ground end's weight is its own product, not W_r + W_t, float for float.
            F_a_r = math.sqrt(radicand) + (cos_t * (m_t + m) * GRAVITY if ground else W_r)
            force = F_a_r, math.hypot(F_a_r, F_a_theta)
    if flight is None:
        return force
    return G_star, force_coefficient, F_a_theta, W_r, cos_t * m_t * GRAVITY, F_t_theta, force


def _lift_to_drag_error(G: float) -> ValidationError:
    return ValidationError(f"effective lift-to-drag ratio must be finite and > 0, got {G}")


def _no_tension(f: float, b: float) -> NoTensionError:
    return NoTensionError(f"reeling factor {f:.4f} >= sin(theta)*cos(phi) = {b:.4f}")


def _beyond_floats(v_w: float) -> SteadyStateError:
    """The error of a wind speed whose powers overflow, or whose q*S*C_R or wind power
    density underflows to 0."""
    return SteadyStateError(f"wind speed {v_w:.3g} m/s is beyond float arithmetic: v_w**2 or "
                            f"v_w**3 overflows, or q*S*C_R or the wind power density "
                            f"underflows to 0")


def _equilibrium(value: tuple, f: float, iterations: int, terms: tuple, S: float, v_w: float,
                 rho: float) -> tuple:
    """The solved (kappa, lam, v_a, F_a, F_a_r) at reeling factor ``f``,
    completed to the fields of an equilibrium by the :func:`tether_balance`
    ``terms`` in components.  Raises TetherSagError where the tether would
    push on the kite or on the ground station."""
    kappa, lam, v_a, F_a, F_a_r = value
    _, _, F_a_theta, W_r, W_t, F_t_theta, _ = terms
    radial_kite = F_a_r - W_r
    if radial_kite <= 0.0:
        raise TetherSagError(f"kite tension {radial_kite:.6g} N (radial) leaves the tether pushing "
                             f"on the kite: F_a_r {F_a_r:.6g} N cannot carry the radial kite "
                             f"weight {W_r:.6g} N")
    F_t_kite = math.hypot(radial_kite, F_t_theta)
    radial_ground = radial_kite - W_t
    if radial_ground < 0.0:
        raise TetherSagError(f"kite tension {F_t_kite:.6g} N leaves the tether pushing on the "
                             f"ground station: it cannot carry the radial tether weight "
                             f"{radial_kite - radial_ground:.6g} N")
    F_tg = math.hypot(radial_ground, F_t_theta)
    P = F_tg * f * v_w
    # P_w = 0.5*rho*v_w**3 is taken last: v_w**3 may overflow where the checks fail first.
    try:
        zeta = P / (0.5 * rho * v_w**3 * S)
    except (OverflowError, ZeroDivisionError):
        raise _beyond_floats(v_w) from None
    return kappa, lam, v_a, F_a, F_a_r, F_a_theta, F_t_kite, F_tg, zeta, P, iterations


# The fixed-factor search's steps, bounds and accuracy (solve_kinematic_ratio).
_SECANT_STEPS = 15
_LOG_KAPPA_MIN = math.log(1e-9)
_LOG_KAPPA_STEP = 0.25 * math.log(2.0)
_RESIDUAL_TOL = 1e-12
_LOG_KAPPA_WIDTH = 1e-13


def solve_kinematic_ratio(f: float, theta: float, angles: tuple, C_L: float, C_D: float,
                          m_t: float, m: float, S: float, v_w: float,
                          rho: float) -> EquilibriumResult:
    """Quasi-steady equilibrium including gravity on kite and tether, at
    reeling factor ``f``, with ``angles`` the :func:`angle_trig` of phi and
    chi.

    The search runs on trial aerodynamic forces F_a = q*S*C_R*(b - f)^2*
    (1 + kappa^2), which rise with kappa.  At each, the set-point's
    drag-condition kernel (:func:`_drag_condition`) gives the factor f_k
    whose equilibrium carries that force; the residual (b - f_k)/(b - f) - 1
    takes the sign of G - G* near a root, and the root is where f_k = f.
    A secant on y = sqrt(1 + kappa^2), in which the massless residual is
    linear, starts at the massless force plus |F_a_theta| with the massless
    slope.  If it leaves (0, 50*G*], a probe finds no state, 15 steps pass
    or its slope has G falling with kappa, :func:`_largest_root` scans.
    Both find the largest root, where G rises through G*, to a fixed
    accuracy: a residual within 1e-12, or within 1e-13 in log kappa of the
    sign change.  ``iterations`` counts the kernel evaluations.

    Raises:
        NoTensionError: if the reeling factor leaves no radial apparent wind.
        SteadyStateError: if G - G* has no sign change on (0, 50*G*] before
            the kernel finds no state (the aerodynamic force falls below the
            tangential gravity load, or no lam >= a meets the drag
            condition), the root has a negative tangential speed, or its
            wind power density overflows or underflows to 0.
        TetherSagError: if the root's radial tension at the kite is not
            positive, or at the ground negative: the tether would push on
            the kite or on the ground station.
    """
    _check_phase(angles, S, m)
    a, b, sin_t, cos_t = trig = _trig(theta, angles, C_L, C_D, v_w, rho)
    if not math.isfinite(f):
        raise ValidationError(f"reeling factor must be finite, got {f}")
    if f >= b:
        raise _no_tension(f, b)
    terms = tether_balance(sin_t, cos_t, m_t, m, flight=(C_L, C_D, S, v_w, rho))
    G_star, force_coefficient, F_a_theta, _, _, _, _ = terms
    b_f = b - f
    evaluations = 0

    def probe(x: float) -> tuple:
        # (log kappa, residual, rises, (A, F_a, F_a_r**2, lam)); where the kernel
        # finds no state the residual is NaN, rises False and the reason last.
        nonlocal evaluations
        kappa = math.exp(x)
        A = b_f * b_f * (1.0 + kappa * kappa)
        F_a = force_coefficient * A
        fr2 = F_a * F_a - F_a_theta * F_a_theta
        if fr2 <= 0.0:
            return x, math.nan, False, "aerodynamic force below the tangential gravity load"
        evaluations += 1
        state = _drag_condition(A, F_a, math.sqrt(fr2), trig, angles, terms)
        if state is None or not state[0] >= a:
            return x, math.nan, False, "no lam >= a meets the drag condition"
        return x, state[1] / b_f - 1.0, state[3], (A, F_a, fr2, state[0])

    if force_coefficient * b_f * b_f == 0.0:
        raise _beyond_floats(v_w)
    kappa = min(math.hypot(G_star, math.sqrt(abs(F_a_theta) / (force_coefficient * b_f * b_f))),
                50.0 * G_star)
    y, y_max = math.hypot(1.0, kappa), math.hypot(1.0, 50.0 * G_star)
    slope, p = 1.0 / math.hypot(1.0, G_star), probe(math.log(kappa))
    for _ in range(_SECANT_STEPS):
        dy = -p[1] / slope
        if not (abs(p[1]) > _RESIDUAL_TOL and 1.0 < y + dy <= y_max):  # converged, failed or out
            break
        q = probe(0.5 * math.log((y + dy) * (y + dy) - 1.0))
        if not (q[1] - p[1]) / dy > 0.0:  # a failed probe, or G falling with kappa
            break
        slope, p, y = (q[1] - p[1]) / dy, q, y + dy
    if not abs(p[1]) <= _RESIDUAL_TOL:
        p = _largest_root(probe, math.log(50.0 * G_star))
    x, _, _, (A, F_a, fr2, lam) = p
    if lam < 0.0:
        raise SteadyStateError(f"converged to a negative tangential velocity "
                               f"factor ({lam:.3g})")
    value = (math.exp(x), lam, math.sqrt(A) * v_w, F_a, math.sqrt(fr2))
    return EquilibriumResult(*_equilibrium(value, f, evaluations, terms, S, v_w, rho))


def _largest_root(probe: Callable[[float], tuple], x_max: float) -> tuple:
    """The probe at the largest root on log kappa <= ``x_max``, for the probe
    of :func:`solve_kinematic_ratio`.  The scan steps down to the first probe
    with G < G* or with no state, or, below one where G rises, to one where G
    falls, and refines that step by Illinois false position (Dowell & Jarratt
    1971), or by bisection while it has no negative residual.  A dip of G
    that stays above G* is passed and the scan goes on.  Raises
    SteadyStateError where there is no root."""
    x, p, reason = x_max, None, None
    while reason is None and x > _LOG_KAPPA_MIN:
        q = probe(x)
        x -= _LOG_KAPPA_STEP
        if abs(q[1]) <= _RESIDUAL_TOL:
            return q
        if p is None and not q[1] > 0.0:
            reason = ("G < G* at the upper end" if q[1] < 0.0 else
                      f"{q[3]} at kappa = {math.exp(q[0]):.4g}")
        while reason is None and p is not None and not (q[1] > 0.0 and (q[2] or not p[2])):
            n, rising, w_p, last = q, p[2], p[1], 0
            w_n = n[1] if n[1] < 0.0 else None
            while abs(p[0] - n[0]) > _LOG_KAPPA_WIDTH:
                xm = 0.5 * (p[0] + n[0])
                if w_n is not None:
                    x_fp = p[0] - w_p * (n[0] - p[0]) / (w_n - w_p)
                    xm = x_fp if min(p[0], n[0]) < x_fp < max(p[0], n[0]) else xm
                if xm in (p[0], n[0]):
                    break
                m = probe(xm)
                if abs(m[1]) <= _RESIDUAL_TOL:
                    return m
                if m[1] > 0.0 and (m[2] or not rising):
                    p, w_p = m, m[1]
                    w_n, last = (0.5 * w_n if last > 0 and w_n is not None else w_n), 1
                else:  # Illinois halves the weight of an end kept twice
                    n, w_p = m, (0.5 * w_p if last < 0 else w_p)
                    w_n, last = (m[1] if m[1] < 0.0 else None), -1
            if n[1] < 0.0:
                return n if -n[1] < p[1] else p
            if n[1] > 0.0:
                p = n  # a dip of G that stays above G*
            else:
                reason = f"{n[3]} below kappa = {math.exp(p[0]):.4g}"
        p = q
    raise SteadyStateError(f"no sign change of G(kappa) - G* on (0, {math.exp(x_max):.6g}]: "
                           f"{reason or f'G > G* down to kappa = {math.exp(x):.4g}'}")


def _drag_condition(A: float, F_a: float, F_a_r: float, trig: tuple, angles: tuple,
                    terms: tuple) -> Optional[tuple]:
    """The state (lam, b - f, kappa^2, rises) at which the aerodynamic force
    (F_a_r, F_a), with |v_a|^2/v_w^2 = A, meets the drag condition, on the
    larger root lam of the module docstring's quadratic; rises is the verdict
    of :func:`_rises`.  None where lam is not real; kappa^2 NaN and rises
    False off the branch (lam < a) or without tension (b - f <= 0).  Raises
    SteadyStateError where b - f > 0 squares to 0."""
    a, b, _, cos_t = trig
    _, cos_p, _, cos_c = angles
    G_star, _, F_a_theta, _, _, _, _ = terms
    # The drag condition solved for b - f = c0 + c1*lam, put into
    # |v_a|^2/v_w^2 = A: alpha*lam^2 + 2*h*lam + C = 0.
    c0 = (F_a * math.sqrt(A / (1.0 + G_star * G_star)) - F_a_theta * cos_t * cos_p) / F_a_r
    c1 = F_a_theta * cos_c / F_a_r
    alpha, h, C = 1.0 + c1 * c1, c0 * c1 - a, c0 * c0 + 1.0 - b * b - A
    disc = h * h - alpha * C
    if disc < 0.0:
        return None
    # The larger root, written without cancellation.
    lam = (math.sqrt(disc) - h) / alpha if h <= 0.0 else -C / (h + math.sqrt(disc))
    b_f = c0 + c1 * lam
    if lam < a or b_f <= 0.0:
        return lam, b_f, math.nan, False
    try:
        kappa2 = A / (b_f * b_f) - 1.0
    except ZeroDivisionError:
        raise SteadyStateError(f"radial apparent wind factor b - f = {b_f:.3g} is beyond float "
                               f"arithmetic: its square underflows to 0") from None
    N = F_a_r * b_f + F_a_theta * (cos_t * cos_p - lam * cos_c)  # drag times |v_a|/v_w
    return lam, b_f, kappa2, _rises(kappa2, lam - a, N, F_a, F_a_r, b_f,
                                    (1.0 + kappa2) * F_a_theta * cos_c * b_f * b_f)


def _rises(K: float, s: float, N: float, F_a: float, F_a_r: float, b_f: float,
           sag: float) -> bool:
    """Whether G rises through G* with kappa at fixed f, by the module docstring's test with
    K = kappa^2, s = lam - a and sag = (1 + K)*F_a_theta*cos(chi)*(b - f)^2.  At s = 0 its
    lam term sag/s is infinite, of sag's sign, or 0 where sag is; NaN is not rising."""
    lam_term = sag / s if s > 0.0 else math.copysign(math.inf, sag) if sag else 0.0
    return K > 0.0 and 3.0 * N > 2.0 * F_a * F_a * b_f / F_a_r - lam_term


def _unreachable(F_target: float, target_end: TargetEnd, reason: str) -> SetpointUnreachableError:
    return SetpointUnreachableError(f"force {F_target:.6g} N at the {target_end}: {reason}")


def gravity_setpoint(F_target: float, target_end: TargetEnd, theta: float, angles: tuple,
                     C_L: float, C_D: float, m_t: float, m: float, S: float, v_w: float,
                     rho: float) -> tuple[float, EquilibriumResult]:
    """Reeling factor whose gravity-including equilibrium carries
    ``F_target`` at the tether end ``target_end``, in closed form, with
    ``angles`` the :func:`angle_trig` of phi and chi.

    The set-point fixes the aerodynamic force at the kite (by
    :func:`tether_balance`'s inversion at ``target_end``) and the apparent
    wind speed; the drag condition and the apparent wind speed then give a
    quadratic in the tangential velocity factor lam (see the module
    docstring).  Its larger root is admitted if lam >= max(a, 0), the
    tether carries tension (f < sin(theta)*cos(phi)), f >= -3 and G rises
    through G* with kappa there, by the sign of d log G / d log kappa at
    fixed f in closed form.  That is the root :func:`solve_kinematic_ratio`
    finds at f, except where a weight-dominated kite has a second, larger
    kappa root.  Returns the factor and its equilibrium, whose
    ``iterations`` is 0.

    Raises:
        SetpointUnreachableError: if no admissible reeling factor exists;
            the message names the condition that failed.
        TetherSagError: if the ground-end force of the root leaves the
            tether pushing on the ground station.
    """
    f, values = gravity_setpoint_step(bind_setpoint(F_target, target_end, angles, C_L, m, S),
                                      theta, C_D, m_t, v_w, rho)
    return f, EquilibriumResult(*values)


def bind_setpoint(F_target: float, target_end: TargetEnd, angles: tuple, C_L: float, m: float,
                  S: float) -> tuple:
    """The phase constants of a set-point's step kernel, checked once."""
    _check_phase(angles, S, m)
    if not 0.0 < F_target < math.inf:
        raise ValidationError(f"force target must be > 0 and finite, got {F_target}")
    if target_end not in ("kite", "ground"):
        raise ValidationError(f"force target end must be 'kite' or 'ground', got {target_end!r}")
    return F_target, target_end, angles, C_L, m, S


def gravity_setpoint_step(bound: tuple, theta: float, C_D: float, m_t: float, v_w: float,
                          rho: float) -> tuple[float, tuple]:
    """:func:`gravity_setpoint` for the :func:`bind_setpoint` constants ``bound``."""
    F_target, target_end, angles, C_L, m, S = bound
    a, b, sin_t, cos_t = trig = _trig(theta, angles, C_L, C_D, v_w, rho)
    try:  # the aerodynamic force (F_a_r, F_a) that carries the set-point
        terms = tether_balance(sin_t, cos_t, m_t, m, F_target, target_end == "ground",
                               (C_L, C_D, S, v_w, rho))
    except OverflowError:
        raise _unreachable(F_target, target_end, "its square overflows") from None
    _, force_coefficient, _, W_r, _, F_t_theta, force = terms
    if force is None or min(force[0], force[0] - W_r) <= 0.0:
        raise _unreachable(F_target, target_end, f"no radial tension at the kite (sag reaction "
                                                 f"{abs(F_t_theta):.6g} N)")
    F_a_r, F_a = force
    try:
        A = F_a / force_coefficient  # |v_a|^2/v_w^2
    except ZeroDivisionError:
        raise _beyond_floats(v_w) from None
    state = _drag_condition(A, F_a, F_a_r, trig, angles, terms)
    if state is None:
        raise _unreachable(F_target, target_end, "no real tangential velocity factor")
    lam, b_f, kappa2, rises = state
    if lam < 0.0:
        raise _unreachable(F_target, target_end,
                           f"tangential velocity factor lambda = {lam:.3g} < 0")
    if lam < a:
        raise _unreachable(F_target, target_end, f"lambda = {lam:.3g} is below a = {a:.3g}, off "
                                                 f"the tangential-speed branch")
    f = b - b_f
    if b_f <= 0.0:
        raise _unreachable(F_target, target_end, f"no tension at f = {f:.4f} >= "
                                                 f"sin(theta)*cos(phi) = {b:.4f}")
    if f < _F_LO:
        raise _unreachable(F_target, target_end, f"f = {f:.6g} is below {_F_LO}")
    if not rises:
        raise _unreachable(F_target, target_end, f"G falls through G* with kappa at f = {f:.4f}")
    return f, _equilibrium((math.sqrt(kappa2), lam, math.sqrt(A) * v_w, F_a, F_a_r), f, 0, terms,
                           S, v_w, rho)
