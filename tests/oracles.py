"""Independent brute-force oracles used by the tests.

These deliberately avoid the package's solution paths: the kinematic
ratio is found by dense grid scan over the residual of the force/velocity
geometry, or by a dense scan and bisection on log(G/G*), and the optimal
reeling factor by direct evaluation of the harvesting factor on a fine
grid.  The telemetry reader's reference reads each row through
``csv.DictReader`` and checks each value on its own.

Traction's reference is its duration as a one-dimensional integral over
the tether length, by Gauss-Legendre quadrature, and its energy in closed
form.

Two oracles are the package's earlier code, kept as the reference for the
cheaper code that replaced it: the gravity set-point step whose check that
G rises through G* is a finite-difference probe of the force geometry just
above the root, and transition's controller that makes the coasting solve
at f = 0 before it reels.

Two helpers are not oracles: the force set-points on scalars, each its step
kernel applied to ``bind_setpoint`` as the simulator binds a phase, with the
fields as an ``EquilibriumResult``.
"""

import csv
import math
from typing import NamedTuple, Optional

import numpy as np

from kitecycle import steady_state
from kitecycle.cycle import _PhaseEngine
from kitecycle.errors import NoTensionError, ParseError, TetherSagError, ValidationError
from kitecycle.estimation import TELEMETRY_COLUMNS, LogRecord
from kitecycle.steady_state import massless_state, solve_kinematic_ratio


def implied_lift_to_drag(kappa, f, theta, angles, C_L, C_D, m_t, m, S, v_w, rho):
    """Lift-to-drag ratio G(kappa) implied by the force/velocity geometry,
    evaluated vectorised over a kappa grid, at the arguments that follow
    kappa in ``solve_kinematic_ratio``'s order.

    Invalid entries (no real tangential speed, force too small, or
    non-positive drag projection) come back as NaN.
    """
    kappa = np.asarray(kappa, dtype=float)
    sin_p, cos_p, sin_c, cos_c = angles
    a = math.cos(theta) * cos_p * cos_c - sin_p * sin_c
    b = math.sin(theta) * cos_p
    b_f = b - f
    C_R = math.hypot(C_D, C_L)
    one_k2 = 1.0 + kappa**2

    lam_rad = a * a + b * b - 1.0 + kappa**2 * b_f**2
    F_a = 0.5 * rho * v_w**2 * S * C_R * one_k2 * b_f**2
    F_a_theta = -(0.5 * m_t + m) * 9.81 * math.sin(theta)
    fr2 = F_a**2 - F_a_theta**2

    with np.errstate(invalid="ignore", divide="ignore"):
        lam = a + np.sqrt(np.where(lam_rad >= 0.0, lam_rad, np.nan))
        F_a_r = np.sqrt(np.where(fr2 >= 0.0, fr2, np.nan))
        va_r = b_f * v_w
        va_th = (math.cos(theta) * cos_p - lam * cos_c) * v_w
        va_ph = (-sin_p - lam * sin_c) * v_w
        v_norm = np.sqrt(va_r**2 + va_th**2 + va_ph**2)
        drag = (F_a_r * va_r + F_a_theta * va_th) / v_norm
        ratio2 = (F_a / drag) ** 2 - 1.0
        return np.sqrt(np.where((drag > 0.0) & (ratio2 > 0.0), ratio2, np.nan)), lam


def lift_to_drag_residual(kappa, *problem):
    """|G(kappa) - G*| over a kappa grid; invalid entries and negative
    tangential speeds come back as +inf."""
    G, lam = implied_lift_to_drag(kappa, *problem)
    C_L, C_D = problem[3:5]
    residual = np.abs(G - C_L / C_D)
    return np.where(np.isfinite(residual) & (lam >= 0.0), residual, np.inf)


def bisect_kappa(*problem, points=20_000):
    """Largest kappa in (0, 50*G*] at which G(kappa) rises through G*, for
    ``solve_kinematic_ratio``'s arguments.

    A log-spaced grid from 50*G* downward finds the first entry where G
    is not above G* or is invalid, and bisection on log kappa, counting
    invalid as below, refines the change to the last float.  Returns None
    when there is no such change, or it is the edge of validity.
    """
    C_L, C_D = problem[3:5]
    LD = C_L / C_D

    def log_ratio(log_kappa):
        with np.errstate(invalid="ignore", divide="ignore"):
            G, _ = implied_lift_to_drag(np.exp(log_kappa), *problem)
            return np.log(G / LD)

    grid = np.linspace(math.log(50.0 * LD), math.log(1e-9), points)
    above = log_ratio(grid) > 0.0
    if above.all() or not above[0]:
        return None
    stop = np.flatnonzero(~above)[0]
    hi, lo = grid[stop - 1], grid[stop]
    while 0.5 * (lo + hi) not in (lo, hi):
        mid = 0.5 * (lo + hi)
        if log_ratio(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    r_hi, r_lo = abs(log_ratio(hi)), abs(log_ratio(lo))
    if r_lo < r_hi:
        return math.exp(lo)
    return math.exp(hi) if r_hi < 1e-9 else None


def grid_scan_kappa(*problem):
    """Kinematic ratio minimising |G(kappa) - G*| on (0, 3*G*] by
    two-stage dense scan, for ``solve_kinematic_ratio``'s arguments."""
    C_L, C_D = problem[3:5]
    coarse = np.linspace(1e-6, 3.0 * (C_L / C_D), 60_000)
    res = lift_to_drag_residual(coarse, *problem)
    i = int(np.argmin(res))
    if not np.isfinite(res[i]):
        return None, np.inf
    lo = coarse[max(i - 2, 0)]
    hi = coarse[min(i + 2, len(coarse) - 1)]
    fine = np.linspace(lo, hi, 40_000)
    res = lift_to_drag_residual(fine, *problem)
    j = int(np.argmin(res))
    return float(fine[j]), float(res[j])


def scan_harvesting_factor(C_R, LD, b, resolution=1e-5):
    """Argmax over f of the normalised power f*(b-f)^2 by direct scan."""
    f = np.arange(resolution, b, resolution)
    zeta = C_R * (1.0 + LD * LD) * f * (b - f) ** 2
    return float(f[int(np.argmax(zeta))])


def _finite(row, column, where):
    try:
        value = float(row[column])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{where}: column {column} is not finite: {row[column]!r}")
    return value


def course_angles(records):
    """Missing course angles by finite differences of position, each
    filled record rebuilt with ``_replace``: the course angle is the
    direction of the tangential displacement (d_theta, sin(theta)*d_phi)
    to the next sample, or the one before where the position does not
    change; the last sample inherits its predecessor's value."""
    out = list(records)
    last_chi = 0.0
    for i, rec in enumerate(out):
        if rec.chi is not None:
            last_chi = rec.chi
            continue
        if i + 1 < len(out):
            nxt = out[i + 1]
            d_theta = nxt.theta - rec.theta
            d_phi = nxt.phi - rec.phi
            if d_theta != 0.0 or d_phi != 0.0:
                last_chi = math.atan2(math.sin(rec.theta) * d_phi, d_theta)
        out[i] = rec._replace(chi=last_chi)
    return out


def dictreader_telemetry(path):
    """Telemetry records of a valid log: one ``csv.DictReader`` dict and
    one finite check per value, a record per row, then the missing
    course angles.  Line numbers in its errors count rows, not file
    lines."""
    required = [col for col in TELEMETRY_COLUMNS if col not in ("chi_deg", "phase")]
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError(f"{path}: empty file")
        missing = set(required) - set(reader.fieldnames)
        if missing:
            raise ParseError(f"{path}: missing column(s) {sorted(missing)}")
        for i, row in enumerate(reader, start=2):
            where = f"{path}: line {i}"
            t, F_tg, r, theta, phi, vk_x, vk_y, vk_z, v_t, v_w_ref = (
                _finite(row, col, where) for col in required)
            chi = math.radians(_finite(row, "chi_deg", where)) if row.get("chi_deg") else None
            records.append(LogRecord(
                t=t, F_tg=F_tg, r=r, theta=math.radians(theta), phi=math.radians(phi),
                chi=chi, vk_x=vk_x, vk_y=vk_y, vk_z=vk_z, v_t=v_t, v_w_ref=v_w_ref,
                phase=row.get("phase") or None,
            ))
    if any(b.t <= a.t for a, b in zip(records, records[1:])):
        raise ValidationError(f"{path}: timestamps must be strictly increasing")
    if any(rec.chi is None for rec in records):
        records = course_angles(records)
    return records


def gravity_setpoint(F_target, target_end, theta, angles, C_L, C_D, m_t, m, S, v_w, rho):
    """(f, equilibrium) that carries ``F_target`` at ``target_end``, with gravity."""
    f, values = steady_state.gravity_setpoint_step(
        steady_state.bind_setpoint(F_target, target_end, angles, C_L, m, S), theta, C_D, m_t, v_w,
        rho)
    return f, steady_state.EquilibriumResult(*values)


def massless_setpoint(F_target, theta, angles, C_L, C_D, S, v_w, rho):
    """(f, massless equilibrium) that carries the tether force ``F_target``."""
    f, values = steady_state.massless_setpoint_step(
        steady_state.bind_setpoint(F_target, "kite", angles, C_L, 0.0, S), theta, C_D, 0.0, v_w,
        rho)
    return f, steady_state.EquilibriumResult(*values)


# Step in log kappa of the probe that checks G rises through G*.
RISE_STEP = 1e-6


def probe_setpoint_step(bound, theta, C_D, m_t, v_w, rho):
    """``steady_state.gravity_setpoint_step`` as it was with the rising check
    made by one probe of the force geometry at kappa*exp(``RISE_STEP``), by
    :func:`implied_lift_to_drag`: G above G* there is rising, an invalid G
    is not.  Its ``iterations`` is 1, the probe."""
    ss = steady_state
    F_target, target_end, angles, C_L, m, S = bound
    a, b, sin_t, cos_t = ss._trig(theta, angles, C_L, C_D, v_w, rho)
    _, cos_p, _, cos_c = angles
    try:
        terms = ss.tether_balance(sin_t, cos_t, m_t, m, F_target, target_end == "ground",
                                  (C_L, C_D, S, v_w, rho))
    except OverflowError:
        raise ss._unreachable(F_target, target_end, "its square overflows") from None
    G_star, force_coefficient, F_a_theta, W_r, _, F_t_theta, force = terms
    if force is None or min(force[0], force[0] - W_r) <= 0.0:
        raise ss._unreachable(F_target, target_end, f"no radial tension at the kite (sag "
                                                    f"reaction {abs(F_t_theta):.6g} N)")
    F_a_r, F_a = force
    A = F_a / force_coefficient
    c0 = (F_a * math.sqrt(A / (1.0 + G_star * G_star)) - F_a_theta * cos_t * cos_p) / F_a_r
    c1 = F_a_theta * cos_c / F_a_r
    alpha, h, C = 1.0 + c1 * c1, c0 * c1 - a, c0 * c0 + 1.0 - b * b - A
    disc = h * h - alpha * C
    if disc < 0.0:
        raise ss._unreachable(F_target, target_end, "no real tangential velocity factor")
    lam = (math.sqrt(disc) - h) / alpha if h <= 0.0 else -C / (h + math.sqrt(disc))
    if lam < 0.0:
        raise ss._unreachable(F_target, target_end,
                              f"tangential velocity factor lambda = {lam:.3g} < 0")
    if lam < a:
        raise ss._unreachable(F_target, target_end, f"lambda = {lam:.3g} is below a = {a:.3g}, "
                                                    f"off the tangential-speed branch")
    b_f = c0 + c1 * lam
    f = b - b_f
    if b_f <= 0.0:
        raise ss._unreachable(F_target, target_end, f"no tension at f = {f:.4f} >= "
                                                    f"sin(theta)*cos(phi) = {b:.4f}")
    if f < -3.0:
        raise ss._unreachable(F_target, target_end, f"f = {f:.6g} is below -3.0")
    kappa2 = A / (b_f * b_f) - 1.0
    rising = kappa2 > 0.0 and implied_lift_to_drag(
        [math.sqrt(kappa2) * math.exp(RISE_STEP)], f, theta, angles, C_L, C_D, m_t, m, S, v_w,
        rho)[0][0] > G_star
    if not rising:
        raise ss._unreachable(F_target, target_end, f"G falls through G* with kappa at "
                                                    f"f = {f:.4f}")
    return f, ss._equilibrium((math.sqrt(kappa2), lam, math.sqrt(A) * v_w, F_a, F_a_r), f, 1,
                              terms, S, v_w, rho)


def coasting_first_controller(engine):
    """Transition's controller as it was for the phase engine ``engine``:
    the coasting solve at f = 0 first, then a reel to the set-point its
    force leaves, or to F_in where the kite cannot coast."""
    op, kite, kernel = engine.op, engine.kite, engine.kernel

    def controller(bounds, theta, C_D, m_t, v_w, rho):
        reel_in, reel_out = bounds
        coasting = (0.0, theta, engine.angles, engine.aero_set.C_L, C_D)
        try:
            if op.gravity:
                eq0 = solve_kinematic_ratio(*coasting, m_t, kite.m, kite.S, v_w, rho)
            else:
                eq0 = massless_state(*coasting, kite.S, v_w, rho)
        except (NoTensionError, TetherSagError):
            return kernel(reel_in, theta, C_D, m_t, v_w, rho)
        force = eq0.F_t_kite if op.force_at == "kite" else eq0.F_tg
        if force > op.F_out:
            return kernel(reel_out, theta, C_D, m_t, v_w, rho)
        if force < op.F_in:
            return kernel(reel_in, theta, C_D, m_t, v_w, rho)
        return 0.0, eq0
    return controller


class TractionReference(NamedTuple):
    """Traction's exact duration and energy, or ``stall``, the first sampled
    tether length where the reeling speed is not positive, with both inf."""

    duration: float
    energy: float
    stall: Optional[float] = None


def traction_reference(env, kite, tether, op, r_start):
    """Traction from ``r_start`` to ``r_max`` at the phase engine's own
    set-point kernel, for a ground-end set-point (``op.force_at``).

    Traction holds theta, phi and chi, so dr/dt = f(r)*v_w(r*cos(theta)) is
    autonomous in r: the duration is the integral of dr/(f*v_w) over
    [r_start, r_max], by 8-node Gauss-Legendre quadrature, and the
    energy, F_tg*dr/dt integrated over time at F_tg = F_out, is
    F_out*(r_max - r_start).  Where f <= 0 at r_start, a node or r_max
    (f is monotone in r on the presets' traction), the integral has no
    finite value, and the first such r is reported instead.
    """
    if op.force_at != "ground":
        raise ValueError("the energy is F_out times the distance only at the ground end")
    engine = _PhaseEngine(env, kite, tether, op, kite.aero_traction, op.phi_o, op.chi_o)
    bound, theta = engine.bind(op.F_out), op.theta_o

    def speed(r):  # dr/dt
        v_w, rho = engine.wind_at(r * math.cos(theta))
        m_t, C_D = engine.tether_at(r)
        return engine.kernel(bound, theta, C_D, m_t, v_w, rho)[0] * v_w

    x, w = np.polynomial.legendre.leggauss(8)
    half, mid = 0.5 * (op.r_max - r_start), 0.5 * (op.r_max + r_start)
    lengths = [mid + half * float(node) for node in x]
    speeds = [speed(r) for r in lengths]
    for r, v in zip([r_start, *lengths, op.r_max], [speed(r_start), *speeds, speed(op.r_max)]):
        if not v > 0.0:
            return TractionReference(math.inf, math.inf, r)
    duration = half * sum(float(weight) / v for weight, v in zip(w, speeds))
    return TractionReference(duration, op.F_out * (op.r_max - r_start))
