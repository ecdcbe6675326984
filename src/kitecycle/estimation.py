"""Aerodynamic coefficient estimation from flight telemetry.

Given ground tether force, kite position/velocity and a reference wind
speed, each sample is derived in one pass: its kinematics and the wind
and density at the kite; the tether mass and aerodynamic force at the kite;
the resultant aerodynamic force coefficient; and, via a short fixed-point
correction for gravity, the system and kite-only lift-to-drag ratios.
The pass is :func:`bind_estimator`'s closure over what a series never
changes: the wind law and density (``atmosphere.bind_wind``), the tether's
mass per metre, diameter and drag coefficient, and the kite's mass and wing area.
:func:`segment_and_average` labels a series, binds the pass once, maps it
over the samples and averages per phase; :func:`estimate_record` is the
pass bound for one sample.
Wind at the kite is always extrapolated from the reference measurement
with the logarithmic profile, so gusts the ground measurement cannot see
show up as outliers; such samples are flagged invalid and skipped, never
interpolated.

The records are NamedTuples that check nothing; the telemetry record,
``telemetry.LogRecord``, belongs to the telemetry module with its reader
(the writer is ``dataio``'s, with the other run outputs).  Samples are
checked where they enter, for finite numbers and ``telemetry.sample_fault``:
by ``telemetry.read_telemetry_csv`` and by :func:`segment_and_average`, not
by the pass.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from itertools import groupby
from typing import NamedTuple, Optional, Sequence

from .atmosphere import Environment, bind_wind
from .cycle import RETRACTION, TRACTION, TRANSITION
from .errors import EmptyPhaseError, ValidationError
from .steady_state import GRAVITY, KiteParams, TetherParams, aero_force_from_ground
from .telemetry import LogRecord, sample_fault

__all__ = [
    "EstimateRecord",
    "PhaseAverages",
    "bind_estimator",
    "estimate_record",
    "segment_phases",
    "segment_and_average",
]

# Dead band and dwell of the reeling-speed segmentation heuristic.
SEGMENT_SPEED_BAND = 0.1  # m/s
SEGMENT_MIN_DWELL = 2.0  # s
CROSSWIND_RATIO = 1.5  # least traction kite speed over the reference wind
LD_GRAVITY_UPDATES = 2  # the lift-to-drag ratio settles after two

_NUMBERS = ("t", "F_tg", "r", "theta", "phi", "chi", "vk_x", "vk_y", "vk_z", "v_t", "v_w_ref")


def _non_finite(rec: LogRecord) -> Optional[str]:
    """The first number of ``rec`` that is NaN or infinite, with its value, or None."""
    t, F_tg, r, theta, phi, chi, (vk_x, vk_y, vk_z), v_t, v_w_ref, _ = rec
    for name, value in zip(_NUMBERS, (t, F_tg, r, theta, phi, 0.0 if chi is None else chi,
                                      vk_x, vk_y, vk_z, v_t, v_w_ref)):
        if not math.isfinite(value):
            return f"{name} is not finite: {value}"
    return None


class EstimateRecord(NamedTuple):
    """Derived aerodynamic estimates for one telemetry sample.

    ``C_R`` is the resultant coefficient of the airborne system as
    measured, i.e. still containing the tether drag contribution;
    ``LD_k`` has the tether drag removed.  Invalid samples carry NaNs and
    ``valid=False``.
    """

    t: float
    C_R: float
    LD_sys: float
    LD_k: float
    kappa: float
    v_a: float
    valid: bool
    phase: Optional[str] = None


class PhaseAverages(NamedTuple):
    """Per-phase time averages of the estimates.

    The C_R means are tether-drag-corrected (kite-only) so they are
    comparable across tether lengths; transition samples are excluded.
    ``estimates`` holds the per-sample estimates the means were taken from.
    """

    C_R_i: float
    C_R_o: float
    LD_k_i: float
    LD_k_o: float
    counts: dict
    estimates: list

    def __repr__(self) -> str:  # without the estimates: one per sample
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
        return f"PhaseAverages({fields})"


def bind_estimator(kite: KiteParams, tether: TetherParams,
                   env: Environment) -> Callable[[LogRecord, Optional[str]], EstimateRecord]:
    """:func:`estimate_record` as ``(rec, phase) -> EstimateRecord``, with the
    constants of a series bound once; ``phase``, not the record's own label,
    selects the phase gate."""
    z0, wind = env.z0, bind_wind(env)
    # mass(r) is its product up to d_t**2 times r: mass(1.0)*r, float for float.
    per_metre, d_t, C_D_c, m, S = tether.mass(1.0), tether.d_t, tether.C_D_c, kite.m, kite.S
    make, nan, inf = EstimateRecord._make, math.nan, math.inf
    sqrt, sin, cos, hypot = math.sqrt, math.sin, math.cos, math.hypot

    def estimate(rec: LogRecord, phase: Optional[str]) -> EstimateRecord:
        t, F_tg, r, theta, phi, chi, (vk_x, vk_y, vk_z), v_t, v_w_ref, _ = rec
        sin_t, cos_t, cos_p = sin(theta), cos(theta), cos(phi)
        # Kinematics: the apparent wind speed (the extrapolated wind less the
        # kite velocity) and the kinematic ratio, from the apparent wind over
        # its radial part, with NaN for what cannot be derived.
        z = r * cos_t
        v_w, rho = (0.0, 0.0) if z < z0 else wind(z, v_w_ref)
        if v_w <= 0.0:  # below the roughness length too
            return make((t, nan, nan, nan, nan, nan, False, phase))
        v_a = sqrt((v_w - vk_x) * (v_w - vk_x) + vk_y * vk_y + vk_z * vk_z)
        b_f = sin_t * cos_p - v_t / v_w
        if b_f <= 0.0:
            return make((t, nan, nan, nan, nan, v_a, False, phase))
        try:
            radicand = (v_a / (v_w * b_f)) ** 2 - 1.0
        except (OverflowError, ZeroDivisionError):
            # A kite velocity, over v_w*b_f, too large to square, or a v_w*b_f that underflows.
            radicand = inf
        # NaN for an infinite wind at the kite, inf for an infinite v_a or ratio.
        if not 0.0 <= radicand < inf:
            return make((t, nan, nan, nan, nan, v_a, False, phase))
        kappa = sqrt(radicand)  # v_a > 0 here: v_a = 0 gives radicand -1
        # Aerodynamic force at the kite: the measured ground force plus the
        # airborne weights, unless the sag radicand is violated.
        m_t = per_metre * r
        try:
            force = aero_force_from_ground(F_tg, sin_t, cos_t, m_t, m)
        except OverflowError:  # a force or tether beyond any kite violates it too
            force = None
        if force is None:
            return make((t, nan, nan, nan, kappa, v_a, False, phase))
        F_a = force[1]
        try:
            C_R = 2.0 * F_a / (rho * v_a**2 * S)
        except ZeroDivisionError:  # the density underflows to 0 far above any kite
            return make((t, nan, nan, nan, kappa, v_a, False, phase))

        if phase == TRACTION:
            gated = sqrt(vk_x * vk_x + vk_y * vk_y + vk_z * vk_z) / v_w_ref < CROSSWIND_RATIO
        elif phase == RETRACTION:
            gated = (chi is None or abs(math.remainder(chi - math.pi, 2.0 * math.pi)) > 0.35
                     or abs(phi) > 0.35)
        else:
            gated = False
        if gated or F_a <= 0.0:
            return make((t, C_R, nan, nan, kappa, v_a, False, phase))
        # Gravity acts along e_theta = (cos_t*cos_p, cos_t*sin_p, -sin_t); the
        # apparent wind's tangential flow has components along it and e_phi =
        # (-sin_p, cos_p, 0).
        sin_p = sin(phi)
        vk_th = vk_x * (cos_t * cos_p) + vk_y * (cos_t * sin_p) - vk_z * sin_t
        vk_ph = -vk_x * sin_p + vk_y * cos_p
        va_th = v_w * cos_t * cos_p - vk_th
        va_tau = hypot(va_th, -v_w * sin_p - vk_ph)
        if va_tau < 1e-9:
            if chi is None:
                return make((t, C_R, nan, nan, kappa, v_a, False, phase))
            cos_proj = -cos(chi)
        else:
            cos_proj = va_th / va_tau

        gravity_term = (sqrt(1.0 + kappa * kappa) * GRAVITY * (0.5 * m_t + m) * sin_t * cos_proj
                        / F_a)
        G = kappa
        for _ in range(LD_GRAVITY_UPDATES):
            G = kappa + gravity_term * sqrt(1.0 + G * G)
        if G <= 0.0:
            return make((t, C_R, nan, nan, kappa, v_a, False, phase))
        drag = F_a / sqrt(1.0 + G * G)
        drag_tether = 0.125 * rho * d_t * r * C_D_c * v_a**2
        if drag <= drag_tether:
            return make((t, C_R, nan, nan, kappa, v_a, False, phase))
        return make((t, C_R, G, G * drag / (drag - drag_tether), kappa, v_a, True, phase))
    return estimate


def estimate_record(
    rec: LogRecord,
    kite: KiteParams,
    tether: TetherParams,
    env: Environment,
    phase: Optional[str] = None,
) -> EstimateRecord:
    """All estimates for one sample, each derived once: :func:`bind_estimator`
    applied to ``rec`` under ``phase``, or its own label if None.  It is
    valid when it yields the lift-to-drag pair; each gate returns the
    record with NaN for what it rejects.

    C_R normalises the aerodynamic force at the kite (the measured ground
    force plus the airborne weights) by the apparent-wind dynamic
    pressure; tether drag is not removed.  The pair starts from the
    kinematic ratio and applies the gravity term of the tangential force
    balance iteratively.  Gravity is projected onto the measured
    apparent-wind tangential direction, which coincides with the course
    direction in the fast-crosswind limit (its fallback, -cos(chi), where
    the apparent tangential flow vanishes) but deviates from it noticeably
    when the kite flies barely faster than the wind.  LD_k removes the
    tether drag share of the total drag.  Traction samples must fly fast
    relative to the reference wind (``CROSSWIND_RATIO``), retraction
    samples near upward in-plane flight; these phase gates never reject C_R.
    """
    return bind_estimator(kite, tether, env)(rec, rec.phase if phase is None else phase)


def segment_phases(series: Sequence[LogRecord]) -> list[str]:
    """Phase label per record.

    Explicit labels win where every record has one.  Otherwise the
    reeling speed decides: runs of v_t beyond the dead band sustained for
    the minimum dwell are retraction (reeling in) or traction (reeling
    out); everything else is transition.  A label other than the three
    phases is rejected, whether or not every record has one.
    """
    given = {rec.phase for rec in series}
    bad = given - {None, RETRACTION, TRANSITION, TRACTION}
    if bad:
        raise ValidationError(f"unknown phase labels: {sorted(bad)}")
    if None not in given:
        return [rec.phase for rec in series]

    def raw(rec: LogRecord) -> str:
        if rec.v_t < -SEGMENT_SPEED_BAND:
            return RETRACTION
        if rec.v_t > SEGMENT_SPEED_BAND:
            return TRACTION
        return TRANSITION

    out = []
    for label, run in groupby(series, raw):
        run = list(run)
        sustained = label == TRANSITION or run[-1].t - run[0].t >= SEGMENT_MIN_DWELL
        out += [label if sustained else TRANSITION] * len(run)
    return out


def segment_and_average(
    series: Sequence[LogRecord],
    kite: KiteParams,
    tether: TetherParams,
    env: Environment,
) -> PhaseAverages:
    """Segment a telemetry series, estimate each sample and average the
    estimates per phase.

    Means use valid samples only and exclude the transition phase.  The
    per-phase C_R means additionally have the tether drag removed (via
    the estimated system lift-to-drag ratio), so the retraction and
    traction values characterise the kite itself.

    Raises:
        ValidationError: if the series is empty, a sample has a NaN or
            infinite number, r <= 0, F_tg < 0 or v_w_ref < 0 (naming its
            index), or the series is not strictly increasing in time.
        EmptyPhaseError: if retraction or traction has no valid samples.
    """
    if not series:
        raise ValidationError("telemetry series is empty")
    last_t = -math.inf
    for i, rec in enumerate(series):
        t, F_tg, r, theta, phi, chi, (vk_x, vk_y, vk_z), v_t, v_w_ref, _ = rec
        # A finite sum means finite numbers, at a third of the cost of the
        # check per number, which a sum that is not finite or overflows gets.
        finite = math.isfinite(t + F_tg + r + theta + phi + (chi or 0.0) + vk_x + vk_y + vk_z
                               + v_t + v_w_ref)
        fault = (None if finite else _non_finite(rec)) or sample_fault(r, F_tg, v_w_ref)
        if fault is not None:
            raise ValidationError(f"sample {i}: {fault}")
        if t <= last_t:
            raise ValidationError("telemetry timestamps must be strictly increasing")
        last_t = t

    estimates = list(map(bind_estimator(kite, tether, env), series, segment_phases(series)))
    sums: dict[str, list[float]] = {RETRACTION: [0.0, 0.0, 0], TRACTION: [0.0, 0.0, 0]}
    counts = {phase: {"valid": 0, "invalid": 0} for phase in (RETRACTION, TRANSITION, TRACTION)}
    for _, C_R, LD_sys, LD_k, _, _, valid, phase in estimates:
        counts[phase]["valid" if valid else "invalid"] += 1
        if phase == TRANSITION or not valid:
            continue
        # Decompose the measured C_R into lift and drag, strip the tether
        # share of the drag, and recompose.
        norm = math.sqrt(1.0 + LD_sys**2)
        C_L = C_R * LD_sys / norm
        C_D_kite = C_L / LD_k
        acc = sums[phase]
        acc[0] += math.hypot(C_L, C_D_kite)
        acc[1] += LD_k
        acc[2] += 1

    for phase in (RETRACTION, TRACTION):
        if sums[phase][2] == 0:
            raise EmptyPhaseError(f"no valid {phase} samples to average")

    n_i, n_o = sums[RETRACTION][2], sums[TRACTION][2]
    return PhaseAverages(
        C_R_i=sums[RETRACTION][0] / n_i,
        C_R_o=sums[TRACTION][0] / n_o,
        LD_k_i=sums[RETRACTION][1] / n_i,
        LD_k_o=sums[TRACTION][1] / n_o,
        counts=counts,
        estimates=estimates,
    )
