"""Aerodynamic coefficient estimation from flight telemetry.

Given ground tether force, kite position/velocity and a reference wind
speed, each sample is derived in one pass: its kinematics; the tether
mass, aerodynamic force at the kite, altitude, density and wind; the
resultant aerodynamic force coefficient; and, via a short fixed-point
correction for gravity, the system and kite-only lift-to-drag ratios.
:func:`estimate_record`, :func:`estimate_CR` and :func:`estimate_LD` all
read that pass.  Wind at the kite is always extrapolated from the
reference measurement with the logarithmic profile, so gusts the ground
measurement cannot see show up as outliers; such samples are flagged
invalid and skipped, never interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .atmosphere import Environment
from .cycle import RETRACTION, TRACTION, TRANSITION
from .errors import EmptyPhaseError, ValidationError
from .steady_state import GRAVITY, KiteParams, TetherParams

__all__ = [
    "LogRecord",
    "EstimateRecord",
    "KinematicsEstimate",
    "LDEstimate",
    "PhaseAverages",
    "derive_kinematics",
    "estimate_CR",
    "estimate_LD",
    "estimate_record",
    "segment_phases",
    "average_estimates",
    "segment_and_average",
]

# Dead band and dwell of the reeling-speed segmentation heuristic.
SEGMENT_SPEED_BAND = 0.1  # m/s
SEGMENT_MIN_DWELL = 2.0  # s
CROSSWIND_RATIO = 1.5  # least traction kite speed over the reference wind
LD_GRAVITY_UPDATES = 2  # the lift-to-drag ratio settles after two


@dataclass(frozen=True)
class LogRecord:
    """One telemetry sample.

    ``vk`` is the kite velocity vector in the wind reference frame
    (x downwind, z up).  ``chi`` may be None when the logger did not
    record a course angle; see :func:`derive_course_angles`.
    """

    t: float
    F_tg: float
    r: float
    theta: float
    phi: float
    chi: Optional[float]
    vk: tuple[float, float, float]
    v_t: float
    v_w_ref: float
    phase: Optional[str] = None

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValidationError(f"tether length must be > 0, got {self.r}")
        if self.F_tg < 0.0:
            raise ValidationError(f"ground tether force must be >= 0, got {self.F_tg}")

    @classmethod
    def from_speed(
        cls,
        t: float,
        F_tg: float,
        r: float,
        theta: float,
        phi: float,
        chi: float,
        v_k: float,
        v_t: float,
        v_w_ref: float,
        phase: Optional[str] = None,
    ) -> "LogRecord":
        """Build a record from kite speed magnitude and radial component.

        The tangential speed sqrt(v_k^2 - v_t^2) is pointed along the
        course angle to reconstruct the velocity vector.
        """
        if abs(v_t) > abs(v_k):
            raise ValidationError(
                f"radial speed {v_t} exceeds kite speed magnitude {v_k}"
            )
        v_tau = math.sqrt(max(v_k**2 - v_t**2, 0.0))
        vk = _spherical_velocity_to_cartesian(theta, phi, chi, v_t, v_tau)
        return cls(t=t, F_tg=F_tg, r=r, theta=theta, phi=phi, chi=chi,
                   vk=vk, v_t=v_t, v_w_ref=v_w_ref, phase=phase)


def _spherical_velocity_to_cartesian(
    theta: float, phi: float, chi: float, v_r: float, v_tau: float
) -> tuple[float, float, float]:
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    sin_p, cos_p = math.sin(phi), math.cos(phi)
    v_th = v_tau * math.cos(chi)
    v_ph = v_tau * math.sin(chi)
    return (
        v_r * sin_t * cos_p + v_th * cos_t * cos_p - v_ph * sin_p,
        v_r * sin_t * sin_p + v_th * cos_t * sin_p + v_ph * cos_p,
        v_r * cos_t - v_th * sin_t,
    )


@dataclass(frozen=True)
class EstimateRecord:
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


class KinematicsEstimate(NamedTuple):
    f: float
    v_a: float
    kappa: float
    valid: bool


class LDEstimate(NamedTuple):
    LD_sys: float
    LD_k: float


@dataclass
class PhaseAverages:
    """Per-phase time averages of the estimates.

    The C_R means are tether-drag-corrected (kite-only) so they are
    comparable across tether lengths; transition samples are excluded.
    """

    C_R_i: float
    C_R_o: float
    LD_k_i: float
    LD_k_o: float
    counts: dict = field(default_factory=dict)


def derive_kinematics(rec: LogRecord, env: Environment) -> KinematicsEstimate:
    """Reeling factor, apparent wind speed and kinematic ratio of a sample.

    The apparent wind is the vector difference of the extrapolated wind
    and the measured kite velocity; the kinematic ratio follows from the
    ratio of apparent wind speed to its radial component.  Samples where
    that ratio drops below one (gusts, noise) are flagged invalid.
    """
    z = rec.r * math.cos(rec.theta)
    if z < env.z0:
        return KinematicsEstimate(math.nan, math.nan, math.nan, False)
    v_w = env.log_wind_speed(z, rec.v_w_ref)
    if v_w <= 0.0:
        return KinematicsEstimate(math.nan, math.nan, math.nan, False)
    f = rec.v_t / v_w
    v_a_vec = (v_w - rec.vk[0], -rec.vk[1], -rec.vk[2])
    v_a = math.sqrt(sum(c * c for c in v_a_vec))
    b_f = math.sin(rec.theta) * math.cos(rec.phi) - f
    if b_f <= 0.0:
        return KinematicsEstimate(f, v_a, math.nan, False)
    radicand = (v_a / (v_w * b_f)) ** 2 - 1.0
    if radicand < 0.0:
        return KinematicsEstimate(f, v_a, math.nan, False)
    return KinematicsEstimate(f, v_a, math.sqrt(radicand), True)


def _gravity_projection_cosine(rec: LogRecord, v_w: float) -> Optional[float]:
    """Cosine between the polar-tangential direction (along which gravity
    acts in the tangential plane) and the apparent-wind tangential
    direction, for the wind ``v_w`` at the kite.  Falls back to
    -cos(chi), its fast-crosswind limit, when the apparent tangential
    flow vanishes."""
    sin_t, cos_t = math.sin(rec.theta), math.cos(rec.theta)
    sin_p, cos_p = math.sin(rec.phi), math.cos(rec.phi)
    e_th = (cos_t * cos_p, cos_t * sin_p, -sin_t)
    e_ph = (-sin_p, cos_p, 0.0)
    vk_th = sum(a * b for a, b in zip(rec.vk, e_th))
    vk_ph = sum(a * b for a, b in zip(rec.vk, e_ph))
    va_th = v_w * cos_t * cos_p - vk_th
    va_ph = -v_w * sin_p - vk_ph
    va_tau = math.hypot(va_th, va_ph)
    if va_tau < 1e-9:
        if rec.chi is None:
            return None
        return -math.cos(rec.chi)
    return va_th / va_tau


def _estimate_sample(
    rec: LogRecord,
    kite: KiteParams,
    tether: TetherParams,
    env: Environment,
    phase: Optional[str],
    crosswind_ratio: float = CROSSWIND_RATIO,
) -> tuple[KinematicsEstimate, Optional[float], Optional[LDEstimate]]:
    """Kinematics, C_R and (LD_sys, LD_k) of one sample, each derived once;
    C_R or the pair is None where the sample is invalid for it.

    C_R normalises the aerodynamic force at the kite (the measured ground
    force plus the airborne weights) by the apparent-wind dynamic
    pressure; tether drag is not removed.  The pair starts from the
    kinematic ratio and applies the gravity term of the tangential force
    balance iteratively.  Gravity is projected onto the measured
    apparent-wind tangential direction, which coincides with the course
    direction in the fast-crosswind limit but deviates from it noticeably
    when the kite flies barely faster than the wind.  LD_k removes the
    tether drag share of the total drag.  Traction samples must fly fast
    relative to the reference wind (``crosswind_ratio``), retraction
    samples near upward in-plane flight; these phase gates never reject C_R.
    """
    kin = derive_kinematics(rec, env)
    if not kin.valid or kin.v_a <= 0.0:
        return kin, None, None
    # Aerodynamic force at the kite: the measured ground force plus the
    # airborne weights, unless the sag radicand is violated.
    sin_t, cos_t = math.sin(rec.theta), math.cos(rec.theta)
    m_t = tether.mass(rec.r)
    F_t_tau = 0.5 * sin_t * m_t * GRAVITY
    radicand = rec.F_tg**2 - F_t_tau**2
    if radicand < 0.0:
        return kin, None, None
    F_a_r = math.sqrt(radicand) + cos_t * (m_t + kite.m) * GRAVITY
    F_a = math.hypot(F_a_r, -(0.5 * m_t + kite.m) * GRAVITY * sin_t)
    # Valid kinematics put the kite at or above z0 and make v_w_ref > 0.
    z = rec.r * cos_t
    rho = env.density(z)
    v_w = env.log_wind_speed(z, rec.v_w_ref)
    C_R = 2.0 * F_a / (rho * kin.v_a**2 * kite.S)

    if phase == TRACTION:
        v_k = math.sqrt(sum(c * c for c in rec.vk))
        if v_k / rec.v_w_ref < crosswind_ratio:
            return kin, C_R, None
    elif phase == RETRACTION:
        if rec.chi is None:
            return kin, C_R, None
        chi_err = abs(math.remainder(rec.chi - math.pi, 2.0 * math.pi))
        if chi_err > 0.35 or abs(rec.phi) > 0.35:
            return kin, C_R, None
    if F_a <= 0.0:
        return kin, C_R, None
    cos_proj = _gravity_projection_cosine(rec, v_w)
    if cos_proj is None:
        return kin, C_R, None

    kappa = kin.kappa
    gravity_term = (
        math.sqrt(1.0 + kappa * kappa)
        * GRAVITY * (0.5 * m_t + kite.m) * sin_t * cos_proj
        / F_a
    )
    G = kappa
    for _ in range(LD_GRAVITY_UPDATES):
        G = kappa + gravity_term * math.sqrt(1.0 + G * G)
    if G <= 0.0:
        return kin, C_R, None
    drag = F_a / math.sqrt(1.0 + G * G)
    drag_tether = 0.125 * rho * tether.d_t * rec.r * tether.C_D_c * kin.v_a**2
    if drag <= drag_tether:
        return kin, C_R, None
    return kin, C_R, LDEstimate(LD_sys=G, LD_k=G * drag / (drag - drag_tether))


def estimate_CR(
    rec: LogRecord, kite: KiteParams, tether: TetherParams, env: Environment
) -> Optional[float]:
    """Resultant aerodynamic force coefficient of one sample, tether drag
    included, or None for an invalid sample."""
    return _estimate_sample(rec, kite, tether, env, phase=None)[1]


def estimate_LD(
    rec: LogRecord,
    kite: KiteParams,
    tether: TetherParams,
    env: Environment,
    *,
    crosswind_ratio: float = CROSSWIND_RATIO,
    phase: Optional[str] = None,
) -> Optional[LDEstimate]:
    """System and kite-only lift-to-drag ratios of one sample, gated by
    ``phase`` (default: the record's label), or None for an invalid
    sample."""
    phase = phase if phase is not None else rec.phase
    return _estimate_sample(rec, kite, tether, env, phase, crosswind_ratio)[2]


def estimate_record(
    rec: LogRecord,
    kite: KiteParams,
    tether: TetherParams,
    env: Environment,
    phase: Optional[str] = None,
) -> EstimateRecord:
    """All estimates for one sample.  It is valid when it yields the
    lift-to-drag pair, which needs valid kinematics and C_R."""
    phase = phase if phase is not None else rec.phase
    kin, C_R, ld = _estimate_sample(rec, kite, tether, env, phase)
    return EstimateRecord(
        t=rec.t,
        C_R=C_R if C_R is not None else math.nan,
        LD_sys=ld.LD_sys if ld is not None else math.nan,
        LD_k=ld.LD_k if ld is not None else math.nan,
        kappa=kin.kappa,
        v_a=kin.v_a,
        valid=ld is not None,
        phase=phase,
    )


def segment_phases(series: Sequence[LogRecord]) -> list[str]:
    """Phase label per record.

    Explicit labels win.  Otherwise the reeling speed decides: runs of
    v_t beyond the dead band sustained for the minimum dwell are
    retraction (reeling in) or traction (reeling out); everything else is
    transition.
    """
    if all(rec.phase is not None for rec in series):
        bad = {rec.phase for rec in series} - {RETRACTION, TRANSITION, TRACTION}
        if bad:
            raise ValidationError(f"unknown phase labels: {sorted(bad)}")
        return [rec.phase for rec in series]

    def raw(rec: LogRecord) -> str:
        if rec.v_t < -SEGMENT_SPEED_BAND:
            return RETRACTION
        if rec.v_t > SEGMENT_SPEED_BAND:
            return TRACTION
        return TRANSITION

    labels = [raw(rec) for rec in series]
    out = list(labels)
    i = 0
    while i < len(labels):
        j = i
        while j < len(labels) and labels[j] == labels[i]:
            j += 1
        if labels[i] != TRANSITION:
            sustained = series[j - 1].t - series[i].t >= SEGMENT_MIN_DWELL
            if not sustained:
                for k in range(i, j):
                    out[k] = TRANSITION
        i = j
    return out


def average_estimates(estimates: Sequence[EstimateRecord]) -> PhaseAverages:
    """Per-phase averages of labelled per-sample estimates.

    Means use valid samples only and exclude the transition phase.  The
    per-phase C_R means additionally have the tether drag removed (via
    the estimated system lift-to-drag ratio), so the retraction and
    traction values characterise the kite itself.

    Raises:
        ValidationError: if ``estimates`` is empty.
        EmptyPhaseError: if retraction or traction has no valid samples.
    """
    if not estimates:
        raise ValidationError("telemetry series is empty")

    sums: dict[str, list[float]] = {RETRACTION: [0.0, 0.0, 0], TRACTION: [0.0, 0.0, 0]}
    counts = {
        RETRACTION: {"valid": 0, "invalid": 0},
        TRANSITION: {"valid": 0, "invalid": 0},
        TRACTION: {"valid": 0, "invalid": 0},
    }
    for est in estimates:
        counts[est.phase]["valid" if est.valid else "invalid"] += 1
        if est.phase == TRANSITION or not est.valid:
            continue
        # Decompose the measured C_R into lift and drag, strip the tether
        # share of the drag, and recompose.
        norm = math.sqrt(1.0 + est.LD_sys**2)
        C_L = est.C_R * est.LD_sys / norm
        C_D_kite = C_L / est.LD_k
        acc = sums[est.phase]
        acc[0] += math.hypot(C_L, C_D_kite)
        acc[1] += est.LD_k
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
    )


def segment_and_average(
    series: Sequence[LogRecord],
    kite: KiteParams,
    tether: TetherParams,
    env: Environment,
) -> PhaseAverages:
    """Segment a telemetry series, estimate each sample and average the
    estimates per phase with :func:`average_estimates`.

    Raises:
        ValidationError: if the series is empty or not strictly increasing in time.
        EmptyPhaseError: if retraction or traction has no valid samples.
    """
    if any(b.t <= a.t for a, b in zip(series, series[1:])):
        raise ValidationError("telemetry timestamps must be strictly increasing")

    labels = segment_phases(series)
    return average_estimates([
        estimate_record(rec, kite, tether, env, phase=label)
        for rec, label in zip(series, labels)
    ])
