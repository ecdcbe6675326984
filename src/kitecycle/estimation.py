"""The telemetry log and aerodynamic coefficient estimation from it.

The log's columns (:data:`TELEMETRY_COLUMNS`), its record (:class:`LogRecord`,
one row), the one rule for a valid record (:func:`record_fault`), its writer
and reader, and a simulated cycle's export to it live with the estimator: only
``estimate`` and ``simulate --telemetry-out`` load this module.  The writer
keeps ``dataio``'s row contract (``write_csv``, ``csv_label``); ``dataio``
resolves ``read_telemetry_csv`` on first access, as the same object.

Given ground tether force, kite position/velocity and a reference wind
speed, each sample is derived in one pass: its kinematics and the wind
and density at the kite; the tether mass and aerodynamic force at the kite;
the resultant aerodynamic force coefficient; and, via a short fixed-point
correction for gravity, the system and kite-only lift-to-drag ratios.
The pass is ``_bind_estimator``'s closure over what a series never
changes: the wind law and density (``atmosphere.bind_wind``), the tether's
mass per metre, diameter and drag coefficient, and the kite's mass and wing area.
:func:`segment_and_average` labels a series, binds the pass once, maps it
over the samples and averages per phase; :func:`estimate_log` does so for
a telemetry CSV; :func:`estimate_record` is the pass bound for one sample.
Wind at the kite is always extrapolated from the reference measurement
with the logarithmic profile, so gusts the ground measurement cannot see
show up as outliers; such samples are flagged invalid and skipped, never
interpolated.

The records are NamedTuples that check nothing.  Each sample is checked
once where it enters, by the one rule: in the reader (:func:`estimate_log`)
or by :func:`record_fault`, not in the pass.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Iterable, Iterator
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import dataio
from .atmosphere import Environment, bind_wind
from .cycle import RETRACTION, TRACTION, TRANSITION, CycleResult
from .dataio import csv_label, write_csv
from .errors import EmptyPhaseError, ParseError, ValidationError, clip
from .steady_state import GRAVITY, KiteParams, TetherParams, tether_balance

__all__ = ["TELEMETRY_COLUMNS", "LogRecord", "record_fault", "cycle_to_log_records",
           "write_telemetry_csv", "read_telemetry_csv", "EstimateRecord", "PhaseAverages",
           "estimate_log", "estimate_record", "segment_phases", "segment_and_average"]

# Dead band and dwell of the reeling-speed segmentation heuristic.
SEGMENT_SPEED_BAND = 0.1  # m/s
SEGMENT_MIN_DWELL = 2.0  # s
CROSSWIND_RATIO = 1.5  # least traction kite speed over the reference wind

TELEMETRY_COLUMNS = [
    "t", "F_tg", "r", "theta_deg", "phi_deg", "chi_deg",
    "vk_x", "vk_y", "vk_z", "v_t", "v_w_ref", "phase",
]
# Telemetry columns every log must fill; chi_deg and phase may be blank.
_REQUIRED_COLUMNS = [col for col in TELEMETRY_COLUMNS if col not in ("chi_deg", "phase")]


class LogRecord(NamedTuple):
    """One telemetry sample, a row of :data:`TELEMETRY_COLUMNS` with its angles in
    radians.  ``vk_x, vk_y, vk_z`` is the kite velocity in the wind reference frame
    (x downwind, z up).  ``chi`` may be None when the logger did not record a course
    angle; ``read_telemetry_csv`` derives it from positions."""

    t: float
    F_tg: float
    r: float
    theta: float
    phi: float
    chi: Optional[float]
    vk_x: float
    vk_y: float
    vk_z: float
    v_t: float
    v_w_ref: float
    phase: Optional[str] = None


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


def _sample_fault(r: float, F_tg: float, v_w_ref: float) -> Optional[str]:
    """The invariant a sample breaks, r > 0, F_tg >= 0 or v_w_ref >= 0, or None."""
    if r <= 0.0:
        return f"tether length must be > 0, got {r}"
    if F_tg < 0.0:
        return f"ground tether force must be >= 0, got {F_tg}"
    if v_w_ref < 0.0:
        return f"reference wind speed must be >= 0, got {v_w_ref}"
    return None


def record_fault(rec: LogRecord) -> Optional[str]:
    """The first number of ``rec`` that is NaN or infinite, with its value, else
    the invariant it breaks (``_sample_fault``), or None; chi may be None."""
    for name, x in zip(LogRecord._fields[:-1], rec):  # all but the phase label
        if x is not None and not math.isfinite(x):
            return f"{name} is not finite: {x}"
    return _sample_fault(rec.r, rec.F_tg, rec.v_w_ref)


def cycle_to_log_records(cycle: CycleResult, v_w_ref: float) -> Iterator[LogRecord]:
    """Yield a simulated cycle in the shape of a telemetry log: each velocity
    vector points the tangential speed sqrt(v_k^2 - v_t^2) along the course angle.

    A step no later than the last yielded, the state each phase boundary
    duplicates, is skipped to keep timestamps strictly increasing.
    """
    last = -math.inf
    for phase in cycle.phases:
        phi, chi, label = phase.phi, phase.chi, phase.phase
        for t, r, theta, _, v_t, v_k, _, _, F_tg, _ in phase.rows():
            if t <= last:
                continue
            last = t
            v_tau = math.sqrt(max(v_k**2 - v_t**2, 0.0))
            vk_x, vk_y, vk_z = _spherical_velocity_to_cartesian(theta, phi, chi, v_t, v_tau)
            yield LogRecord(t, F_tg, r, theta, phi, chi, vk_x, vk_y, vk_z, v_t, v_w_ref, label)


def write_telemetry_csv(path: str | Path, records: Iterable[LogRecord]) -> None:
    write_csv(path, TELEMETRY_COLUMNS, (
        f"{t!s},{F_tg!s},{r!s},{math.degrees(theta)!s},{math.degrees(phi)!s},"
        f"{'' if chi is None else math.degrees(chi)!s},{vk_x!s},{vk_y!s},{vk_z!s},{v_t!s},"
        f"{v_w_ref!s},{csv_label(phase or '')}\r\n"
        for t, F_tg, r, theta, phi, chi, vk_x, vk_y, vk_z, v_t, v_w_ref, phase in records))


def _course_angle(last: float, theta: float, phi: float, nxt_theta: float,
                  nxt_phi: float) -> float:
    """The course angle of a sample at (theta, phi) with no chi of its own: the direction
    (d_theta, sin(theta)*d_phi) of its move to the next sample, at (nxt_theta, nxt_phi), or
    ``last``, the course angle of the sample before, if the position does not change."""
    if nxt_theta != theta or nxt_phi != phi:
        return math.atan2(math.sin(theta) * (nxt_phi - phi), nxt_theta - theta)
    return last


def _reject_numbers(where: str, row: list[str], columns: list[tuple[str, int]]) -> None:
    """Raise the error for the first of ``columns`` in ``row`` that holds
    no finite number; a blank chi_deg is allowed."""
    for column, i in columns:
        if column == "chi_deg" and not row[i]:
            continue
        try:
            value = float(row[i])
        except ValueError as exc:
            raise ParseError(f"{where}: column {column}: {clip(str(exc))}") from None
        if not math.isfinite(value):
            raise ParseError(f"{where}: column {column} is not finite: {clip(repr(row[i]))}")


def read_telemetry_csv(path: str | Path) -> list[LogRecord]:
    """Parse a telemetry CSV and validate the series invariants.

    Columns are found by their header names, in any order, once none of
    them repeats.  A UTF-8 byte-order mark and blank lines are skipped.  A row whose field count
    differs from the header's, a numeric value that is not finite, text
    that is not UTF-8 or a field longer than ``csv``'s limit is a
    ``ParseError`` naming the file line.
    Once every row parses, a row with r <= 0, F_tg < 0 or v_w_ref < 0 is
    a ``ValidationError`` naming the file line; so are timestamps that do
    not strictly increase, naming the file.  Missing course angles are
    derived from consecutive positions, by :func:`_course_angle`.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            return _parse_rows(path, reader)
        except csv.Error as exc:  # a field over the size limit, as an unclosed quote makes
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:  # raised for a chunk: the file's offset names the line
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as again:
                line = data.count(b"\n", 0, again.start) + 1
                raise ParseError(f"{path}: line {line}: {again}") from None
            raise ParseError(f"{path}: {exc}") from None  # the file changed between the reads


def _parse_rows(path: str | Path, reader) -> list[LogRecord]:
    """The records of a telemetry ``csv.reader``, angles in radians, once
    every row parses and the series keeps its invariants."""
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    index = {name: i for i, name in enumerate(header)}
    missing = set(_REQUIRED_COLUMNS) - set(index)
    if missing:
        raise ParseError(f"{path}: missing column(s) {sorted(missing)}")
    repeated = [col for col in TELEMETRY_COLUMNS if header.count(col) > 1]
    if repeated:
        raise ParseError(f"{path}: repeated column(s) {repeated}")
    columns = [(col, index[col]) for col in [*_REQUIRED_COLUMNS, "chi_deg"] if col in index]
    numbers = itemgetter(*(index[col] for col in _REQUIRED_COLUMNS))
    i_chi, i_phase = index.get("chi_deg"), index.get("phase")
    width, radians, isfinite, make = len(header), math.radians, math.isfinite, LogRecord._make
    records, fault, ordered, last_t = [], None, True, -math.inf
    # The fields of a sample with a blank chi_deg, built once the next
    # position gives its course angle; the course angle before it.
    held, last_chi = None, 0.0
    for row in reader:
        if len(row) != width:
            if not row:
                continue
            raise ParseError(f"{path}: line {reader.line_num}: expected {width} "
                             f"fields, got {len(row)}")
        try:
            t, F_tg, r, theta, phi, vk_x, vk_y, vk_z, v_t, v_w_ref = map(float, numbers(row))
            chi = float(row[i_chi]) if i_chi is not None and row[i_chi] else None
            finite = isfinite(t + F_tg + r + theta + phi + vk_x + vk_y + vk_z + v_t + v_w_ref
                              + (chi or 0.0))
        except ValueError:
            finite = False
        if not finite:  # raises, unless only the sum of finite values overflowed
            _reject_numbers(f"{path}: line {reader.line_num}", row, columns)
        if fault is None and (why := _sample_fault(r, F_tg, v_w_ref)) is not None:
            fault = f"{path}: line {reader.line_num}: {why}"
        ordered, last_t = ordered and t > last_t, t
        theta, phi = radians(theta), radians(phi)
        if held is not None:
            held[5] = last_chi = _course_angle(last_chi, held[3], held[4], theta, phi)
            records.append(make(held))
            held = None
        phase = (row[i_phase] or None) if i_phase is not None else None
        if chi is None:
            held = [t, F_tg, r, theta, phi, None, vk_x, vk_y, vk_z, v_t, v_w_ref, phase]
        else:
            last_chi = radians(chi)
            records.append(make((t, F_tg, r, theta, phi, last_chi, vk_x, vk_y, vk_z, v_t, v_w_ref,
                                 phase)))
    if held is not None:  # the last sample inherits the course angle before it
        held[5] = last_chi
        records.append(make(held))
    if fault is not None:
        raise ValidationError(fault)
    if not ordered:
        raise ValidationError(f"{path}: timestamps must be strictly increasing")
    return records


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


def _bind_estimator(kite: KiteParams, tether: TetherParams,
                    env: Environment) -> Callable[[LogRecord, Optional[str]], EstimateRecord]:
    """:func:`estimate_record` as ``(rec, phase) -> EstimateRecord``, with the
    constants of a series bound once; ``phase``, not the record's own label,
    selects the phase gate.  It checks nothing: its callers pass only records
    that :func:`record_fault` or the reader accepted."""
    z0, wind = env.z0, bind_wind(env)
    # mass(r) is its product up to d_t**2 times r: mass(1.0)*r, float for float.
    per_metre, d_t, C_D_c, m, S = tether.mass(1.0), tether.d_t, tether.C_D_c, kite.m, kite.S
    new, nan, inf = tuple.__new__, math.nan, math.inf
    sqrt, sin, cos, hypot = math.sqrt, math.sin, math.cos, math.hypot

    def estimate(rec: LogRecord, phase: Optional[str]) -> EstimateRecord:
        t, F_tg, r, theta, phi, chi, vk_x, vk_y, vk_z, v_t, v_w_ref, _ = rec
        sin_t, cos_t, cos_p = sin(theta), cos(theta), cos(phi)
        # Kinematics: the apparent wind speed (the extrapolated wind less the
        # kite velocity) and the kinematic ratio, from the apparent wind over
        # its radial part, with NaN for what cannot be derived.
        z = r * cos_t
        v_w, rho = (0.0, 0.0) if z < z0 else wind(z, v_w_ref)
        if v_w <= 0.0:  # below the roughness length too
            return new(EstimateRecord, (t, nan, nan, nan, nan, nan, False, phase))
        v_a = sqrt((v_w - vk_x) * (v_w - vk_x) + vk_y * vk_y + vk_z * vk_z)
        b_f = sin_t * cos_p - v_t / v_w
        if b_f <= 0.0:
            return new(EstimateRecord, (t, nan, nan, nan, nan, v_a, False, phase))
        try:
            radicand = (v_a / (v_w * b_f)) ** 2 - 1.0
        except (OverflowError, ZeroDivisionError):
            # A kite velocity, over v_w*b_f, too large to square, or a v_w*b_f that underflows.
            radicand = inf
        # NaN for an infinite wind at the kite, inf for an infinite v_a or ratio.
        if not 0.0 <= radicand < inf:
            return new(EstimateRecord, (t, nan, nan, nan, nan, v_a, False, phase))
        kappa = sqrt(radicand)  # v_a > 0 here: v_a = 0 gives radicand -1
        # Aerodynamic force at the kite: the measured ground force plus the
        # airborne weights, unless the sag radicand is violated.
        m_t = per_metre * r
        try:
            force = tether_balance(sin_t, cos_t, m_t, m, F_tg, True)
        except OverflowError:  # a force or tether beyond any kite violates it too
            force = None
        if force is None:
            return new(EstimateRecord, (t, nan, nan, nan, kappa, v_a, False, phase))
        F_a = force[1]
        try:
            C_R = 2.0 * F_a / (rho * v_a**2 * S)
        except ZeroDivisionError:  # the density underflows to 0 far above any kite
            return new(EstimateRecord, (t, nan, nan, nan, kappa, v_a, False, phase))

        if phase == TRACTION:
            gated = sqrt(vk_x * vk_x + vk_y * vk_y + vk_z * vk_z) / v_w_ref < CROSSWIND_RATIO
        elif phase == RETRACTION:
            gated = (chi is None or abs(math.remainder(chi - math.pi, 2.0 * math.pi)) > 0.35
                     or abs(phi) > 0.35)
        else:
            gated = False
        if gated or F_a <= 0.0:
            return new(EstimateRecord, (t, C_R, nan, nan, kappa, v_a, False, phase))
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
                return new(EstimateRecord, (t, C_R, nan, nan, kappa, v_a, False, phase))
            cos_proj = -cos(chi)
        else:
            cos_proj = va_th / va_tau

        norm = sqrt(1.0 + kappa * kappa)
        gravity_term = norm * GRAVITY * (0.5 * m_t + m) * sin_t * cos_proj / F_a
        G = kappa + gravity_term * norm
        G = kappa + gravity_term * sqrt(1.0 + G * G)  # the lift-to-drag ratio settles after two
        if G <= 0.0:
            return new(EstimateRecord, (t, C_R, nan, nan, kappa, v_a, False, phase))
        drag = F_a / sqrt(1.0 + G * G)
        drag_tether = 0.125 * rho * d_t * r * C_D_c * v_a**2
        if drag <= drag_tether:
            return new(EstimateRecord, (t, C_R, nan, nan, kappa, v_a, False, phase))
        LD_k = G * drag / (drag - drag_tether)
        return new(EstimateRecord, (t, C_R, G, LD_k, kappa, v_a, True, phase))
    return estimate


def estimate_record(
    rec: LogRecord,
    kite: KiteParams,
    tether: TetherParams,
    env: Environment,
    phase: Optional[str] = None,
) -> EstimateRecord:
    """All estimates for one sample, each derived once: ``_bind_estimator``
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
    A sample that breaks :func:`record_fault` is a ValidationError.
    """
    if (fault := record_fault(rec)) is not None:
        raise ValidationError(fault)
    return _bind_estimator(kite, tether, env)(rec, rec.phase if phase is None else phase)


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
        raise ValidationError(f"unknown phase labels: {clip(str(sorted(bad)))}")
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
        ValidationError: if the series is empty, a sample fails
            :func:`record_fault` (naming its index), or the series
            is not strictly increasing in time.
        EmptyPhaseError: if retraction or traction has no valid samples.
    """
    last_t = -math.inf
    for i, rec in enumerate(series):
        if (fault := record_fault(rec)) is not None:
            raise ValidationError(f"sample {i}: {fault}")
        if rec.t <= last_t:
            raise ValidationError("telemetry timestamps must be strictly increasing")
        last_t = rec.t
    return _average_checked(series, kite, tether, env)


def estimate_log(path: str | Path, kite: KiteParams, tether: TetherParams,
                 env: Environment) -> PhaseAverages:
    """:func:`segment_and_average` of the telemetry CSV at ``path``, read by
    ``dataio.read_telemetry_csv``, which checks each sample once."""
    # dataio's binding of this module's reader, as perfbench's dataio.read span wraps that name.
    return _average_checked(dataio.read_telemetry_csv(path), kite, tether, env)


def _average_checked(series: Sequence[LogRecord], kite, tether, env) -> PhaseAverages:
    if not series:
        raise ValidationError("telemetry series is empty")
    estimates = list(map(_bind_estimator(kite, tether, env), series, segment_phases(series)))
    sums: dict[str, list[float]] = {RETRACTION: [0.0, 0.0], TRACTION: [0.0, 0.0]}
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

    for phase in (RETRACTION, TRACTION):
        if counts[phase]["valid"] == 0:
            raise EmptyPhaseError(f"no valid {phase} samples to average")

    n_i, n_o = counts[RETRACTION]["valid"], counts[TRACTION]["valid"]
    return PhaseAverages(
        C_R_i=sums[RETRACTION][0] / n_i,
        C_R_o=sums[TRACTION][0] / n_o,
        LD_k_i=sums[RETRACTION][1] / n_i,
        LD_k_o=sums[TRACTION][1] / n_o,
        counts=counts,
        estimates=estimates,
    )
