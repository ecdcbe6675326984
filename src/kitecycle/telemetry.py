"""The telemetry log's record (:class:`LogRecord`), the one rule for a valid
record (:func:`record_fault`), its reader and a simulated cycle's export to it.
Every estimator entry applies the rule: the reader to each row's text, the
others through :func:`record_fault`.

Only ``estimate`` and ``simulate --telemetry-out`` load this module.  The
writer and the column names stay in ``dataio`` with the other outputs;
``dataio`` resolves the names below on first access, as the same objects.
"""

from __future__ import annotations

import csv
import math
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, Optional

from .cycle import CycleResult
from .dataio import TELEMETRY_COLUMNS
from .errors import ParseError, ValidationError

__all__ = ["LogRecord", "record_fault", "cycle_to_log_records", "read_telemetry_csv"]

# Telemetry columns every log must fill; chi_deg and phase may be blank.
_REQUIRED_COLUMNS = [col for col in TELEMETRY_COLUMNS if col not in ("chi_deg", "phase")]


class LogRecord(NamedTuple):
    """One telemetry sample.

    ``vk`` is the kite velocity vector in the wind reference frame
    (x downwind, z up).  ``chi`` may be None when the logger did not
    record a course angle; ``read_telemetry_csv`` derives it from positions.
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
    t, F_tg, r, theta, phi, chi, (vk_x, vk_y, vk_z), v_t, v_w_ref, _ = rec
    numbers = (t, F_tg, r, theta, phi, 0.0 if chi is None else chi, vk_x, vk_y, vk_z, v_t, v_w_ref)
    # A finite sum means finite numbers: only a sum that is not finite, or
    # overflows, takes the check per number.
    if not math.isfinite(sum(numbers)):
        for name, x in zip("t F_tg r theta phi chi vk_x vk_y vk_z v_t v_w_ref".split(), numbers):
            if not math.isfinite(x):
                return f"{name} is not finite: {x}"
    return _sample_fault(r, F_tg, v_w_ref)


def cycle_to_log_records(cycle: CycleResult, v_w_ref: float) -> list[LogRecord]:
    """Export a simulated cycle in the shape of a telemetry log: each velocity
    vector points the tangential speed sqrt(v_k^2 - v_t^2) along the course angle.

    The duplicated state at each phase boundary (end of one phase, start
    of the next) is collapsed to keep timestamps strictly increasing.
    """
    records: list[LogRecord] = []
    for phase in cycle.phases:
        for rec in phase.series:
            if records and rec.t <= records[-1].t:
                continue
            v_tau = math.sqrt(max(rec.v_k**2 - rec.v_t**2, 0.0))
            vk = _spherical_velocity_to_cartesian(rec.theta, rec.phi, rec.chi, rec.v_t, v_tau)
            records.append(LogRecord(rec.t, rec.F_tg, rec.r, rec.theta, rec.phi, rec.chi, vk,
                                     rec.v_t, v_w_ref, phase.phase))
    return records


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
            raise ParseError(f"{where}: column {column}: {exc}") from None
        if not math.isfinite(value):
            raise ParseError(f"{where}: column {column} is not finite: {row[i]!r}")


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
        except UnicodeDecodeError:  # raised for a chunk: the file's own offset names the line
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise ParseError(f"{path}: line {line}: {exc}") from None
            raise


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
            held = [t, F_tg, r, theta, phi, None, (vk_x, vk_y, vk_z), v_t, v_w_ref, phase]
        else:
            last_chi = radians(chi)
            records.append(make((t, F_tg, r, theta, phi, last_chi, (vk_x, vk_y, vk_z), v_t,
                                 v_w_ref, phase)))
    if held is not None:  # the last sample inherits the course angle before it
        held[5] = last_chi
        records.append(make(held))
    if fault is not None:
        raise ValidationError(fault)
    if not ordered:
        raise ValidationError(f"{path}: timestamps must be strictly increasing")
    return records
