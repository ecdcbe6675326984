"""CSV/JSON readers and writers.

Every CSV goes through ``_write_csv`` and every JSON run output through
:func:`write_json`.  A CSV file holds the bytes ``csv.writer`` writes for
the same values, by the row contract each writer keeps as it formats its
lines: a number is its ``str`` (a float's shortest round-trip ``repr``),
a phase label is quoted by the csv rules (:func:`_label`), a missing value
is blank and every line ends in CRLF; the header goes through
``csv.writer``.  Rows format a number as ``{x!s}``: ``{x}`` gives the same
text through ``format(x, '')``, a ``__format__`` lookup and a spec parse
more per field, and ``{x!r}`` writes a numpy 2 float64 as ``np.float64(1.5)``.
Within a phase, :func:`write_timeseries_csv` reuses the text of a number
that repeats (the elevation traction holds, a set-point force), keyed on its
value; a zero is formatted each time, as 0.0 and -0.0 are one key, and a NaN
matches only itself as an object: the bytes stay ``csv.writer``'s.
Files are UTF-8, CSV uses comma separators and ``.`` decimals, with a
header row; JSON is indented by two spaces and ends with a newline.
Outputs carry no timestamps so identical runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .cycle import CycleResult, PhaseResult
from .errors import ParseError, ValidationError
from .estimation import EstimateRecord, LogRecord, PhaseAverages, sample_fault

__all__ = [
    "TIMESERIES_COLUMNS",
    "TELEMETRY_COLUMNS",
    "write_timeseries_csv",
    "write_cycle_summary",
    "cycle_to_log_records",
    "write_telemetry_csv",
    "read_telemetry_csv",
    "write_estimates_csv",
    "write_phase_averages",
    "write_convergence_csv",
    "write_sweep_csv",
    "write_json",
]

TIMESERIES_COLUMNS = [
    "t", "phase", "r", "theta_deg", "beta_deg", "phi_deg", "chi_deg",
    "f", "v_t", "v_k", "v_a", "F_t_kite", "F_tg", "P",
]

TELEMETRY_COLUMNS = [
    "t", "F_tg", "r", "theta_deg", "phi_deg", "chi_deg",
    "vk_x", "vk_y", "vk_z", "v_t", "v_w_ref", "phase",
]
# Telemetry columns every log must fill; chi_deg and phase may be blank.
_REQUIRED_COLUMNS = [col for col in TELEMETRY_COLUMNS if col not in ("chi_deg", "phase")]


def _write_csv(path: str | Path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write ``header`` through ``csv.writer``, then each of ``lines``, a
    row's fields joined by commas and ended in CRLF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(lines)


@lru_cache(maxsize=64)
def _label(value: Optional[str]) -> str:
    """``value`` as ``csv.writer`` writes it in a row of several fields."""
    text = io.StringIO()
    csv.writer(text).writerow([value, ""])
    return text.getvalue()[:-3]  # without the empty field and the CRLF


def write_json(path: str | Path, payload: dict) -> None:
    """Write one JSON run output: cycle summary, phase averages or sweep argmax."""
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


_FORCE_TEXTS = 16  # force texts a phase keeps per column


def _force_text(texts: dict, force: float) -> str:
    """The text of ``force``, kept in ``texts`` while it has room: a set-point
    force takes a few values, F_target give or take some ulps, and the cap
    bounds a force that never repeats.  A zero is never kept, as 0.0 and
    -0.0 are one key but print differently."""
    text = f"{force!s}"
    if force and len(texts) < _FORCE_TEXTS:
        texts[force] = text
    return text


def write_timeseries_csv(path: str | Path, cycle: CycleResult) -> None:
    def lines() -> Iterator[str]:
        degrees = math.degrees
        for phase in cycle.phases:
            label, phi, chi, held = _label(phase.phase), None, None, None
            kite_texts, ground_texts = {}, {}
            for t, r, theta, rec_phi, rec_chi, f, v_t, v_k, v_a, F_t_kite, F_tg, P in phase.series:
                if rec_phi is not phi or rec_chi is not chi:  # a phase's records share them
                    phi, chi = rec_phi, rec_chi
                    angles = f"{degrees(phi)!s},{degrees(chi)!s}"
                if theta != held or not theta:  # traction holds theta; ±0.0 and NaN anew
                    held = theta
                    elevation = f"{degrees(theta)!s},{degrees(0.5 * math.pi - theta)!s}"
                kite = kite_texts.get(F_t_kite) or _force_text(kite_texts, F_t_kite)
                ground = kite if F_tg is F_t_kite else (
                    ground_texts.get(F_tg) or _force_text(ground_texts, F_tg))
                yield (f"{t!s},{label},{r!s},{elevation},{angles},{f!s},{v_t!s},{v_k!s},"
                       f"{v_a!s},{kite},{ground},{P!s}\r\n")
    _write_csv(path, TIMESERIES_COLUMNS, lines())


def _phase_summary(phase: PhaseResult) -> dict:
    return {
        "duration": phase.duration,
        "mean_power": phase.mean_power,
        "energy": phase.energy,
        "steps": phase.steps,
    }


def write_cycle_summary(path: str | Path, cycle: CycleResult) -> None:
    summary = {
        "P_m": cycle.P_m,
        "zeta_m": cycle.zeta_m,
        "z_mt": cycle.z_mt,
        "duration": cycle.duration,
        "steps": cycle.steps,
        "phases": {p.phase: _phase_summary(p) for p in cycle.phases},
    }
    write_json(path, summary)


def cycle_to_log_records(cycle: CycleResult, v_w_ref: float) -> list[LogRecord]:
    """Export a simulated cycle in the shape of a telemetry log.

    The duplicated state at each phase boundary (end of one phase, start
    of the next) is collapsed to keep timestamps strictly increasing.
    """
    records: list[LogRecord] = []
    for phase in cycle.phases:
        for rec in phase.series:
            if records and rec.t <= records[-1].t:
                continue
            records.append(LogRecord.from_speed(
                t=rec.t, F_tg=rec.F_tg, r=rec.r, theta=rec.theta, phi=rec.phi,
                chi=rec.chi, v_k=rec.v_k, v_t=rec.v_t, v_w_ref=v_w_ref, phase=phase.phase,
            ))
    return records


def write_telemetry_csv(path: str | Path, records: Sequence[LogRecord]) -> None:
    def lines() -> Iterator[str]:
        degrees, phi, chi = math.degrees, None, None
        for t, F_tg, r, theta, rec_phi, rec_chi, (vk_x, vk_y, vk_z), v_t, v_w_ref, phase in records:
            if rec_phi is not phi or rec_chi is not chi:  # runs of records share them
                phi, chi = rec_phi, rec_chi
                angles = f"{degrees(phi)!s},{'' if chi is None else degrees(chi)!s}"
            yield (f"{t!s},{F_tg!s},{r!s},{degrees(theta)!s},{angles},{vk_x!s},{vk_y!s},"
                   f"{vk_z!s},{v_t!s},{v_w_ref!s},{_label(phase or '')}\r\n")
    _write_csv(path, TELEMETRY_COLUMNS, lines())


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

    Columns are found by their header names, in any order.  Blank lines
    are skipped.  A row whose field count differs from the header's, a
    numeric value that is not finite, text that is not UTF-8 or a field
    longer than ``csv``'s limit is a ``ParseError`` naming the file line.
    Once every row parses, a row with r <= 0, F_tg < 0 or v_w_ref < 0 is
    a ``ValidationError`` naming the file line; so are timestamps that do
    not strictly increase, naming the file.  Missing course angles are
    derived from consecutive positions, by :func:`_course_angle`.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
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
    # A repeated name reads its last column, as csv.DictReader does.
    index = {name: i for i, name in enumerate(header)}
    missing = set(_REQUIRED_COLUMNS) - set(index)
    if missing:
        raise ParseError(f"{path}: missing column(s) {sorted(missing)}")
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
        if fault is None and (why := sample_fault(r, F_tg, v_w_ref)) is not None:
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


def write_estimates_csv(path: str | Path, estimates: Sequence[EstimateRecord]) -> None:
    _write_csv(path, ["t", "phase", "C_R", "LD_sys", "LD_k", "kappa", "v_a", "valid"], (
        f"{t!s},{_label(phase or '')},{C_R!s},{LD_sys!s},{LD_k!s},{kappa!s},{v_a!s},"
        f"{1 if valid else 0}\r\n"
        for t, C_R, LD_sys, LD_k, kappa, v_a, valid, phase in estimates))


def write_phase_averages(path: str | Path, averages: PhaseAverages) -> None:
    payload = {
        "C_R_o": averages.C_R_o,
        "C_R_i": averages.C_R_i,
        "LD_k_o": averages.LD_k_o,
        "LD_k_i": averages.LD_k_i,
        "samples": averages.counts,
    }
    write_json(path, payload)


def write_convergence_csv(path: str | Path, rows: Sequence[dict]) -> None:
    _write_csv(path, ["dT", "zeta_m", "steps", "ratio_to_ref"],
               (f"{row['dT']!s},{row['zeta_m']!s},{row['steps']!s},{row['ratio']!s}\r\n"
                for row in rows))


def write_sweep_csv(path: str | Path, parameter: str, rows: Sequence[dict]) -> None:
    _write_csv(path, [parameter, "P_m", "zeta_m"],
               (f"{row['value']!s},{row['P_m']!s},{row['zeta_m']!s}\r\n" for row in rows))
