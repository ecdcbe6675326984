"""CSV/JSON readers and writers.

All floats are written with shortest round-trip precision (``repr``,
which ``csv.writer`` applies to floats); files are UTF-8, CSV uses comma
separators and ``.`` decimals, with a header row.  Outputs carry no timestamps so identical runs are
byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .cycle import CycleResult, PhaseResult
from .errors import ParseError, ValidationError
from .estimation import EstimateRecord, LogRecord, PhaseAverages

__all__ = [
    "TIMESERIES_COLUMNS",
    "TELEMETRY_COLUMNS",
    "write_timeseries_csv",
    "write_cycle_summary",
    "cycle_to_log_records",
    "write_telemetry_csv",
    "read_telemetry_csv",
    "derive_course_angles",
    "write_estimates_csv",
    "write_phase_averages",
    "write_convergence_csv",
    "write_sweep_csv",
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


def write_timeseries_csv(path: str | Path, cycle: CycleResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMESERIES_COLUMNS)
        for phase in cycle.phases:
            for rec in phase.series:
                writer.writerow([
                    rec.t, phase.phase, rec.r, math.degrees(rec.theta),
                    math.degrees(0.5 * math.pi - rec.theta), math.degrees(rec.phi),
                    math.degrees(rec.chi), rec.f, rec.v_t, rec.v_k, rec.v_a,
                    rec.F_t_kite, rec.F_tg, rec.P,
                ])


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
    Path(path).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TELEMETRY_COLUMNS)
        for rec in records:
            writer.writerow([
                rec.t, rec.F_tg, rec.r,
                math.degrees(rec.theta), math.degrees(rec.phi),
                "" if rec.chi is None else math.degrees(rec.chi),
                rec.vk[0], rec.vk[1], rec.vk[2],
                rec.v_t, rec.v_w_ref,
                rec.phase or "",
            ])


def derive_course_angles(records: list[LogRecord]) -> list[LogRecord]:
    """Fill missing course angles by finite differences of position.

    The course angle is the direction of the tangential displacement
    (d_theta, sin(theta)*d_phi) between consecutive samples; the last
    sample inherits its predecessor's value.
    """
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
        out[i] = replace(rec, chi=last_chi)
    return out


def _finite(row: dict, column: str, where: str) -> float:
    try:
        value = float(row[column])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{where}: column {column} is not finite: {row[column]!r}")
    return value


def read_telemetry_csv(path: str | Path) -> list[LogRecord]:
    """Parse a telemetry CSV and validate the series invariants.

    Every numeric value must be finite.  Missing course angles are
    derived from consecutive positions.
    """
    records: list[LogRecord] = []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError(f"{path}: empty file")
        missing = set(_REQUIRED_COLUMNS) - set(reader.fieldnames)
        if missing:
            raise ParseError(f"{path}: missing column(s) {sorted(missing)}")
        for i, row in enumerate(reader, start=2):
            where = f"{path}: line {i}"
            t, F_tg, r, theta, phi, vk_x, vk_y, vk_z, v_t, v_w_ref = (
                _finite(row, col, where) for col in _REQUIRED_COLUMNS)
            chi = math.radians(_finite(row, "chi_deg", where)) if row.get("chi_deg") else None
            try:
                records.append(LogRecord(
                    t=t, F_tg=F_tg, r=r, theta=math.radians(theta), phi=math.radians(phi),
                    chi=chi, vk=(vk_x, vk_y, vk_z), v_t=v_t, v_w_ref=v_w_ref,
                    phase=row.get("phase") or None,
                ))
            except ValidationError as exc:
                raise ValidationError(f"{where}: {exc}") from exc
    if any(b.t <= a.t for a, b in zip(records, records[1:])):
        raise ValidationError(f"{path}: timestamps must be strictly increasing")
    if any(rec.chi is None for rec in records):
        records = derive_course_angles(records)
    return records


def write_estimates_csv(path: str | Path, estimates: Sequence[EstimateRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "phase", "C_R", "LD_sys", "LD_k", "kappa", "v_a", "valid"])
        for est in estimates:
            writer.writerow([
                est.t, est.phase or "", est.C_R, est.LD_sys,
                est.LD_k, est.kappa, est.v_a,
                "1" if est.valid else "0",
            ])


def write_phase_averages(path: str | Path, averages: PhaseAverages) -> None:
    payload = {
        "C_R_o": averages.C_R_o,
        "C_R_i": averages.C_R_i,
        "LD_k_o": averages.LD_k_o,
        "LD_k_i": averages.LD_k_i,
        "samples": averages.counts,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_convergence_csv(path: str | Path, rows: Sequence[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dT", "zeta_m", "steps", "ratio_to_ref"])
        for row in rows:
            writer.writerow([row["dT"], row["zeta_m"], row["steps"], row["ratio"]])


def write_sweep_csv(path: str | Path, parameter: str, rows: Sequence[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([parameter, "P_m", "zeta_m"])
        for row in rows:
            writer.writerow([row["value"], row["P_m"], row["zeta_m"]])
