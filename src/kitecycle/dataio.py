"""CSV/JSON writers of every run output and of the telemetry log.

The telemetry log's record, reader and export live with the estimator in
:mod:`kitecycle.estimation`, which only ``estimate`` and ``simulate
--telemetry-out`` load; this module resolves ``read_telemetry_csv`` on first
access (PEP 562) to the estimation module's reader.

Every CSV goes through ``_write_csv`` and every JSON run output through
:func:`write_json`.  A CSV file holds the bytes ``csv.writer`` writes for
the same values, by the row contract each writer keeps as it formats its
lines: a number is its ``str`` (a float's shortest round-trip ``repr``),
a phase label is quoted by the csv rules (:func:`_label`), a missing value
is blank and every line ends in CRLF; the header goes through
``csv.writer``.  Rows format a number as ``{x!s}``: ``{x}`` gives the same
text through ``format(x, '')``, a ``__format__`` lookup and a spec parse
more per field, and ``{x!r}`` writes a numpy 2 float64 as ``np.float64(1.5)``.
:func:`write_timeseries_csv` formats each phase's angle pair once and,
within a phase, reuses the text of a number that repeats (the elevation
traction holds, a set-point force), keyed on its value, and F_t_kite's text
for F_tg only for an equal non-zero value; a zero is formatted each time, as
0.0 and -0.0 are equal, and a NaN, equal to nothing, is too: the bytes stay
``csv.writer``'s.
Files are UTF-8; a CSV, written ``_CHUNK`` lines a write, has comma separators,
``.`` decimals and a header row; JSON is indented by two spaces and ends with a
newline.  Outputs carry no timestamps so identical runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .cycle import CycleResult

if TYPE_CHECKING:  # the estimator and the telemetry reader load only where they run
    from .estimation import EstimateRecord, LogRecord, PhaseAverages

__all__ = [
    "TIMESERIES_COLUMNS",
    "TELEMETRY_COLUMNS",
    "write_timeseries_csv",
    "write_cycle_summary",
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

_CHUNK = 256  # lines that _write_csv joins into one write


def __getattr__(name: str):  # perfbench's dataio.read span wraps this name here
    if name != "read_telemetry_csv":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .estimation import read_telemetry_csv

    globals()[name] = read_telemetry_csv
    return read_telemetry_csv


def _write_csv(path: str | Path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write ``header`` through ``csv.writer``, then ``lines``, each a row's
    fields joined by commas and ended in CRLF, ``_CHUNK`` lines a write."""
    lines = iter(lines)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        while chunk := "".join(islice(lines, _CHUNK)):  # a line is never empty
            fh.write(chunk)


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
            label, held = _label(phase.phase), None
            angles = f"{degrees(phase.phi)!s},{degrees(phase.chi)!s}"
            kite_texts, ground_texts = {}, {}
            for t, r, theta, f, v_t, v_k, v_a, F_t_kite, F_tg, P in phase.rows():
                if theta != held or not theta:  # traction holds theta; ±0.0 and NaN anew
                    held = theta
                    elevation = f"{degrees(theta)!s},{degrees(0.5 * math.pi - theta)!s}"
                kite = kite_texts.get(F_t_kite) or _force_text(kite_texts, F_t_kite)
                ground = kite if F_tg == F_t_kite and F_tg else (
                    ground_texts.get(F_tg) or _force_text(ground_texts, F_tg))
                yield (f"{t!s},{label},{r!s},{elevation},{angles},{f!s},{v_t!s},{v_k!s},"
                       f"{v_a!s},{kite},{ground},{P!s}\r\n")
    _write_csv(path, TIMESERIES_COLUMNS, lines())


def write_cycle_summary(path: str | Path, cycle: CycleResult) -> None:
    summary = {
        "P_m": cycle.P_m,
        "zeta_m": cycle.zeta_m,
        "z_mt": cycle.z_mt,
        "duration": cycle.duration,
        "steps": cycle.steps,
        "phases": {p.phase: {"duration": p.duration, "mean_power": p.mean_power,
                             "energy": p.energy, "steps": p.steps} for p in cycle.phases},
    }
    write_json(path, summary)


def write_telemetry_csv(path: str | Path, records: Iterable[LogRecord]) -> None:
    def lines() -> Iterator[str]:
        degrees, phi, chi = math.degrees, None, None
        for t, F_tg, r, theta, rec_phi, rec_chi, (vk_x, vk_y, vk_z), v_t, v_w_ref, phase in records:
            if rec_phi is not phi or rec_chi is not chi:  # runs of records share them
                phi, chi = rec_phi, rec_chi
                angles = f"{degrees(phi)!s},{'' if chi is None else degrees(chi)!s}"
            yield (f"{t!s},{F_tg!s},{r!s},{degrees(theta)!s},{angles},{vk_x!s},{vk_y!s},"
                   f"{vk_z!s},{v_t!s},{v_w_ref!s},{_label(phase or '')}\r\n")
    _write_csv(path, TELEMETRY_COLUMNS, lines())


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
