"""CSV/JSON writers of every run output, and the CSV row contract.

The telemetry log's columns, record, writer, reader and export live with the
estimator in :mod:`kitecycle.estimation`, which only ``estimate`` and
``simulate --telemetry-out`` load; this module resolves ``read_telemetry_csv``
on first access (PEP 562) to the estimation module's reader.

Every CSV goes through :func:`write_csv` and every JSON run output through
:func:`write_json`.  A CSV file holds the bytes ``csv.writer`` writes for
the same values, by the row contract each writer keeps as it formats its
lines: a number is its ``str`` (a float's shortest round-trip ``repr``),
a phase label is quoted by the csv rules (:func:`csv_label`), a missing value
is blank and every line ends in CRLF; the header goes through
``csv.writer``.  Rows format a number as ``{x!s}``: ``{x}`` gives the same
text through ``format(x, '')``, a ``__format__`` lookup and a spec parse
more per field, and ``{x!r}`` writes a numpy 2 float64 as ``np.float64(1.5)``.
:func:`write_timeseries_csv` formats each phase's angle pair once and,
within a phase, reuses the text of a number that repeats (the elevation
traction holds, a set-point force), keyed on its value, and F_t_kite's text
for F_tg only for an equal non-zero value; a zero is formatted each time, as
0.0 and -0.0 are equal, and a NaN, equal to nothing, is too: the bytes stay
``csv.writer``'s.  From ``_SPLIT_ROWS`` rows a forked child formats the second
half into a temporary file that this process, having written the first, appends:
the same bytes.  With no ``os.fork``, or if the fork or child fails, it writes all.
Files are UTF-8; a CSV, written ``_CHUNK`` lines a write, has comma separators,
``.`` decimals and a header row; JSON is indented by two spaces and ends with a
newline.  Outputs carry no timestamps so identical runs are byte-identical.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .cycle import CycleResult

if TYPE_CHECKING:  # the estimator loads only where it runs
    from .estimation import EstimateRecord, PhaseAverages

__all__ = [
    "TIMESERIES_COLUMNS",
    "write_csv",
    "csv_label",
    "write_timeseries_csv",
    "write_cycle_summary",
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

_CHUNK = 256  # lines that write_csv joins into one write
_SPLIT_ROWS = 2048  # timeseries rows from which a forked child formats the second half


def __getattr__(name: str):  # perfbench's dataio.read span wraps this name here
    if name != "read_telemetry_csv":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .estimation import read_telemetry_csv

    globals()[name] = read_telemetry_csv
    return read_telemetry_csv


def write_csv(path: str | Path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write ``header`` through ``csv.writer``, then ``lines``, each a row's
    fields joined by commas and ended in CRLF, ``_CHUNK`` lines a write."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        _write_lines(fh, lines)


def _write_lines(fh, lines: Iterable[str]) -> None:
    lines = iter(lines)
    while chunk := "".join(islice(lines, _CHUNK)):  # a line is never empty
        fh.write(chunk)


@lru_cache(maxsize=64)
def csv_label(value: Optional[str]) -> str:
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
    def lines(lo: int, hi: int) -> Iterator[str]:  # the rows lo to hi - 1 of the cycle
        degrees, start = math.degrees, 0
        for phase in cycle.phases:
            a, b, start = max(lo - start, 0), max(hi - start, 0), start + len(phase.values) // 10
            label, held = csv_label(phase.phase), None
            angles = f"{degrees(phase.phi)!s},{degrees(phase.chi)!s}"
            kite_texts, ground_texts = {}, {}
            for t, r, theta, f, v_t, v_k, v_a, F_t_kite, F_tg, P in islice(phase.rows(), a, b):
                if theta != held or not theta:  # traction holds theta; ±0.0 and NaN anew
                    held = theta
                    elevation = f"{degrees(theta)!s},{degrees(0.5 * math.pi - theta)!s}"
                kite = kite_texts.get(F_t_kite) or _force_text(kite_texts, F_t_kite)
                ground = kite if F_tg == F_t_kite and F_tg else (
                    ground_texts.get(F_tg) or _force_text(ground_texts, F_tg))
                yield (f"{t!s},{label},{r!s},{elevation},{angles},{f!s},{v_t!s},{v_k!s},"
                       f"{v_a!s},{kite},{ground},{P!s}\r\n")
    rows = sum(len(phase.values) for phase in cycle.phases) // 10
    if rows < _SPLIT_ROWS or not hasattr(os, "fork"):
        return write_csv(path, TIMESERIES_COLUMNS, lines(0, rows))
    import shutil, tempfile  # only a split write loads them
    half = rows // 2
    with open(path, "w", newline="", encoding="utf-8") as fh, tempfile.TemporaryFile(
            "w+", newline="", encoding="utf-8", dir=Path(path).parent) as tail:
        csv.writer(fh).writerow(TIMESERIES_COLUMNS)
        try:
            pid = os.fork()
        except OSError:
            pid = -1
        if pid == 0:  # the child writes the second half to tail, never to fh
            try:
                _write_lines(tail, lines(half, rows))
                tail.flush()
                os._exit(0)
            finally:  # reached only if the child raised: os._exit does not return
                os._exit(1)
        try:
            _write_lines(fh, lines(0, half))
        finally:
            try:  # where SIGCHLD is ignored, the child reaps itself and leaves no status
                status = os.waitpid(pid, 0)[1] if pid > 0 else -1
            except ChildProcessError:
                status = -1
        if status == 0:
            fh.flush()
            tail.seek(0)
            shutil.copyfileobj(tail.buffer, fh.buffer)
        else:  # no fork, a failed child or no exit status: this process writes the second half
            _write_lines(fh, lines(half, rows))


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


def write_estimates_csv(path: str | Path, estimates: Sequence[EstimateRecord]) -> None:
    write_csv(path, ["t", "phase", "C_R", "LD_sys", "LD_k", "kappa", "v_a", "valid"], (
        f"{t!s},{csv_label(phase or '')},{C_R!s},{LD_sys!s},{LD_k!s},{kappa!s},{v_a!s},"
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
    write_csv(path, ["dT", "zeta_m", "steps", "ratio_to_ref"],
               (f"{row['dT']!s},{row['zeta_m']!s},{row['steps']!s},{row['ratio']!s}\r\n"
                for row in rows))


def write_sweep_csv(path: str | Path, parameter: str, rows: Sequence[dict]) -> None:
    write_csv(path, [parameter, "P_m", "zeta_m"],
               (f"{row['value']!s},{row['P_m']!s},{row['zeta_m']!s}\r\n" for row in rows))
