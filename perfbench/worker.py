"""Closed loop of one workload, run in a process of its own.

Usage: python3 perfbench/worker.py PLAN RESULT

PLAN is the JSON the harness wrote: the op pool, the warm-up ops with
their reference values, the number of rounds and whether to trace.  The
worker runs the warm-up ops once, untimed, then one client sends op
after op through ``kitecycle.cli.run_command``, in that many whole
rounds of the pool.  Between ops, outside the op's timing, the
op's exit code and outputs are checked and a calibration loop is timed
to follow the speed of the machine.  With tracing, untraced and traced
rounds of the pool alternate.  RESULT receives per-op latencies and check
outcomes, the peak resident memory, and the per-layer metrics when
traced.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import kitecycle.cli
from spans import Tracer, layer_metrics

# A same-accuracy re-implementation of the solvers moves P_m and zeta_m by
# far less than this; a wrong model moves them by more.
REFERENCE_RTOL = 1e-3
# The estimator recovers the generating aerodynamics from the noisy, gusty
# logs to within 3.5 % (25 seeds tried): the gusts bias LD_k_o and are
# rarely rejected.
AERO_RTOL = 0.10
ENERGY_RTOL = 1e-9


def _close(value: float, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def _outputs(op: dict) -> tuple[str, int]:
    """Digest and total size of the op's output files."""
    digest, size = hashlib.sha256(), 0
    for path in sorted(Path(op["out"]).iterdir()):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def check(op: dict, code: int | None, reference: dict | None) -> tuple[list[str], dict]:
    """Problems with one op's outputs, and the counts read from them."""
    if code != 0:
        return [f"exit code {code}"], {}
    try:
        return _check_outputs(op, reference)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable outputs: {type(exc).__name__}: {exc}"], {}


def _check_outputs(op: dict, reference: dict | None) -> tuple[list[str], dict]:
    problems: list[str] = []
    out = Path(op["out"])
    info: dict = {}
    if op["kind"] == "simulate":
        summary = json.loads((out / "cycle_summary.json").read_text(encoding="utf-8"))
        info["steps"] = summary["steps"]
        info["phase_steps"] = {p: v["steps"] for p, v in summary["phases"].items()}
        if summary["steps"] <= 0:
            problems.append(f"steps = {summary['steps']}")
        energy = sum(p["energy"] for p in summary["phases"].values())
        if not _close(energy, summary["P_m"] * summary["duration"], ENERGY_RTOL):
            problems.append(f"phase energies {energy!r} != P_m * duration")
        values = {k: summary[k] for k in ("P_m", "zeta_m")}
    else:
        info["samples"] = op["samples"]
        averages = json.loads((out / "phase_averages.json").read_text(encoding="utf-8"))
        values = {k: averages[k] for k in op["aero"]}
        for key, ref in op["aero"].items():
            if not _close(averages[key], ref, AERO_RTOL):
                problems.append(f"{key} = {averages[key]!r}, generated with {ref!r}")
    for key, ref in (reference or {}).items():
        if not _close(values[key], ref, REFERENCE_RTOL):
            problems.append(f"{key} = {values[key]!r}, reference {ref!r}")
    info["digest"], info["bytes"] = _outputs(op)
    return problems, info


@dataclass(frozen=True)
class _Sample:
    t: float
    r: float
    theta: float
    phi: float
    f: float

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValueError("r must be positive")


_CALIBRATION_CSV = "".join(
    ",".join(repr(0.001 * i * k + 0.5) for k in range(1, 6)) + "\n" for i in range(800))


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work in the mix the
    program spends its time on: CSV parsing, frozen-dataclass records,
    a trigonometric fixed-point loop and float-to-text CSV writing.  It
    does not depend on the program, so it tracks only the speed of the
    machine.  The cyclic garbage collector is off meanwhile: a collection
    due to the previous op's allocations belongs to the ops."""
    gc.disable()
    try:
        return _calibration_work()
    finally:
        gc.enable()


def _calibration_work() -> float:
    start = perf_counter()
    records = [_Sample(*(float(x) for x in row))
               for row in csv.reader(io.StringIO(_CALIBRATION_CSV))]
    writer = csv.writer(io.StringIO())
    for rec in records:
        sin_t, cos_t = math.sin(rec.theta), math.cos(rec.theta)
        kappa = lam = 1.0 + rec.f
        for _ in range(8):
            lam = cos_t + math.sqrt(abs(sin_t * sin_t + cos_t * cos_t * kappa - 0.5))
            kappa *= math.sqrt(math.sqrt((1.0 + lam * lam) / (1.0 + kappa * kappa)))
        writer.writerow([repr(rec.t), repr(kappa), repr(lam), repr(math.degrees(rec.phi))])
    return perf_counter() - start


def run_op(op: dict) -> tuple[int | None, int, str]:
    """One op through the public entry point; exit code, ns, stderr."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        start = perf_counter_ns()
        try:
            code = kitecycle.cli.run_command(op["argv"])
        except Exception:  # an op that crashes is a failed op, not a crashed run
            code = None
            traceback.print_exc()
        elapsed = perf_counter_ns() - start
    return code, elapsed, sink_err.getvalue().strip()


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    tracer = None
    if plan["trace"]:
        tracer = Tracer()

    warmup_failures = []
    for op in plan["warmup"]:
        code, _, err = run_op(op)
        problems, _ = check(op, code, op.get("reference"))
        if op.get("reference") is None:
            problems.append("no reference value recorded for this op")
        if problems:
            warmup_failures.append({"id": op["id"], "argv": op["argv"],
                                    "problems": problems, "stderr": err})

    pool = plan["ops"]
    digests: dict[str, str] = {}
    records, traced_ops, first_traced = [], [], set()
    seen_traced: set[str] = set()
    cals = [calibrate()]  # cals[i] just before op i, cals[i + 1] just after
    for i in range(plan["rounds"] * len(pool)):
        # A fixed number of whole rounds, so every run measures the same
        # mix of ops and the percentiles fall on the same inputs.
        round_no, k = divmod(i, len(pool))
        traced = tracer is not None and round_no % 2 == 1
        op = pool[k]
        if tracer and k == 0:
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
        if traced:
            tracer.op = len(traced_ops)
        code, elapsed, err = run_op(op)
        cals.append(calibrate())
        problems, info = check(op, code, None)
        if "digest" in info:
            if digests.setdefault(op["id"], info["digest"]) != info["digest"]:
                problems.append("outputs differ from this input's first run")
        record = {"id": op["id"], "ns": elapsed, "traced": traced,
                  "items": info.get("steps", info.get("samples", 0)),
                  "problems": problems, "stderr": err if problems else ""}
        records.append(record)
        if traced:
            if op["id"] not in seen_traced:
                seen_traced.add(op["id"])
                first_traced.add(len(traced_ops))
            traced_ops.append(info)
    for i, record in enumerate(records):
        # The median of the calibrations around an op, three before and
        # three after, so that one disturbed calibration does not skew it.
        record["cal_s"] = statistics.median(cals[max(0, i - 2):i + 4])

    result = {
        "ops": records,
        "warmup_failures": warmup_failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.uninstall()
        tracer.write(Path(plan["spans"]))
        result["layers"] = layer_metrics(tracer.per_op(), traced_ops, first_traced,
                                         tracer.missing)
        result["missing"] = tracer.missing
    Path(result_path).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
