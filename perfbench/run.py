"""kitecycle benchmark: one command, three closed-loop workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload cycle-gravity --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads in turn.  With ``--trace 0``
the run prints the end-to-end metrics; with ``--trace 1`` it prints the
per-layer metrics of a traced run and the tracing overhead.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md in this
directory for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

FRESH_INTERPRETERS = 5
# Op times are reported in seconds of a reference machine: wall time
# scaled by (CAL_REF_S / calibration time measured around the op) to the
# power CAL_EXPONENT.  CAL_REF_S is a typical time of worker.calibrate()
# on the machine the benchmark was defined on (2 vCPUs, Python 3.11); it
# sets the unit.  On that shared host the speed of the CPU drifts by tens
# of percent within a minute, and the program speeds up less than the
# calibration loop does: when the loop ran 1.9 times faster, the gravity
# workload ran 1.5 times faster.  Over 42 runs of the three workloads the
# exponent 0.7 left the least spread between runs (gravity: 15 % raw,
# 9 % with exponent 1, 6 % with 0.7).
CAL_REF_S = 0.0125
CAL_EXPONENT = 0.7
# A run is a fixed number of whole rounds of the op pool, set by
# --seconds alone: enough rounds to fill --seconds at ROUND_REF_S, the
# time of one round in reference seconds when the benchmark was defined.
# So a faster or a slower program runs the same ops, and the median and
# the tail percentile fall on the same inputs.  An untraced run has at
# least MIN_ROUNDS: the 10 ops beyond the tail percentile are then all
# fine-step ops in cycle-gravity (2 of 5 a round), whatever --seconds is.
ROUND_REF_S = {"cycle-gravity": 2.55, "cycle-massless": 1.22, "estimate": 1.88}
MIN_ROUNDS = 6
WORKER_GRACE_S = 150  # beyond --seconds: start-up, warm-up, checks
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


SETUP_CODE = (
    "import sys\n"
    "import kitecycle.cli\n"
    "from kitecycle.config import load_config\n"
    "load_config(sys.argv[1])\n"
)


# setup_s is reported in seconds of the same reference machine.  Each
# fresh interpreter's wall time is scaled by BASE_REF_S over the wall
# time of a baseline interpreter started right after it, which runs
# BASELINE_CODE: program-independent start-up work, imports of
# pure-Python and C-extension modules of the standard library.
# BASE_REF_S is a typical time of the baseline on the reference machine.
# Over ten runs of each workload there, the raw set-up time spread by
# 7-23 % (IQR over median), the baseline by 11-28 %, and the scaled
# set-up time by 4.5-6.1 %.
BASE_REF_S = 0.24
BASELINE_CODE = ("import argparse, asyncio, concurrent.futures, csv, dataclasses, decimal, "
                 "email.parser, fractions, http.client, json, logging, multiprocessing, "
                 "sqlite3, ssl, statistics, tarfile, unittest, urllib.request, "
                 "xml.etree.ElementTree, zipfile\n")


def _wall(argv: list[str], env: dict) -> float:
    start = perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def fresh_setup_s(config: str) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters from start until ready for the
    first op: ``import kitecycle.cli`` plus the first ``load_config``;
    and, each right after one of them, of a fresh interpreter running
    BASELINE_CODE.  The harness has imported the package already, so
    the bytecode caches are written."""
    setup, baseline = [], []
    for _ in range(FRESH_INTERPRETERS):
        setup.append(_wall([sys.executable, "-c", SETUP_CODE, config], _env()))
        baseline.append(_wall([sys.executable, "-c", BASELINE_CODE], dict(os.environ)))
    return setup, baseline


def import_times() -> dict[str, float]:
    """Median cumulative import time [s] of ``kitecycle.cli`` and of
    ``kitecycle.steady_state`` (scipy.optimize is imported inside it),
    parsed from ``-X importtime`` of fresh interpreters."""
    wanted = {"kitecycle.cli": "cli.import_s", "kitecycle.steady_state": "steady_state.import_s"}
    samples: dict[str, list[float]] = {m: [] for m in wanted.values()}
    for _ in range(FRESH_INTERPRETERS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kitecycle.cli"],
                              env=_env(), check=True, capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in wanted:
                samples[wanted[fields[2].strip()]].append(int(fields[1]) / 1e6)
    return {m: statistics.median(v) for m, v in samples.items() if v}


def rounds(workload: str, seconds: int, trace: bool) -> int:
    """Whole rounds of the pool in one run (traced runs alternate
    untraced and traced rounds, and report no tail)."""
    return max(2 if trace else MIN_ROUNDS, math.ceil(seconds / ROUND_REF_S[workload]))


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 samples beyond
    it, and that percentile; the maximum when there are fewer than 11."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _seconds(records: list[dict]) -> list[float]:
    """Op times in reference seconds (see CAL_REF_S)."""
    return [r["ns"] / 1e9 * (CAL_REF_S / r["cal_s"]) ** CAL_EXPONENT for r in records]


def end_to_end(result: dict, setup: list[float], baseline: list[float],
               item: str) -> tuple[dict, list[str]]:
    ops = [r for r in result["ops"] if not r["traced"]]
    lat = _seconds(ops)
    busy = sum(lat)
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(s * BASE_REF_S / b for s, b in zip(setup, baseline)),
        "ops_per_s": len(ops) / busy,
        "op_s.p50": statistics.median(lat),
        "op_s.tail": tail_s,
        "items_per_s": sum(r["items"] for r in ops) / busy,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    wall = [r["ns"] / 1e9 for r in ops]
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters, each scaled by "
        f"BASE_REF_S / its baseline; as wall time {statistics.median(setup):.4g} s, "
        f"baseline {statistics.median(baseline):.4g} s",
        f"op times in reference seconds; as wall time: ops_per_s "
        f"{len(wall) / sum(wall):.4g}, op_s.p50 {statistics.median(wall):.4g} s, "
        f"op_s.tail {tail(wall)[0]:.4g} s; machine speed "
        f"{statistics.median(CAL_REF_S / r['cal_s'] for r in ops):.3f} of reference",
        f"op_s.tail: p{pct:.1f} of {len(lat)} timed ops, "
        f"{min(10, len(lat) - 1)} beyond it",
        f"items_per_s is {item} per reference second",
    ]
    return metrics, notes


def traced(result: dict, imports: dict[str, float], spans: Path) -> tuple[dict, list[str]]:
    by_input: dict[tuple[str, bool], list[float]] = {}
    for r, seconds in zip(result["ops"], _seconds(result["ops"])):
        by_input.setdefault((r["id"], r["traced"]), []).append(seconds)
    ids = {i for i, t in by_input if t and (i, False) in by_input}
    on = sum(statistics.median(by_input[i, True]) for i in ids)
    off = sum(statistics.median(by_input[i, False]) for i in ids)
    rate = {}
    for is_traced in (True, False):
        ops = [r for r in result["ops"] if r["traced"] is is_traced]
        rate[is_traced] = len(ops) / sum(_seconds(ops))
    metrics = {
        **imports,
        **result["layers"],
        "trace.ops_per_s": rate[True],
        "trace.overhead": on / off - 1.0,
    }
    notes = [
        f"cli.import_s, steady_state.import_s: median of {FRESH_INTERPRETERS} "
        "fresh interpreters, -X importtime",
        f"trace.overhead: traced over untraced median op time, paired per input; "
        f"untraced ops_per_s in this run {rate[False]:.4g}",
        "per-layer times are wall time",
        f"spans: {spans.relative_to(ROOT)}",
    ]
    return metrics, notes


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set up, run and check one workload; print its report and return
    its summary."""
    from workloads import DEFAULT_SEED, generate  # imports kitecycle from SRC

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = generate(workload, seed, work)
    warmup = generate(workload, DEFAULT_SEED, work) if seed != DEFAULT_SEED else ops
    references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    warmup = [{**op, "reference": references.get(op["id"])} for op in warmup]

    if trace:
        imports = import_times()
    else:
        setup, baseline = fresh_setup_s(ops[0]["argv"][2])

    plan, result_path = work / "plan.json", work / "result.json"
    spans = work / "spans.bin"
    plan.write_text(json.dumps({"ops": ops, "warmup": warmup,
                                "rounds": rounds(workload, seconds, trace),
                                "trace": trace, "spans": str(spans)}) + "\n",
                    encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan), str(result_path)],
                   env=_env(), check=True, timeout=seconds + WORKER_GRACE_S)
    result = json.loads(result_path.read_text(encoding="utf-8"))

    item = ("samples_per_s: telemetry samples estimated" if workload == "estimate"
            else "steps_per_s: integration steps")
    if trace:
        metrics, notes = traced(result, imports, spans)
    else:
        metrics, notes = end_to_end(result, setup, baseline, item)

    failures = result["warmup_failures"] + [
        {"id": r["id"], "problems": r["problems"], "stderr": r["stderr"]}
        for r in result["ops"] if r["problems"]]
    attempted = len(result["ops"]) + len(warmup)

    print(f"perfbench {workload}: seed {seed}, {seconds} s, trace {int(trace)}; "
          "closed loop, 1 client, no threads")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, value in metrics.items():
        print(f"  {name:<36} {value:<14.6g} {units[name]}")
    print(f"  {'failed_ratio':<36} {len(failures)}/{attempted:<12} "
          f"({len(result['ops'])} timed ops, {len(warmup)} warm-up ops "
          f"checked against reference values)")
    for note in notes:
        print(f"    {note}")
    for name in result.get("missing", []):
        print(f"  warning: trace target {name} not found; its metrics are absent")
    for f in failures:
        print(f"  FAILED op {f['id']}: {'; '.join(f['problems'])} {f['stderr'][-300:]}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def _selected(metrics: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json declares for this mode, with units."""
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cycle-gravity", "cycle-massless", "estimate", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kitecycle" / "__init__.py").is_file():
        print(f"perfbench: no kitecycle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS  # imports kitecycle from SRC
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                 for w in workloads}
    if len(summaries) == 1:
        metrics = _selected(summaries[workloads[0]]["metrics"], bool(args.trace))
    else:
        metrics = {f"{w}.{name}": value for w, s in summaries.items()
                   for name, value in _selected(s["metrics"], bool(args.trace)).items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
