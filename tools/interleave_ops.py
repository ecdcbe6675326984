"""Alternating in-process timings of the benchmark's seed-1 op pools, parent
against the working tree.

Usage, from the repository root:

    python3 tools/interleave_ops.py --parent REV [--rounds 10] [--best-of 5]
        [--workloads cycle-gravity,cycle-massless,estimate] [--work DIR]
    python3 tools/interleave_ops.py --parent REV --startup N
        [--workloads cycle-gravity] [--work DIR]

The parent side runs from a ``git archive`` of REV, the change side from a
copy of the working tree's files (tracked and untracked, not ignored),
each extracted once into its own directory under ``--work``.  The seed-1
pool of each workload is generated once by ``perfbench/workloads.py``
of the working tree, so both sides run the same inputs.

Each round starts, per workload, one fresh Python process per side, the
parent first in the 1st, 3rd, ... round and the change first in the
others.  A process imports its side's ``kitecycle`` and runs the whole
pool through ``kitecycle.cli.run_command`` ``--best-of`` times, keeping
each op's least wall time; the round's figure is the sum of those least
times over the pool, in ms.  Start-up and import are not timed.

A process empties each op's ``--out`` directory before its timed passes
and hashes every file in it after them, before the other side's process
writes there again.  Between the two it runs the pool once more, untimed,
with a counter on every module binding of
``steady_state.solve_kinematic_ratio``, ``gravity_setpoint_step`` and
``_drag_condition`` (the drag-condition kernel both call), the solver
work that timings alone do not tell apart; a name that a side lacks
counts 0 there, so a side from before the kernel still runs.  The same
pass counts the Python-level calls inside each ``simulate_cycle`` (the
``sys.setprofile`` "call" events, less those of the counters above) and
the integration steps it returns, and traces each op with ``tracemalloc``:
the op's traced peak over its steps, as the median over the ops that
integrate (not the estimate pool's), is a memory figure per step that,
unlike the resident set, does not move with the length of the tree's path.
At the end the script prints, per workload, each side's median figure,
the relative change of the medians, the median over rounds of the change's
figure over the parent's less 1, each ratio taken within its round (a slow
round slows both sides, so it moves this ratio less than either median),
and the rounds the change was faster in, then each side's median peak
resident set of its pool's process over the timed passes (read as VmHWM,
as ``--startup`` reads it) and its traced peak bytes per step, then each
side's calls of the counted functions in one pass over each pool and its
Python-level calls per integration step, then whether every output file
was byte-identical between the sides in each round, or how many differed
and the first that did.  Outputs that differ are reported, not an error: a
change may alter them on purpose.  An op that exits non-zero on either
side is an error.

``--startup N`` compares start-up instead of the op pools, as
``perfbench/run.py`` measures ``setup_s``: N alternating rounds, in each
of which each side starts ``FRESH_INTERPRETERS`` fresh interpreters that
run perfbench's ``SETUP_CODE`` on the first config of the first workload's
pool, each followed by one that runs ``BASELINE_CODE`` and scaled by
``BASE_REF_S`` over that one's wall time.  A side's round figure is the
median of its scaled times.  The script prints each side's median figure,
the parent's interquartile range, the median within-round ratio as above,
the rounds in which the change was lower and each side's median peak
resident set of start-up, read in one more, untimed ``SETUP_CODE`` process
per round (see ``PEAK_CODE``).
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, copy_working_tree, extract_parent, pair_gain_median  # noqa: E402

WORKLOADS = ("cycle-gravity", "cycle-massless", "estimate")

# The steady_state functions whose calls a side's untimed pass counts.
COUNTED = ("solve_kinematic_ratio", "gravity_setpoint_step", "_drag_condition")

# Run in a fresh process with its side's src first on sys.path: argv is
# the pool file and the number of passes; prints the least time per op,
# the calls of each COUNTED function in one more, untimed pass (0 for one
# its side lacks), the Python-level calls and steps of simulate_cycle in that
# pass, the median over its ops with steps of each op's tracemalloc peak over
# its steps (null if none has steps), the sha256 of each output file, keyed by
# its op's --out name and path, and the process's peak resident set [KB] over
# the timed passes, read as VmHWM (see PEAK_CODE).
CHILD = r"""
import contextlib, hashlib, io, json, shutil, statistics, sys, time, tracemalloc
from pathlib import Path
import kitecycle.cli, kitecycle.cycle, kitecycle.steady_state as ss
ops = json.loads(open(sys.argv[1], encoding="utf-8").read())
outs = [Path(op["argv"][op["argv"].index("--out") + 1]) for op in ops]
for out in outs:
    shutil.rmtree(out, ignore_errors=True)
best, codes = [float("inf")] * len(ops), set()
for _ in range(int(sys.argv[2])):
    for i, op in enumerate(ops):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            codes.add(kitecycle.cli.run_command(op["argv"]))
            best[i] = min(best[i], time.perf_counter() - start)
# Before the untimed pass, whose tracemalloc would raise the high-water mark.
peak = [line.split()[1] for line in open("/proc/self/status", encoding="ascii")
        if line.startswith("VmHWM:")]
calls = dict.fromkeys(sys.argv[3].split(","), 0)

def counting(name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted

# Every module-level binding of a counted function, under an alias too.
targets = {id(getattr(ss, name)): name for name in calls if hasattr(ss, name)}
for module in (kitecycle.cycle, ss):
    for attr, value in list(vars(module).items()):
        if id(value) in targets:
            setattr(module, attr, counting(targets[id(value)], value))
profiled, counter_code = {"python_calls": 0, "steps": 0}, counting("", None).__code__

def count_call(frame, event, arg):
    if event == "call" and frame.f_code is not counter_code:
        profiled["python_calls"] += 1

def profiling(fn):
    def simulate(*args, **kwargs):
        sys.setprofile(count_call)
        try:
            result = fn(*args, **kwargs)
        finally:
            sys.setprofile(None)
        profiled["steps"] += result.steps
        return result
    return simulate

kitecycle.cli.simulate_cycle = profiling(kitecycle.cli.simulate_cycle)
per_step = []
for op in ops:
    steps = profiled["steps"]
    tracemalloc.start()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.add(kitecycle.cli.run_command(op["argv"]))
    traced_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    if profiled["steps"] > steps:
        per_step.append(traced_peak / (profiled["steps"] - steps))
digests = {}
for out in outs:
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        key = f"{out.name}/{path.relative_to(out).as_posix()}"
        digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
print(json.dumps({"best": best, "codes": sorted(codes), "module": kitecycle.cli.__file__,
                  "calls": calls, "profiled": profiled, "digests": digests,
                  "peak_kb": int(peak[0]) if peak else 0,
                  "bytes_per_step": statistics.median(per_step) if per_step else None}))
"""


def generate_pool(workload: str, work: Path) -> Path:
    """The seed-1 op pool of ``workload``, its inputs written under ``work``."""
    import workloads  # perfbench's, on sys.path from main
    pool = work / f"{workload}.json"
    pool.write_text(json.dumps(workloads.generate(workload, 1, work)), encoding="utf-8")
    return pool


def time_pool(tree: Path, pool: Path, best_of: int) -> tuple[float, dict[str, int],
                                                           dict[str, str], int, float | None]:
    """Sum over the pool of each op's least time, in ms, from a fresh process,
    the calls of each COUNTED function and the Python-level calls and steps of
    ``simulate_cycle`` in one pass, the digest of each output file, the
    process's peak resident set [KB] and the median traced peak bytes per step
    of the ops that integrate (None if none does)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, str(pool), str(best_of),
                           ",".join(COUNTED)], cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"interleave_ops: {tree.name} on {pool.stem} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["module"]).resolve().is_relative_to(tree.resolve()):
        sys.exit(f"interleave_ops: {tree.name} imported kitecycle from {result['module']}")
    if result["codes"] != [0]:
        sys.exit(f"interleave_ops: {tree.name} on {pool.stem}: exit codes {result['codes']}")
    return 1e3 * sum(result["best"]), {**result["calls"], **result["profiled"]}, \
        result["digests"], result["peak_kb"], result["bytes_per_step"]


# Appended to SETUP_CODE in one more, untimed process per side and round:
# prints the process's peak resident set [KB].  Linux keeps the starting
# process's high-water mark across exec, so a child's ru_maxrss begins at
# this script's own; VmHWM counts only what the interpreter mapped.
PEAK_CODE = r"""
for line in open("/proc/self/status", encoding="ascii"):
    if line.startswith("VmHWM:"):
        print(line.split()[1])
"""


def startup_round(tree: Path, config: str) -> tuple[float, int]:
    """One side's start-up figure, as ``perfbench/run.py`` reports ``setup_s``,
    and the peak resident set [KB] of one more ``SETUP_CODE`` process."""
    import run  # perfbench's, on sys.path from main
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    scaled = []
    for _ in range(run.FRESH_INTERPRETERS):  # as run.fresh_setup_s, with this side's src
        setup = run._wall([sys.executable, "-c", run.SETUP_CODE, config], env)
        baseline = run._wall([sys.executable, "-c", run.BASELINE_CODE], dict(os.environ))
        scaled.append(setup * run.BASE_REF_S / baseline)
    peak = subprocess.run([sys.executable, "-c", run.SETUP_CODE + PEAK_CODE, config], cwd=tree,
                          env=env, check=True, capture_output=True, text=True).stdout.split()
    return statistics.median(scaled), int(peak[-1]) if peak else 0


def compare_startup(trees: dict[str, Path], config: str, rounds: int, parent_rev: str) -> None:
    """Print the start-up comparison of ``rounds`` alternating rounds."""
    times = {"parent": [], "change": []}
    peaks = {"parent": [], "change": []}
    for i in range(rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            figure, peak = startup_round(trees[side], config)
            times[side].append(figure)
            peaks[side].append(peak)
        print(f"round {i + 1} start-up: parent {times['parent'][-1]:.4f} s, "
              f"change {times['change'][-1]:.4f} s", flush=True)
    parent, change = times["parent"], times["change"]
    p, c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent * (2 if rounds < 2 else 1), n=4,
                                     method="inclusive")
    lower = sum(b < a for a, b in zip(parent, change))
    print(f"{rounds} alternating start-up rounds, parent {parent_rev}, config {config}:")
    print(f"  setup_s: parent {p:.4f} s (IQR {(q3 - q1) / p:.2%} of its median), "
          f"change {c:.4f} s ({(c - p) / p:+.1%}; within rounds "
          f"{pair_gain_median(parent, change):+.1%}), change lower in {lower}/{rounds} rounds")
    print(f"  start-up ru_maxrss (read as VmHWM): parent {statistics.median(peaks['parent']):.0f} KB, "
          f"change {statistics.median(peaks['change']):.0f} KB")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git rev of the parent side")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--best-of", type=int, default=5, help="passes over the pool per round")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset of " + ", ".join(WORKLOADS))
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the copies and inputs (default: a temporary one)")
    parser.add_argument("--startup", type=int, default=None, metavar="N",
                        help="compare start-up over N alternating rounds instead of the pools")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    if not set(names) <= set(WORKLOADS) or args.rounds < 1 or args.best_of < 1:
        parser.error(f"--workloads must name some of {WORKLOADS}; --rounds and --best-of >= 1")
    if args.startup is not None and args.startup < 1:
        parser.error("--startup must be >= 1")

    work = args.work or Path(tempfile.mkdtemp(prefix="interleave_ops-"))
    trees = {"parent": work / "parent", "change": work / "change"}
    for side, tree in trees.items():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
        if side == "parent":
            extract_parent(args.parent, tree)
        else:
            copy_working_tree(tree)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if args.startup is not None:
        pool = generate_pool(names[0], work / "pools")
        config = json.loads(pool.read_text(encoding="utf-8"))[0]["argv"][2]
        compare_startup(trees, config, args.startup, args.parent)
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    pools = {name: generate_pool(name, work / "pools") for name in names}

    times: dict[str, dict[str, list[float]]] = {name: {"parent": [], "change": []}
                                                for name in names}
    peaks: dict[str, dict[str, list[int]]] = {name: {"parent": [], "change": []}
                                              for name in names}
    # Traced peak bytes per step of each round, per workload and side.
    traced: dict[str, dict[str, list[float]]] = {name: {"parent": [], "change": []}
                                                 for name in names}
    # Output files that differed between the sides in some round, per workload.
    differ: dict[str, set[str]] = {name: set() for name in names}
    files: dict[str, set[str]] = {name: set() for name in names}
    # Calls per pass of each counted function, per workload and side; a pass
    # is deterministic, so each round must give the same counts.
    calls: dict[str, dict[str, dict[str, int]]] = {name: {} for name in names}
    for i in range(args.rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in names:
            digests = {}
            for side in order:
                ms, counts, digests[side], peak, per_step = time_pool(trees[side], pools[name],
                                                                      args.best_of)
                times[name][side].append(ms)
                peaks[name][side].append(peak)
                if per_step is not None:
                    traced[name][side].append(per_step)
                if calls[name].setdefault(side, counts) != counts:
                    sys.exit(f"interleave_ops: {side} on {name}: calls {counts} in round "
                             f"{i + 1}, {calls[name][side]} before")
            parent, change = digests["parent"], digests["change"]
            files[name] |= parent.keys() | change.keys()
            differ[name] |= {key for key in parent.keys() | change.keys()
                             if parent.get(key) != change.get(key)}
            print(f"round {i + 1} {name}: parent {times[name]['parent'][-1]:.1f} ms, "
                  f"change {times[name]['change'][-1]:.1f} ms", flush=True)

    print(f"{args.rounds} alternating rounds, best of {args.best_of} per op, parent "
          f"{args.parent}:")
    for name in names:
        parent, change = times[name]["parent"], times[name]["change"]
        p, c = statistics.median(parent), statistics.median(change)
        won = sum(b < a for a, b in zip(parent, change))
        print(f"  {name}: parent {p:.1f} ms, change {c:.1f} ms ({(c - p) / p:+.1%}; within "
              f"rounds {pair_gain_median(parent, change):+.1%}), "
              f"change faster in {won}/{args.rounds} rounds")
    print("Peak resident set of a pool's process (read as VmHWM), median:")
    for name in names:
        p, c = (statistics.median(peaks[name][side]) for side in ("parent", "change"))
        print(f"  {name}: parent {p:.0f} KB, change {c:.0f} KB"
              + (f" ({(c - p) / p:+.2%})" if p else ""))
    print("Traced peak bytes per step of an op (tracemalloc), median over the pool and rounds:")
    for name in names:
        if traced[name]["parent"] and traced[name]["change"]:
            p, c = (statistics.median(traced[name][side]) for side in ("parent", "change"))
            print(f"  {name}: parent {p:.1f} B, change {c:.1f} B ({(c - p) / p:+.1%})")
        else:
            print(f"  {name}: n/a (no op integrates a cycle)")
    print("Calls in one pass over the pool:")
    for name in names:
        for side in ("parent", "change"):
            counts = dict(calls[name][side])
            python_calls, steps = counts.pop("python_calls"), counts.pop("steps")
            counted = ", ".join(f"{fn} {n}" for fn, n in counts.items())
            per_step = f"{python_calls / steps:.2f}" if steps else "n/a"
            print(f"  {name} {side}: {counted}; Python calls per step {per_step} "
                  f"({python_calls} in {steps} steps)")
    print("Outputs, parent against change:")
    for name in names:
        if differ[name]:
            print(f"  {name}: {len(differ[name])} of {len(files[name])} output files differ, "
                  f"first {min(differ[name])}")
        else:
            print(f"  {name}: all {len(files[name])} output files byte-identical")
    if args.work is None:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
