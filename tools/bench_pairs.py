"""Alternating parent/change pairs of ``perfbench/run.py --workload all``.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent REV --pr N [--claim WORKLOAD.METRIC]
        [--predicted TEXT] [--min-gain 0.15] [--seeds 1-10] [--seconds 20]
        [--host TEXT] [--work DIR] [--out FILE]

The parent side runs from a ``git archive`` of REV, the change side from a
copy of the working tree's files (tracked and untracked, not ignored),
each extracted afresh into its own directory under ``--work``.  Pair i
uses the i-th seed; the parent runs first in the 1st, 3rd, ... pair and
the change in the others.  Both sides run the same command with the
same ``--seconds``.

After every pair the script rewrites ``--out`` (default
``BENCH_<pr>.json``) with the keys of the earlier BENCH files: the
command, the parent rev, the host, how the pairs ran, the claim (null
without ``--claim``), a summary per end-to-end metric and workload of ``BENCHMARK.json``
(quartiles of each side, pairs the change won, relative change of the
medians, the bound and whether it holds), failed, attempted and correct
ops per side, and the last JSON line of every run.  Beside each run's
metrics, ``host_state`` holds per workload the wall-time ``ops_per_s`` and
the machine speed (relative to perfbench's reference) that the run's notes
print, so a file shows afterwards which host state a run met.  After each run it
prints the claimed metric's value, if there is a claim.  At the end it
prints the verdict of the claim, if any: met when the change wins at least nine tenths
of the pairs, ties counting for neither, the medians differ in the
better direction by more than the parent's interquartile range and the
median gain, relative to the parent's median, is at least ``--min-gain``
(default 0, no minimum).  The claim also reports, but is not judged by,
``pair_gain_median``: the median over pairs of the change's signed gain
relative to its pair's parent run, which host drift over a run shifts less
than it shifts the medians of the sides, and the same median over the
like-speed pairs only: those whose two sides ran the claim's workload at
machine speeds within ``LIKE_SPEED`` of their mean.  Every
other pairing of workload and end-to-end metric is printed as better, within its bound, worse beyond its
bound, or unresolved where the parent's own spread is wider than the
bound and not every change run beats every parent run.  Last, per workload,
it prints each side's median machine speed from the stored ``host_state``,
the largest difference of the two within a pair and the count of like-speed
pairs, so a verdict shows whether both sides met a like host; runs stored
without ``host_state`` print none of this, and it judges nothing.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 perfbench/run.py --workload all --seed SEED --seconds {seconds}"
WORKLOAD_LINE = re.compile(r"perfbench (\S+): seed ")
HOST_NOTE = re.compile(r"as wall time: ops_per_s (\S+?),.* machine speed (\S+) of reference")
# A pair's sides ran at a like speed when their machine speeds differ by at
# most this share of their mean.  It judges nothing until a null run sets it.
LIKE_SPEED = 0.10


def seeds_of(text: str) -> list[int]:
    """'1-10' or '3,5,7' as a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def extract_parent(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_working_tree(dest: Path) -> None:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, check=True,
                            capture_output=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def host_state(stdout: str) -> dict:
    """Per workload of a ``perfbench/run.py`` stdout, the wall-time
    ``ops_per_s`` and the machine speed its notes print."""
    state, workload = {}, None
    for line in stdout.splitlines():
        if head := WORKLOAD_LINE.match(line):
            workload = head.group(1)
        elif workload and (note := HOST_NOTE.search(line)):
            state[workload] = {"wall_ops_per_s": float(note.group(1)),
                               "machine_speed": float(note.group(2))}
    return state


def run_side(side: str, rev: str, work: Path, seed: int, seconds: int) -> dict:
    """One benchmark run from a fresh copy of one side: its last JSON line,
    with the ``host_state`` of its stdout."""
    tree = work / side
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    if side == "parent":
        extract_parent(rev, tree)
    else:
        copy_working_tree(tree)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {side} run, seed {seed}, exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    return {**json.loads(lines[-1]), "host_state": host_state(proc.stdout)}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def wins(parent: list[float], change: list[float], better: str) -> int:
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))


def pair_gain_median(parent: list[float], change: list[float], sign: float = 1.0) -> float:
    """The median over pairs of change/parent - 1, each ratio within its pair,
    times ``sign`` (-1 where lower is better, so that a gain is positive)."""
    return statistics.median(sign * (after / before - 1.0) for before, after in zip(parent, change))


def like_speed(runs: list[dict], workload: str) -> list[bool] | None:
    """Per pair, whether its sides ran ``workload`` at machine speeds within
    ``LIKE_SPEED`` of their mean; None unless every run stored both speeds."""
    try:
        speeds = [[run[side]["host_state"][workload]["machine_speed"]
                   for side in ("parent", "change")] for run in runs]
    except KeyError:
        return None
    return [abs(before - after) <= LIKE_SPEED * 0.5 * (before + after) for before, after in speeds]


def summarize(runs: list[dict], spec: dict) -> dict:
    summary = {}
    for workload in spec["workloads"]:
        for metric in spec["end_to_end"]:
            name = f"{workload['name']}.{metric['name']}"
            parent = [run["parent"]["metrics"][name]["value"] for run in runs]
            change = [run["change"]["metrics"][name]["value"] for run in runs]
            won = wins(parent, change, metric["better"])
            if len(runs) < 2:
                parent, change = parent * 2, change * 2  # quartiles need two values
            p, c = quartiles(parent), quartiles(change)
            rel = (c["median"] - p["median"]) / p["median"]
            worse = -rel if metric["better"] == "higher" else rel
            summary[name] = {
                "unit": metric["unit"], "better": metric["better"], "parent": p, "change": c,
                "change_wins": f"{won}/{len(runs)}",
                "median_change": round(rel, 4), "bound": metric["bound"],
                "within_bound": worse <= metric["bound"],
            }
    return summary


def claim_of(runs: list[dict], summary: dict, metric: str, predicted: str,
             min_gain: float = 0.0) -> dict:
    entry = summary[metric]
    p, c = entry["parent"], entry["change"]
    won = int(entry["change_wins"].split("/")[0])
    sign = 1.0 if entry["better"] == "higher" else -1.0
    gain = sign * (c["median"] - p["median"])
    iqr = p["q3"] - p["q1"]
    parent = [run["parent"]["metrics"][metric]["value"] for run in runs]
    change = [run["change"]["metrics"][metric]["value"] for run in runs]
    like = like_speed(runs, metric.split(".", 1)[0])
    alike = [pair for pair, keep in zip(zip(parent, change), like or []) if keep]
    return {
        "metric": metric, "predicted": predicted, "min_gain": min_gain,
        "median_parent": p["median"], "median_change": c["median"],
        "median_gain": round(gain / p["median"], 4),
        "pair_gain_median": round(pair_gain_median(parent, change, sign), 4),
        "like_speed_pairs": None if like is None else f"{sum(like)}/{len(runs)}",
        "like_speed_pair_gain_median": (round(pair_gain_median(*zip(*alike), sign), 4)
                                        if alike else None),
        "parent_iqr": iqr,
        "change_wins": entry["change_wins"],
        "met": 10 * won >= 9 * len(runs) and gain > iqr and gain >= min_gain * p["median"],
    }


def host_lines(runs: list[dict]) -> list[str]:
    """Per workload in every run's ``host_state``, each side's median machine
    speed, the largest difference of the two sides within a pair and the
    pairs whose sides ran at a like speed (see ``like_speed``)."""
    states = [run[side].get("host_state", {}) for run in runs for side in ("parent", "change")]
    workloads = [name for name in states[0] if all(name in state for state in states)]
    if not workloads:
        return []
    lines = ["machine speed of reference, median per side (largest gap within a pair):"]
    for name in workloads:
        parent, change = ([run[side]["host_state"][name]["machine_speed"] for run in runs]
                          for side in ("parent", "change"))
        gap = max(abs(before - after) for before, after in zip(parent, change))
        lines.append(f"  {name}: parent {statistics.median(parent):.3f}, change "
                     f"{statistics.median(change):.3f} ({gap:.3f}); within {LIKE_SPEED:.0%} "
                     f"of their mean in {sum(like_speed(runs, name))}/{len(runs)} pairs")
    return lines


def verdict(runs: list[dict], summary: dict, claim: dict | None) -> str:
    if claim is None:
        lines = ["no claim; every end-to-end metric:"]
    else:
        like = claim["like_speed_pair_gain_median"]
        alike = (f", {like:+.1%} over the {claim['like_speed_pairs']} like-speed pairs"
                 if like is not None else "")
        lines = [f"claim {claim['metric']}: parent {claim['median_parent']:.4g}, change "
                 f"{claim['median_change']:.4g} ({claim['median_gain']:+.1%}; median of the "
                 f"per-pair gains {claim['pair_gain_median']:+.1%}{alike}), parent IQR "
                 f"{claim['parent_iqr']:.3g}, change wins {claim['change_wins']}, minimum "
                 f"gain {claim['min_gain']:.1%}: {'MET' if claim['met'] else 'NOT MET'}"]
    for name, entry in summary.items():
        if claim is not None and name == claim["metric"]:
            continue
        p = entry["parent"]
        parent = [run["parent"]["metrics"][name]["value"] for run in runs]
        change = [run["change"]["metrics"][name]["value"] for run in runs]
        higher = entry["better"] == "higher"
        all_better = (min(change) > max(parent)) if higher else (max(change) < min(parent))
        spread = (p["q3"] - p["q1"]) / p["median"] if p["median"] else 0.0
        if all_better:
            status = "better in every run"
        elif not entry["within_bound"]:
            status = "WORSE beyond its bound"
        elif spread > entry["bound"]:
            status = "unresolved: parent spread above the bound"
        else:
            status = "within its bound"
        lines.append(f"  {name}: {entry['median_change']:+.1%}, change wins "
                     f"{entry['change_wins']}: {status}")
    return "\n".join(lines + host_lines(runs))


def report(args, rev: str, runs: list[dict], spec: dict) -> dict:
    summary = summarize(runs, spec)
    seeds = [run["seed"] for run in runs]
    return {
        "command": COMMAND.format(seconds=args.seconds),
        "parent": rev,
        "host": args.host,
        "pairs": (f"{len(runs)} alternating pairs, seeds {', '.join(map(str, seeds))} "
                  f"(pair i uses the i-th seed); the 1st, 3rd, ... pair ran the parent first, "
                  f"the others the change; 'first' names the side that ran first; the parent "
                  f"ran from a fresh `git archive` of its commit, the change from a fresh copy "
                  f"of the working tree's files; each entry holds the last JSON line of each "
                  f"run and its host_state, the wall-time ops_per_s and machine speed per "
                  f"workload from the run's notes"),
        "claim": (claim_of(runs, summary, args.claim, args.predicted, args.min_gain)
                  if args.claim else None),
        "summary": summary,
        "failed_ops": {side: sum(run[side]["failed"] for run in runs)
                       for side in ("parent", "change")},
        "attempted_ops": {side: sum(run[side]["attempted"] for run in runs)
                          for side in ("parent", "change")},
        "correct": {side: all(run[side]["correct"] for run in runs)
                    for side in ("parent", "change")},
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git rev of the parent side")
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    parser.add_argument("--claim", default=None,
                        help="claimed WORKLOAD.METRIC; without it, nothing is claimed")
    parser.add_argument("--predicted", default="", help="the claim as stated in advance")
    parser.add_argument("--min-gain", type=float, default=0.0,
                        help="least relative median gain the claim needs, e.g. 0.15")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,7'")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--host", default="", help="hardware and Python of this machine")
    parser.add_argument("--work", type=Path, default=ROOT / ".bench_pairs",
                        help="directory for the two copies")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in names:
        parser.error(f"--claim must be one of {sorted(names)}")
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    runs: list[dict] = []
    for i, seed in enumerate(seeds_of(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_side(side, rev, args.work, seed, args.seconds)
            claimed = (f": {run[side]['metrics'][args.claim]['value']:.4g}"
                       if args.claim else "")
            print(f"seed {seed} {side}{claimed}", flush=True)
        runs.append(run)
        result = report(args, rev, runs, spec)
        out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(verdict(runs, result["summary"], result["claim"]))
    shutil.rmtree(args.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
