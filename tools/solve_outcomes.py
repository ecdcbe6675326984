"""Outcomes of ``solve_kinematic_ratio`` on drawn problems, parent against change.

Usage, from the repository root:

    python3 tools/solve_outcomes.py --parent REV [--work DIR]

``DRAWS`` lists ``(seed, count)`` pairs.  For each, the draws are
``random.Random(seed)`` followed by ``count`` calls of
``draw_problem(rng.uniform)`` from the working tree's
``tests/test_properties.py``, numbered from 0; they are generated once and
written to ``--work`` (default ``.solve_outcomes`` in the repository root,
emptied first), one JSON line each.
Each side then solves every draw in one fresh process: the parent from a
``git archive`` of REV extracted into ``--work``, as ``bench_pairs.py``
does, and the change from the working tree.  That process is this script
run as ``--side TREE DRAWS OUT``; it counts the calls of
``steady_state._drag_condition`` per solve.

Per seed the script prints each draw whose outcome differs (error class,
message, or kappa beyond 1e-11 relative), with both outcomes; how many
draws are bit-identical; and per side the mean evaluations of solved and
of failed draws and the failed draw with the most evaluations.  It exits 1
when a draw differs.  Standard library and the test extra only.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

from bench_pairs import ROOT, extract_parent

KAPPA_RTOL = 1e-11
DRAWS = [(1, 20000), (2, 50000), (3, 100000)]


def write_draws(path: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_properties import draw_problem

    with open(path, "w", encoding="utf-8") as fh:
        for seed, count in DRAWS:
            rng = random.Random(seed)
            for _ in range(count):
                fh.write(json.dumps(list(draw_problem(rng.uniform))) + "\n")


def solve_side(tree: str, draws: str, out: str) -> None:
    """Solve every draw in ``draws`` with the package under ``tree``; one JSON
    line per draw to ``out``: [error class or None, message or kappa, calls]."""
    sys.path.insert(0, str(Path(tree) / "src"))
    from kitecycle import angle_trig, solve_kinematic_ratio, steady_state

    kernel, calls = steady_state._drag_condition, [0]

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    steady_state._drag_condition = counted
    with open(draws, encoding="utf-8") as src, open(out, "w", encoding="utf-8") as dst:
        for line in src:
            r, theta, phi, chi, f, C_L, C_D, v_w, rho, m, m_t, S = json.loads(line)
            calls[0] = 0
            try:
                res = solve_kinematic_ratio(f, theta, angle_trig(phi, chi), C_L, C_D, m_t, m, S,
                                            v_w, rho)
                outcome = [None, res.kappa]
            except Exception as exc:  # every failure is an outcome to compare
                outcome = [type(exc).__name__, str(exc)]
            dst.write(json.dumps(outcome + [calls[0]]) + "\n")


def run_side(tree: Path, draws: Path, out: Path) -> None:
    subprocess.run([sys.executable, __file__, "--side", str(tree), str(draws), str(out)],
                   check=True)


def differs(a: list, b: list) -> bool:
    if a[0] is not None or b[0] is not None:
        return a[:2] != b[:2]
    return not math.isclose(a[1], b[1], rel_tol=KAPPA_RTOL, abs_tol=0.0)


def show(outcome: list) -> str:
    error, value, calls = outcome
    return f"{error}: {value}" if error else f"kappa = {value!r}"


class Tally:
    """Evaluations of one side's solved and failed draws, and its worst failure."""

    def __init__(self):
        self.solved, self.failed, self.worst = [], [], None

    def add(self, i: int, outcome: list) -> None:
        (self.failed if outcome[0] else self.solved).append(outcome[2])
        if outcome[0] and (self.worst is None or outcome[2] > self.worst[1][2]):
            self.worst = (i, outcome)

    def report(self, side: str) -> str:
        def mean(values):
            return f"{sum(values) / len(values):.2f}" if values else "-"
        text = (f"  {side}: {len(self.solved)} solved at {mean(self.solved)} evaluations, "
                f"{len(self.failed)} failed at {mean(self.failed)}")
        if self.worst:
            text += f"; worst failed #{self.worst[0]}, {self.worst[1][2]}: {show(self.worst[1])}"
        return text


def compare(parent: Path, change: Path) -> int:
    """Print the per-seed report; the number of differing draws."""
    total = 0
    with open(parent, encoding="utf-8") as p_fh, open(change, encoding="utf-8") as c_fh:
        for seed, count in DRAWS:
            tallies, identical, differing = (Tally(), Tally()), 0, []
            for i in range(count):
                a, b = json.loads(next(p_fh)), json.loads(next(c_fh))
                tallies[0].add(i, a)
                tallies[1].add(i, b)
                identical += a[:2] == b[:2]
                if differs(a, b):
                    differing.append(f"  #{i}: parent {show(a)} | change {show(b)}")
            total += len(differing)
            print(f"seed {seed}: {count} draws, {len(differing)} differ, "
                  f"{identical} bit-identical")
            print("\n".join(differing + [tallies[0].report("parent"),
                                         tallies[1].report("change")]))
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--work", default=ROOT / ".solve_outcomes", type=Path,
                        help="directory for the draws, outcomes and parent tree")
    args = parser.parse_args(argv)
    work = args.work.resolve()
    shutil.rmtree(work, ignore_errors=True)
    (work / "parent").mkdir(parents=True)
    extract_parent(args.parent, work / "parent")
    write_draws(work / "draws.jsonl")
    run_side(work / "parent", work / "draws.jsonl", work / "parent.jsonl")
    run_side(ROOT, work / "draws.jsonl", work / "change.jsonl")
    return 1 if compare(work / "parent.jsonl", work / "change.jsonl") else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--side"]:
        solve_side(*sys.argv[2:5])
    else:
        sys.exit(main())
