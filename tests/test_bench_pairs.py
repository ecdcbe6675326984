"""``tools/bench_pairs.py`` keeps the host state that perfbench's notes print,
and every tool starts."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# The stdout of `python3 perfbench/run.py --workload all --seed 1 --seconds 2`.
CAPTURED = Path(__file__).parent / "data" / "perfbench_all_stdout.txt"
EXPECTED = {
    "cycle-gravity": {"wall_ops_per_s": 79.5, "machine_speed": 1.712},
    "cycle-massless": {"wall_ops_per_s": 20.53, "machine_speed": 1.674},
    "estimate": {"wall_ops_per_s": 15.99, "machine_speed": 1.733},
}


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_bench_pairs()


def test_host_state_of_a_captured_run():
    assert bench_pairs.host_state(CAPTURED.read_text(encoding="utf-8")) == EXPECTED


def test_each_run_keeps_its_host_state_beside_its_metrics(tmp_path, monkeypatch):
    stdout = CAPTURED.read_text(encoding="utf-8")
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda dest: None)
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda argv, **kwargs: subprocess.CompletedProcess(argv, 0, stdout, ""))
    run = bench_pairs.run_side("change", "HEAD", tmp_path, 1, 2)
    assert run == {**json.loads(stdout.splitlines()[-1]), "host_state": EXPECTED}


def synthetic_run(parent_speed, change_speed):
    """A pair whose two sides ran cycle-gravity at the given machine speeds."""
    return {side: {"host_state": {"cycle-gravity": {"wall_ops_per_s": 50.0,
                                                    "machine_speed": speed}}}
            for side, speed in (("parent", parent_speed), ("change", change_speed))}


def test_verdict_reports_the_machine_speed_of_each_side():
    runs = [synthetic_run(1.7, 1.8), synthetic_run(1.9, 1.5), synthetic_run(2.0, 1.9)]
    assert bench_pairs.verdict(runs, {}, None).splitlines() == [
        "no claim; every end-to-end metric:",
        "machine speed of reference, median per side (largest gap within a pair):",
        "  cycle-gravity: parent 1.900, change 1.800 (0.400); within 10% of their mean in "
        "2/3 pairs",
    ]


# The machine speeds (parent, change) of BENCH_47's cycle-massless pairs: in
# pairs 4 and 6 the sides ran more than 10 % of their mean apart.
BENCH_47_SPEEDS = [(0.926, 0.912), (1.014, 0.928), (1.568, 1.613), (1.372, 1.656),
                   (1.555, 1.691), (1.034, 1.755), (1.718, 1.74), (1.886, 1.752),
                   (1.933, 1.975), (1.955, 1.929)]


def test_a_claim_reports_its_median_pair_gain_over_the_like_speed_pairs():
    # The two pairs the host sped up gain 15 and 20 %; the like-speed
    # median leaves them out, and judges nothing.
    ratios = [0.97, 0.98, 0.99, 1.2, 1.0, 1.15, 0.98, 0.97, 0.99, 1.01]
    runs = [{side: {"metrics": {"cycle-massless.ops_per_s": {"value": value}},
                    "host_state": {"cycle-massless": {"wall_ops_per_s": 20.0,
                                                      "machine_speed": speed}}}
             for side, value, speed in (("parent", 10.0, before), ("change", 10.0 * ratio, after))}
            for (before, after), ratio in zip(BENCH_47_SPEEDS, ratios)]
    assert bench_pairs.like_speed(runs, "cycle-massless") == [True] * 3 + [False, True, False] + [
        True] * 4
    spec = {"workloads": [{"name": "cycle-massless"}], "end_to_end": [
        {"name": "ops_per_s", "unit": "1/ref_s", "better": "higher", "bound": 0.25}]}
    summary = bench_pairs.summarize(runs, spec)
    claim = bench_pairs.claim_of(runs, summary, "cycle-massless.ops_per_s", "")
    assert (claim["pair_gain_median"], claim["like_speed_pairs"],
            claim["like_speed_pair_gain_median"], claim["met"]) == (-0.01, "8/10", -0.015, False)
    lines = bench_pairs.verdict(runs, summary, claim).splitlines()
    assert "-1.5% over the 8/10 like-speed pairs" in lines[0]
    assert lines[-1].endswith("; within 10% of their mean in 8/10 pairs")


def test_pair_gain_median_is_signed_by_the_better_direction():
    assert bench_pairs.pair_gain_median([2.0, 4.0, 5.0], [3.0, 3.0, 5.0]) == 0.0
    assert bench_pairs.pair_gain_median([2.0, 4.0], [3.0, 5.0], -1.0) == -0.375


def test_runs_without_host_state_print_no_machine_speed():
    runs = [{"parent": {}, "change": {}}]
    assert bench_pairs.verdict(runs, {}, None) == "no claim; every end-to-end metric:"


@pytest.mark.parametrize("tool", sorted(path.name for path in (ROOT / "tools").glob("*.py")))
def test_each_tool_without_arguments_prints_its_usage(tool):
    # A tool whose imports a rename broke fails here, not when a PR needs it.
    done = subprocess.run([sys.executable, str(ROOT / "tools" / tool)], cwd=ROOT,
                          capture_output=True, text=True)
    assert done.returncode == 2 and "usage:" in done.stderr, (done.returncode, done.stderr)
