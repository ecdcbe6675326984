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
        "  cycle-gravity: parent 1.900, change 1.800 (0.400)",
    ]


def test_runs_without_host_state_print_no_machine_speed():
    runs = [{"parent": {}, "change": {}}]
    assert bench_pairs.verdict(runs, {}, None) == "no claim; every end-to-end metric:"


@pytest.mark.parametrize("tool", sorted(path.name for path in (ROOT / "tools").glob("*.py")))
def test_each_tool_without_arguments_prints_its_usage(tool):
    # A tool whose imports a rename broke fails here, not when a PR needs it.
    done = subprocess.run([sys.executable, str(ROOT / "tools" / tool)], cwd=ROOT,
                          capture_output=True, text=True)
    assert done.returncode == 2 and "usage:" in done.stderr, (done.returncode, done.stderr)
