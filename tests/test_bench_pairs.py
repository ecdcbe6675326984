"""``tools/bench_pairs.py`` keeps the host state that perfbench's notes print."""

import importlib.util
import json
import subprocess
from pathlib import Path

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
