"""Tests of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

The file name keeps these tests out of the repository's pytest run; they
start the benchmark in subprocesses and take about two minutes.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import DT_FINE, WORKLOADS, generate  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
EXACT_COUNTS = (
    "cycle.steps_per_op", "steady_state.solves_per_step", "steady_state.iters_per_solve",
    "steady_state.inversions_per_step", "steady_state.failed_solve_ratio",
    "atmosphere.calls_per_step", "estimation.record_calls_per_sample",
    "estimation.valid_ratio", "dataio.bytes_written",
)


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            for workload in WORKLOADS:
                generate(workload, 5, Path(a))
                generate(workload, 5, Path(b))
            names = sorted(p.name for p in (Path(a) / "inputs").iterdir())
            self.assertEqual(names, sorted(p.name for p in (Path(b) / "inputs").iterdir()))
            _, mismatch, errors = filecmp.cmpfiles(Path(a) / "inputs", Path(b) / "inputs",
                                                   names, shallow=False)
            self.assertEqual((mismatch, errors), ([], []))

    def test_estimate_inputs_are_frozen(self):
        # The estimate logs are resampled from the files under telemetry/;
        # making them must not run the simulator under test.
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch("kitecycle.cli.run_command", side_effect=AssertionError):
            ops = generate("estimate", 5, Path(tmp))
        self.assertEqual(len(ops), 5)
        for op in ops:
            self.assertTrue(Path(op["argv"][2]).is_relative_to(HERE / "telemetry"))

    def test_seeds_differ(self):
        with tempfile.TemporaryDirectory() as a:
            one = generate("cycle-massless", 5, Path(a))
            two = generate("cycle-massless", 6, Path(a))
            first = Path(one[0]["argv"][2]).read_bytes()
            self.assertNotEqual(first, Path(two[0]["argv"][2]).read_bytes())


class RoundsTest(unittest.TestCase):
    def test_gravity_tail_falls_inside_the_fine_step_ops(self):
        # Fine-step ops take about five times longer than default-step
        # ops.  Whatever --seconds is, the tail must be a fine-step op,
        # or a slower program could read as a faster tail.
        with tempfile.TemporaryDirectory() as tmp:
            pool = generate("cycle-gravity", 5, Path(tmp))
            fine = [json.loads(Path(op["argv"][2]).read_text(encoding="utf-8"))
                    ["operation"]["dT"] == DT_FINE for op in pool]
        self.assertEqual(sum(fine), 2)
        one_round = [(5.0 if f else 1.0) + k / 100 for k, f in enumerate(fine)]
        for seconds in range(1, 61):
            n_rounds = run.rounds("cycle-gravity", seconds, False)
            self.assertGreaterEqual(n_rounds * (len(pool) - sum(fine)), 1)
            self.assertGreaterEqual(n_rounds * len(pool) - 11,
                                    n_rounds * (len(pool) - sum(fine)))
            tail_s, _ = run.tail(one_round * n_rounds)
            self.assertGreaterEqual(tail_s, 5.0, seconds)

    def test_rounds_depend_on_the_arguments_only(self):
        for workload in WORKLOADS:
            self.assertEqual(run.rounds(workload, 1, False), run.MIN_ROUNDS)
            self.assertEqual(run.rounds(workload, 1, True), 2)
            self.assertGreater(run.rounds(workload, 60, False), run.rounds(workload, 20, False))


class TraceTest(unittest.TestCase):
    def test_self_times_add_up_to_the_root_span(self):
        import kitecycle.cli
        with tempfile.TemporaryDirectory() as tmp:
            ops = generate("cycle-gravity", 5, Path(tmp))[:2]
            tracer = spans.Tracer()
            tracer.install()
            try:
                for i, op in enumerate(ops):
                    tracer.op = i
                    with contextlib.redirect_stdout(io.StringIO()):
                        self.assertEqual(kitecycle.cli.run_command(op["argv"]), 0)
            finally:
                tracer.uninstall()
        per_op = tracer.per_op()
        self.assertEqual(sorted(per_op), [0, 1])
        for by_name in per_op.values():
            root = by_name["cli.run_command"]
            self.assertEqual(root[0], 1)
            self.assertEqual(sum(acc[2] for acc in by_name.values()), root[1])
            self.assertGreater(by_name["steady_state.kinematic_solve"][0], 0)

    def test_missing_target_warns_and_drops_its_metrics(self):
        targets = dict(spans.TARGETS)
        targets["steady_state.reel_inversion"] = [("kitecycle.cycle", "no_such_function")]
        stderr = io.StringIO()
        with mock.patch.object(spans, "TARGETS", targets), \
                contextlib.redirect_stderr(stderr):
            tracer = spans.Tracer()
        self.assertEqual(tracer.missing, ["steady_state.reel_inversion"])
        self.assertIn("steady_state.reel_inversion", stderr.getvalue())
        metrics = spans.layer_metrics({}, [{"steps": 1, "bytes": 1}], {0}, tracer.missing)
        self.assertNotIn("steady_state.inversion_us", metrics)
        self.assertIn("steady_state.solve_us", metrics)

    def test_two_traced_runs_give_identical_counts(self):
        for workload in ("cycle-gravity", "estimate"):
            first, second = traced_run(workload), traced_run(workload)
            self.assertTrue(first["correct"] and second["correct"])
            for name in EXACT_COUNTS:
                self.assertEqual(first["metrics"][name], second["metrics"][name], name)


class NamesTest(unittest.TestCase):
    def test_metric_and_span_names(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += list(spans.TARGETS)
        for name in names:
            self.assertIsNotNone(NAME.fullmatch(name), name)
        metrics = spans.layer_metrics({}, [{"steps": 1, "bytes": 1}], {0}, [])
        declared = {m["name"] for m in spec["per_layer"]}
        self.assertLessEqual(set(metrics), declared)


if __name__ == "__main__":
    unittest.main()
