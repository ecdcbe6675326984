"""Record the frozen inputs and the reference values of the benchmark.

Usage (from the repository root):

    python3 perfbench/record_reference.py [--telemetry]

Runs every op of every workload once at the default seed and writes
``P_m`` and ``zeta_m`` of each simulate op, and the four phase averages
of each estimate op, to reference.json.  The benchmark checks its
warm-up ops against these values.  Re-record only when the model, not
the solver, is meant to change.

With ``--telemetry`` it first re-records the source telemetry of the
estimate workload under telemetry/: for each preset, the config and one
gravity cycle simulated at SOURCE_RATE_HZ and exported with
``simulate --telemetry-out``.  The estimate logs of every seed are
resampled from these files, so the estimate workload does not change
when the simulator does.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from kitecycle.cli import run_command  # noqa: E402
from kitecycle.config import preset_path  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, PRESETS, SOURCE_RATE_HZ, TELEMETRY, WORKLOADS, generate, source_config,
)


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_command(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)}: exit code {code}")


def record_telemetry(work: Path) -> None:
    TELEMETRY.mkdir(exist_ok=True)
    for name in PRESETS:
        cfg = json.loads(preset_path(name).read_text(encoding="utf-8"))
        op = cfg["operation"]
        t_star = (op["r_max"] - op["r_min"]) / cfg["environment"]["v_w_ref"]
        op["dT"] = 1.0 / (SOURCE_RATE_HZ * t_star)
        source_config(name).write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        log = work / f"{name}.csv"
        _run(["simulate", "--config", str(source_config(name)), "--out", str(work / name),
              "--telemetry-out", str(log)])
        (TELEMETRY / f"{name}.csv.gz").write_bytes(
            gzip.compress(log.read_bytes(), compresslevel=9, mtime=0))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--telemetry", action="store_true",
                        help="re-record the source telemetry of the estimate workload first")
    args = parser.parse_args()
    work = HERE.parent / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.telemetry:
        record_telemetry(work / "telemetry")
    references = {}
    for workload in WORKLOADS:
        for op in generate(workload, DEFAULT_SEED, work):
            _run(op["argv"])
            out = Path(op["out"])
            if op["kind"] == "simulate":
                summary = json.loads((out / "cycle_summary.json").read_text(encoding="utf-8"))
                references[op["id"]] = {k: summary[k] for k in ("P_m", "zeta_m")}
            else:
                averages = json.loads((out / "phase_averages.json").read_text(encoding="utf-8"))
                references[op["id"]] = {k: averages[k] for k in op["aero"]}
    (HERE / "reference.json").write_text(json.dumps(references, indent=2) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
