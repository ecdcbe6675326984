"""Digest every output of a fixed set of kitecycle commands.

Usage, from the repository root:

    python3 tools/output_digests.py OUT_DIR

The commands run in-process through ``kitecycle.cli.run_command``:

- ``simulate`` with and without ``--no-gravity``, each with
  ``--telemetry-out``, on both presets and on the ten seed-1 configs of
  the ``cycle-gravity`` and ``cycle-massless`` benchmark pools;
- ``convergence --dt-list 0.01 0.002`` on both presets;
- ``sweep`` with a values spec and with a range spec;
- ``estimate`` on the five seed-1 logs of the ``estimate`` pool and on
  both frozen source logs.

Inputs go to ``OUT_DIR/inputs``.  Each command writes into its own
directory under ``OUT_DIR/runs``, next to its standard output and error,
in which OUT_DIR reads as the text ``OUT_DIR``.  The script prints one
``sha256 exit path`` line per file under ``OUT_DIR/runs``, sorted by
path, so that two checkouts compare with one ``diff``.  It uses the
standard library and the benchmark's input generators
(``perfbench/workloads.py``) only.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from kitecycle.cli import run_command  # noqa: E402

SWEEP_SPECS = {
    "values": ("strong_wind", {"parameter": "operation.F_out",
                               "values": [2500.0, 3008.0, 3500.0]}),
    "range": ("moderate_wind", {"parameter": "kite.m", "objective": "zeta_m",
                                "range": {"start": 10.0, "stop": 20.0, "num": 3}}),
}


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def commands(inputs: Path) -> dict[str, list[str]]:
    """Run name -> argv without ``--out``; writes the inputs they read."""
    configs = {name: name for name in workloads.PRESETS}
    for workload in ("cycle-gravity", "cycle-massless"):
        for op in workloads.cycle_ops(workload, workloads.DEFAULT_SEED, inputs):
            configs[Path(_option(op["argv"], "--config")).stem] = _option(op["argv"], "--config")
    runs = {}
    for name, config in configs.items():
        runs[f"simulate/{name}"] = ["simulate", "--config", config]
        runs[f"simulate/{name}-massless"] = ["simulate", "--config", config, "--no-gravity"]
    for name in workloads.PRESETS:
        runs[f"convergence/{name}"] = ["convergence", "--config", name,
                                       "--dt-list", "0.01", "0.002"]
    for kind, (config, spec) in SWEEP_SPECS.items():
        path = inputs / f"sweep-{kind}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        runs[f"sweep/{kind}"] = ["sweep", "--config", config, "--spec", str(path)]
    for op in workloads.estimate_ops(workloads.DEFAULT_SEED, inputs):
        log = _option(op["argv"], "--log")
        runs[f"estimate/{Path(log).stem}"] = ["estimate", "--config",
                                              _option(op["argv"], "--config"), "--log", log]
    for name in workloads.PRESETS:
        log = inputs / f"frozen-{name}.csv"
        with gzip.open(workloads.TELEMETRY / f"{name}.csv.gz", "rb") as src, open(log, "wb") as dst:
            shutil.copyfileobj(src, dst)
        runs[f"estimate/frozen-{name}"] = ["estimate", "--config",
                                           str(workloads.source_config(name)), "--log", str(log)]
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_digests.py OUT_DIR", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if root.exists() and any(root.iterdir()):
        print(f"{root} is not empty", file=sys.stderr)
        return 2
    inputs = root / "inputs"
    inputs.mkdir(parents=True)
    lines = []
    for name, args in commands(inputs).items():
        out = root / "runs" / name
        if args[0] == "simulate":
            args = args + ["--telemetry-out", str(out / "telemetry.csv")]
        out.mkdir(parents=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_command(args + ["--out", str(out)])
        for stream, text in (("stdout.txt", stdout), ("stderr.txt", stderr)):
            (out / stream).write_text(text.getvalue().replace(str(root), "OUT_DIR"),
                                      encoding="utf-8")
        for path in out.iterdir():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest} {code} {path.relative_to(root / 'runs').as_posix()}")
    print("\n".join(sorted(lines, key=lambda line: line.split(" ", 2)[2])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
