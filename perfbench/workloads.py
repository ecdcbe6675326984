"""Seeded input generators of the benchmark workloads.

Every input is a file the program reads: a run configuration JSON or a
telemetry CSV.  An op is one ``kitecycle`` command line over those files.
The ops of one seed form a pool that the closed loop runs in a fixed
order, round after round, so every input runs several times in a run.

The pools are stratified.  A seed changes the perturbations, the noise,
the gusts and the order of the ops, but not the mix of op sizes, so runs
with different seeds measure the same amount of work and their figures
can be compared.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import random
from pathlib import Path

from kitecycle.config import preset_path

TELEMETRY = Path(__file__).resolve().parent / "telemetry"
DEFAULT_SEED = 1
WORKLOADS = ("cycle-gravity", "cycle-massless", "estimate")
PRESETS = ("strong_wind", "moderate_wind")

# Relative half-width of the seeded perturbation of v_w_ref, F_out, F_in.
PERTURBATION = 0.01
# Preset default step and the fine step of the convergence study.
DT_COARSE, DT_FINE = 0.01, 0.002
DT_MASSLESS = 0.001
# Telemetry: step rate of the simulated source cycle, and the log rates.
# The source cycles are frozen under TELEMETRY (see record_reference.py).
SOURCE_RATE_HZ = 60.0
# (preset, nominal rate [Hz], chi_deg blanked, phase labels dropped).
# Logs come in pairs of one size, so the median op and the tail
# percentile fall inside a group of two inputs, not on the edge between
# two sizes.
ESTIMATE_LOGS = (
    ("strong_wind", 50.0, False, False),
    ("strong_wind", 50.0, True, True),
    ("moderate_wind", 40.0, True, False),
    ("moderate_wind", 40.0, False, True),
    ("strong_wind", 20.0, False, True),
)
RATE_JITTER = 0.01
F_TG_NOISE = 0.01  # relative standard deviation
GUST_START_PROB = 0.01  # per sample
GUST_SECONDS = (0.5, 2.0)
GUST_AMPLITUDE = (0.03, 0.10)  # relative, random sign


def _preset(name: str) -> dict:
    return json.loads(preset_path(name).read_text(encoding="utf-8"))


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _perturbed(rng: random.Random, name: str, dT: float) -> dict:
    cfg = _preset(name)
    for section, key in (("environment", "v_w_ref"), ("operation", "F_out"),
                         ("operation", "F_in")):
        cfg[section][key] *= 1.0 + rng.uniform(-PERTURBATION, PERTURBATION)
    cfg["operation"]["dT"] = dT
    return cfg


def cycle_ops(workload: str, seed: int, work: Path) -> list[dict]:
    """Simulate ops on five configs, presets alternating.
    ``cycle-gravity``: strong_wind runs twice at the default step and once
    at the fine step, moderate_wind once at each, in seeded order.  The
    two fine ops are the slowest; they are two of five ops, so the median
    op is a default-step one and, in a run of at least six rounds, the
    tail percentile falls inside the fine ones.  ``cycle-massless``: all
    at the massless fine step."""
    rng = random.Random(f"{workload}:{seed}")
    gravity = workload == "cycle-gravity"
    if gravity:
        steps = {"strong_wind": [DT_COARSE, DT_COARSE, DT_FINE],
                 "moderate_wind": [DT_COARSE, DT_FINE]}
        for name in PRESETS:
            rng.shuffle(steps[name])
        plan = [(PRESETS[i % 2], steps[PRESETS[i % 2]][i // 2]) for i in range(5)]
    else:
        plan = [(PRESETS[i % 2], DT_MASSLESS) for i in range(5)]
    ops = []
    for i, (name, dT) in enumerate(plan):
        cfg_path = work / "inputs" / f"{workload}-{seed}-{i}.json"
        _write_json(cfg_path, _perturbed(rng, name, dT))
        out = work / "out" / f"{workload}-{seed}-{i}"
        argv = ["simulate", "--config", str(cfg_path), "--out", str(out)]
        ops.append({"id": f"{workload}/{seed}/{i}", "kind": "simulate", "out": str(out),
                    "argv": argv if gravity else argv + ["--no-gravity"]})
    return ops


def source_config(name: str) -> Path:
    """The run configuration a source telemetry log was simulated with."""
    return TELEMETRY / f"{name}.json"


def _source_rows(name: str) -> list[dict]:
    """The frozen source telemetry of a preset: one gravity cycle at
    SOURCE_RATE_HZ, as ``simulate --telemetry-out`` exported it when
    reference.json was recorded.  Independent of the seed and of the
    program under test."""
    with gzip.open(TELEMETRY / f"{name}.csv.gz", "rt", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _degrade(rows: list[dict], rng: random.Random, rate: float,
             blank_chi: bool, drop_labels: bool) -> list[dict]:
    """Resample to ``rate``, add F_tg noise and v_w_ref gusts, and blank
    the columns a logger may not record."""
    out, last_slot, gust_end, gust = [], None, -math.inf, 0.0
    for row in rows:
        t = float(row["t"])
        slot = math.floor(t * rate)
        if slot == last_slot:
            continue
        last_slot = slot
        if t >= gust_end and rng.random() < GUST_START_PROB:
            gust_end = t + rng.uniform(*GUST_SECONDS)
            gust = rng.choice((-1.0, 1.0)) * rng.uniform(*GUST_AMPLITUDE)
        row = dict(row)
        row["F_tg"] = repr(float(row["F_tg"]) * (1.0 + rng.gauss(0.0, F_TG_NOISE)))
        if t < gust_end:
            row["v_w_ref"] = repr(float(row["v_w_ref"]) * (1.0 + gust))
        if blank_chi:
            row["chi_deg"] = ""
        if drop_labels:
            row["phase"] = ""
        out.append(row)
    return out


def _aero_reference(cfg: dict) -> dict:
    """Averages an exact estimator recovers from a log of this config."""
    ref = {}
    for suffix, key in (("o", "aero_traction"), ("i", "aero_retraction")):
        aero = cfg["kite"][key]
        ref[f"C_R_{suffix}"] = math.hypot(aero["C_L"], aero["C_L"] / aero["LD_k"])
        ref[f"LD_k_{suffix}"] = aero["LD_k"]
    return ref


def estimate_ops(seed: int, work: Path) -> list[dict]:
    """Estimate ops: one per entry of ESTIMATE_LOGS, each on a log
    resampled from its preset's frozen source telemetry at a jittered
    rate, and estimated with the config that telemetry was made with."""
    rng = random.Random(f"estimate:{seed}")
    ops = []
    for i, (name, rate, blank_chi, drop_labels) in enumerate(ESTIMATE_LOGS):
        cfg_path = source_config(name)
        aero = _aero_reference(json.loads(cfg_path.read_text(encoding="utf-8")))
        rows = _source_rows(name)
        rate *= 1.0 + rng.uniform(-RATE_JITTER, RATE_JITTER)
        rows = _degrade(rows, rng, rate, blank_chi, drop_labels)
        log = work / "inputs" / f"estimate-{seed}-{i}.csv"
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        out = work / "out" / f"estimate-{seed}-{i}"
        ops.append({
            "id": f"estimate/{seed}/{i}", "kind": "estimate",
            "argv": ["estimate", "--config", str(cfg_path), "--log", str(log),
                     "--out", str(out)],
            "out": str(out), "samples": len(rows), "aero": aero,
        })
    return ops


def generate(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the inputs of ``workload`` for ``seed`` under ``work`` and
    return its op pool, in loop order."""
    if workload == "estimate":
        return estimate_ops(seed, work)
    return cycle_ops(workload, seed, work)
