"""Command line interface.

Subcommands: ``simulate``, ``convergence``, ``sweep``, ``estimate``.
Exit codes: 0 on success, 2 on configuration/validation problems, 3 on
solver failures; the exception class name goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import dataio
from .config import (
    PRESET_NAMES,
    RunConfig,
    load_config,
    load_sweep_spec,
    preset_path,
    set_by_path,
)
from .cycle import convergence_study, simulate_cycle
from .errors import KitecycleError, ParseError, ValidationError
from .estimation import average_estimates, estimate_record, segment_phases

__all__ = ["run_command", "main"]


def _resolve_config(arg: str) -> RunConfig:
    if arg in PRESET_NAMES:
        return load_config(preset_path(arg))
    return load_config(arg)


def _apply_gravity_flag(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "no_gravity", False):
        return replace(cfg, operation=replace(cfg.operation, gravity=False))
    return cfg


def _out_dir(cfg: RunConfig, args: argparse.Namespace) -> Path:
    out = Path(args.out or cfg.out_dir or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _apply_gravity_flag(_resolve_config(args.config), args)
    out = _out_dir(cfg, args)
    cycle = simulate_cycle(cfg.environment, cfg.kite, cfg.tether, cfg.operation)
    dataio.write_cycle_summary(out / "cycle_summary.json", cycle)
    dataio.write_timeseries_csv(out / "timeseries.csv", cycle)
    if args.telemetry_out:
        records = dataio.cycle_to_log_records(cycle, cfg.environment.v_w_ref)
        dataio.write_telemetry_csv(args.telemetry_out, records)
    print(f"P_m = {cycle.P_m:.1f} W over {cycle.duration:.1f} s "
          f"(zeta_m = {cycle.zeta_m:.4f}); outputs in {out}")
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    cfg = _apply_gravity_flag(_resolve_config(args.config), args)
    out = _out_dir(cfg, args)
    dt_list = sorted((float(v) for v in args.dt_list), reverse=True)
    rows = convergence_study(cfg.environment, cfg.kite, cfg.tether, cfg.operation, dt_list)
    dataio.write_convergence_csv(out / "convergence.csv", rows)
    print(f"{len(rows)} rows written to {out / 'convergence.csv'}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _apply_gravity_flag(_resolve_config(args.config), args)
    out = _out_dir(cfg, args)
    spec = load_sweep_spec(args.spec)

    rows = []
    for value in spec.values:
        varied = set_by_path(cfg, spec.parameter, value)
        cycle = simulate_cycle(varied.environment, varied.kite, varied.tether, varied.operation)
        rows.append({"value": value, "P_m": cycle.P_m, "zeta_m": cycle.zeta_m})
    dataio.write_sweep_csv(out / "sweep.csv", spec.parameter, rows)
    best = max(rows, key=lambda row: row[spec.objective])
    (out / "argmax.json").write_text(
        json.dumps({"parameter": spec.parameter, "objective": spec.objective, **best},
                   indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"argmax {spec.objective} at {spec.parameter} = {best['value']}: "
          f"{best[spec.objective]:.4g}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args.config)
    out = _out_dir(cfg, args)
    records = dataio.read_telemetry_csv(args.log)
    labels = segment_phases(records)
    estimates = [
        estimate_record(rec, cfg.kite, cfg.tether, cfg.environment, phase=label)
        for rec, label in zip(records, labels)
    ]
    # Average before writing, so a failed run leaves no partial outputs.
    averages = average_estimates(estimates)
    dataio.write_estimates_csv(out / "estimates.csv", estimates)
    dataio.write_phase_averages(out / "phase_averages.json", averages)
    print(f"C_R_o = {averages.C_R_o:.3f}, C_R_i = {averages.C_R_i:.3f}, "
          f"LD_k_o = {averages.LD_k_o:.2f}, LD_k_i = {averages.LD_k_i:.2f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kitecycle",
        description="Quasi-steady pumping-cycle kite power simulation and "
                    "telemetry analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="run configuration JSON, or a preset name "
                             f"({', '.join(PRESET_NAMES)})")
    common.add_argument("--out", default=None, help="output directory (default: out)")

    p = sub.add_parser("simulate", parents=[common], help="simulate one pumping cycle")
    p.add_argument("--no-gravity", action="store_true",
                   help="use the massless model variant")
    p.add_argument("--telemetry-out", default=None,
                   help="also export the cycle as a telemetry CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("convergence", parents=[common],
                       help="time-step refinement study")
    p.add_argument("--dt-list", nargs="+", required=True, metavar="DT",
                   help="nondimensional time steps; the smallest is the reference")
    p.add_argument("--no-gravity", action="store_true")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("sweep", parents=[common], help="one-parameter sweep")
    p.add_argument("--spec", required=True, help="sweep specification JSON")
    p.add_argument("--no-gravity", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("estimate", parents=[common],
                       help="estimate aerodynamic coefficients from telemetry")
    p.add_argument("--log", required=True, help="telemetry CSV")
    p.set_defaults(func=_cmd_estimate)
    return parser


def run_command(argv: list[str]) -> int:
    """Run one CLI command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except KitecycleError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
