"""Command line interface.

Subcommands: ``simulate``, ``convergence``, ``sweep``, ``estimate``.
Exit codes: 0 on success, 2 on configuration/validation problems or an
unusable file path, 3 on solver failures; the exception class name goes
to stderr.  ``python -m kitecycle.cli`` runs it too.
"""

from __future__ import annotations

# The package first, config (and through it steady_state, the largest module)
# before dataio and argparse: where no bytecode cache is written, compiling
# steady_state is start-up's peak of memory, and it leaves ≈ 0.35 MB more
# resident when it runs after the other imports.
from .config import PRESET_NAMES, RunConfig, load_config, load_sweep_spec, preset_path
from .cycle import convergence_study, simulate_cycle
from . import dataio
from .errors import KitecycleError, ParseError, ValidationError, clip

import argparse
import functools
import sys
from pathlib import Path

__all__ = ["run_command", "main"]


def _cmd_simulate(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    cycle = simulate_cycle(cfg.environment, cfg.kite, cfg.tether, cfg.operation)
    out.mkdir(parents=True, exist_ok=True)
    # The telemetry goes first: its path may fail, and then --out holds no file.
    if args.telemetry_out:
        from .estimation import cycle_to_log_records, write_telemetry_csv  # only for this export
        records = cycle_to_log_records(cycle, cfg.environment.v_w_ref)
        write_telemetry_csv(args.telemetry_out, records)
    dataio.write_cycle_summary(out / "cycle_summary.json", cycle)
    dataio.write_timeseries_csv(out / "timeseries.csv", cycle)
    print(f"P_m = {cycle.P_m:.6g} W over {cycle.duration:.6g} s "
          f"(zeta_m = {cycle.zeta_m:.4f}); outputs in {out}")
    return 0


def _cmd_convergence(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    dt_list = sorted(args.dt_list, reverse=True)
    rows = convergence_study(cfg.environment, cfg.kite, cfg.tether, cfg.operation, dt_list)
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_convergence_csv(out / "convergence.csv", rows)
    print(f"{len(rows)} rows written to {out / 'convergence.csv'}")
    return 0


def _cmd_sweep(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    spec = load_sweep_spec(args.spec)

    rows = []
    for value in spec.values:
        try:
            varied = _config(args, {spec.parameter: value})
            cycle = simulate_cycle(varied.environment, varied.kite, varied.tether,
                                   varied.operation)
        except KitecycleError as exc:
            raise type(exc)(f"{clip(spec.parameter)} = {value}: {exc}") from exc
        rows.append({"value": value, "P_m": cycle.P_m, "zeta_m": cycle.zeta_m})
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_sweep_csv(out / "sweep.csv", spec.parameter, rows)
    best = max(rows, key=lambda row: row[spec.objective])
    dataio.write_json(out / "argmax.json",
                      {"parameter": spec.parameter, "objective": spec.objective, **best})
    print(f"argmax {spec.objective} at {spec.parameter} = {best['value']}: "
          f"{best[spec.objective]:.4g}")
    return 0


def _cmd_estimate(args: argparse.Namespace, cfg: RunConfig, out: Path) -> int:
    from .estimation import estimate_log  # the one command that estimates
    # Average before writing, so a failed run leaves no partial outputs.
    averages = estimate_log(args.log, cfg.kite, cfg.tether, cfg.environment)
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_estimates_csv(out / "estimates.csv", averages.estimates)
    dataio.write_phase_averages(out / "phase_averages.json", averages)
    print(f"C_R_o = {averages.C_R_o:.3f}, C_R_i = {averages.C_R_i:.3f}, "
          f"LD_k_o = {averages.LD_k_o:.2f}, LD_k_i = {averages.LD_k_i:.2f}")
    return 0


def _config(args: argparse.Namespace, overrides: dict) -> RunConfig:
    """The ``--config`` file or preset, with ``overrides`` and the massless
    flag written into its JSON before it is parsed."""
    if getattr(args, "no_gravity", False):
        overrides = {"gravity": False, **overrides}
    return load_config(preset_path(args.config) if args.config in PRESET_NAMES
                       else args.config, overrides)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first command of a process."""
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
    gravity = argparse.ArgumentParser(add_help=False)  # for the commands that simulate
    gravity.add_argument("--no-gravity", action="store_true", help="use the massless model variant")

    p = sub.add_parser("simulate", parents=[common, gravity], help="simulate one pumping cycle")
    p.add_argument("--telemetry-out", default=None,
                   help="also export the cycle as a telemetry CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("convergence", parents=[common, gravity],
                       help="time-step refinement study")
    p.add_argument("--dt-list", nargs="+", type=float, required=True, metavar="DT",
                   help="nondimensional time steps; the smallest is the reference")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("sweep", parents=[common, gravity], help="one-parameter sweep")
    p.add_argument("--spec", required=True, help="sweep specification JSON")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("estimate", parents=[common],
                       help="estimate aerodynamic coefficients from telemetry")
    p.add_argument("--log", required=True, help="telemetry CSV")
    p.set_defaults(func=_cmd_estimate)
    return parser


def run_command(argv: list[str]) -> int:
    """Run one CLI command; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config(args, {})
        # Each command makes the output directory just before its first
        # write, so a command that fails earlier leaves none behind.
        return args.func(args, cfg, Path(args.out or cfg.out_dir or "out"))
    except (KitecycleError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, ValidationError, OSError)) else 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
