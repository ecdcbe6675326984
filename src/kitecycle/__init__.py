"""Quasi-steady simulation and telemetry analysis of pumping-cycle kite
power systems.

The public names below are resolved on first access (PEP 562), so
importing the package, or a command that needs only some of its modules,
loads nothing else: a simulation imports the estimator, which holds the
telemetry log and its writer, only for ``simulate --telemetry-out``.
"""

_EXPORTS = {
    "atmosphere": ("Environment", "WindState", "wind_state_at"),
    "config": ("RunConfig", "SweepSpec", "load_config", "load_sweep_spec", "preset_path"),
    "cycle": ("CycleResult", "OperationSettings", "PhaseResult", "StepRecord",
              "convergence_study", "simulate_cycle", "simulate_retraction",
              "simulate_traction", "simulate_transition"),
    "estimation": ("EstimateRecord", "LogRecord", "PhaseAverages", "estimate_log",
                   "estimate_record", "segment_and_average", "segment_phases"),
    "frozen": ("replace",),
    "steady_state": ("GRAVITY", "AeroSet", "EquilibriumResult", "KiteParams", "TetherParams",
                     "angle_trig", "massless_state", "solve_kinematic_ratio", "tether_properties"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
