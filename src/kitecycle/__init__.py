"""Quasi-steady simulation and telemetry analysis of pumping-cycle kite
power systems."""

from .atmosphere import Environment, WindState, wind_state_at
from .config import RunConfig, SweepSpec, load_config, load_sweep_spec, preset_path
from .cycle import (
    CycleResult,
    OperationSettings,
    PhaseResult,
    StepRecord,
    convergence_study,
    simulate_cycle,
    simulate_retraction,
    simulate_traction,
    simulate_transition,
)
from .estimation import (
    EstimateRecord,
    LogRecord,
    PhaseAverages,
    estimate_record,
    segment_and_average,
    segment_phases,
)
from .frozen import replace
from .steady_state import (
    GRAVITY,
    AeroSet,
    EquilibriumResult,
    KiteParams,
    TetherParams,
    angle_trig,
    gravity_setpoint,
    massless_setpoint,
    massless_state,
    solve_kinematic_ratio,
    tether_properties,
)

__version__ = "0.1.0"
