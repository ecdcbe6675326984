"""Phase controllers and time integration for the pumping cycle.

A cycle is three phases run in sequence from the single fixed point of
the trajectory, the state (r_max, beta_o):

* retraction - reel in under the low force set-point, flying straight up
  (course angle 180 deg) in the phi = 0 plane, until the tether reaches
  its minimum length;
* transition - fly straight down (course angle 0) at the traction
  coefficients, holding the tether force between the two set-points,
  until the traction elevation is reached;
* traction - hold the representative crosswind state (constant angles)
  and reel out under the high force set-point until the tether reaches
  its maximum length.

Each phase is a spec - its step, which returns the reeling factor and the
equilibrium's fields ``(f, values)``, the quantity that ends it (tether
length, or elevation in transition) with its end value and direction, and
its climb factor - run by ``_integrate``: one rates function per phase maps
(t, r, theta) to the step record and dr/dt, dtheta/dt, and one explicit
Euler rule steps them and sums the phase energy.  A phase binds its wind
law, tether properties, set-point kernel and set-point constants once, and
its fixed angles go on its ``PhaseResult``, not on each step record; a
step makes one call each for the wind, the tether mass and drag and the
equilibrium.  Retraction's and traction's step is their set-point's kernel
itself, transition's a controller that composes the kernels of both
set-points with the coasting solve.  The step is scaled by the
characteristic time (r_max - r_min)/v_w_ref; the final step of each phase
is truncated at the crossing, so durations are not quantised.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Callable, Iterable, Iterator
from itertools import starmap
from operator import attrgetter
from typing import NamedTuple

from .atmosphere import Environment, bind_wind, wind_state_at
from .errors import (DomainError, NoTensionError, PhaseError, SolverError, SteadyStateError,
                     TetherSagError, ValidationError)
from .frozen import Frozen, replace
from .steady_state import (AeroSet, KiteParams, TetherParams, angle_trig, bind_setpoint,
                           bind_tether, massless_setpoint_step, massless_state,
                           solve_kinematic_ratio)
from .steady_state import gravity_setpoint_step as _solve_reel_factor  # perfbench wraps this name

__all__ = [
    "OperationSettings",
    "StepRecord",
    "PhaseResult",
    "CycleResult",
    "simulate_retraction",
    "simulate_transition",
    "simulate_traction",
    "simulate_cycle",
    "cycle_summaries",
    "convergence_study",
]

RETRACTION = "retraction"
TRANSITION = "transition"
TRACTION = "traction"
_DT_MIN = 1e-5  # smallest dT: up to ≈ 0.5 M steps and 42 MB a preset cycle


class OperationSettings(Frozen):
    """Operational set-points and simulation controls.

    Angles are radians.  ``force_at`` selects which tether end the force
    set-points regulate; reported power is ground-side either way.
    """

    __slots__ = _fields = ("beta_o", "phi_o", "chi_o", "r_min", "r_max", "F_out", "F_in", "dT",
                           "gravity", "force_at")

    def __init__(self, beta_o: float, phi_o: float, chi_o: float, r_min: float, r_max: float,
                 F_out: float, F_in: float, dT: float = 0.01, gravity: bool = True,
                 force_at: str = "kite"):
        super().__init__(beta_o, phi_o, chi_o, r_min, r_max, F_out, F_in, dT, gravity, force_at)
        if not 0.0 < r_min < r_max < math.inf:
            raise ValidationError(f"requires 0 < r_min < r_max, both finite, "
                                  f"got r_min={r_min}, r_max={r_max}")
        if not _DT_MIN <= dT <= 1.0:
            raise ValidationError(f"nondimensional time step must be in [{_DT_MIN:g}, 1], "
                                  f"got {dT}")
        if not 0.0 < F_in < F_out < math.inf:
            raise ValidationError(f"requires 0 < F_in < F_out, both finite, "
                                  f"got F_in={F_in}, F_out={F_out}")
        angle_trig(phi_o, chi_o)  # both finite, by the check each phase makes
        if not 0.0 < beta_o < 0.5 * math.pi:
            raise ValidationError(f"traction elevation must be in (0, pi/2), got {beta_o}")
        if not isinstance(gravity, bool):
            raise ValidationError(f"gravity must be true or false, got {gravity!r}")
        if force_at not in ("kite", "ground"):
            raise ValidationError(f"force_at must be 'kite' or 'ground', got {force_at!r}")

    @property
    def theta_o(self) -> float:
        return 0.5 * math.pi - self.beta_o


class StepRecord(NamedTuple):
    """One recorded integration step."""

    t: float
    r: float
    theta: float
    f: float
    v_t: float
    v_k: float
    v_a: float
    F_t_kite: float
    F_tg: float
    P: float


class PhaseResult(NamedTuple):
    """Time series and aggregate quantities of one phase, flown at the fixed
    angles ``phi`` and ``chi``.  ``values`` holds the steps as one flat array,
    ten doubles a step in ``StepRecord`` field order: ``rows()`` yields them
    and ``values[k::10]`` is one field; ``start`` and ``end`` are records."""

    phase: str
    duration: float
    mean_power: float
    energy: float
    steps: int
    phi: float
    chi: float
    values: array

    def __repr__(self) -> str:  # without the series: ten doubles per step
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
        return f"PhaseResult({fields})"

    def rows(self) -> Iterator[tuple]:
        """Each step as a plain tuple of its ten fields."""
        return zip(*[iter(self.values)] * 10)

    @property
    def start(self) -> StepRecord:
        return StepRecord._make(self.values[:10])

    @property
    def end(self) -> StepRecord:
        return StepRecord._make(self.values[-10:])


class CycleResult(NamedTuple):
    """Aggregated pumping-cycle output."""

    retraction: PhaseResult
    transition: PhaseResult
    traction: PhaseResult
    P_m: float
    zeta_m: float
    z_mt: float
    duration: float
    steps: int

    @property
    def phases(self) -> tuple[PhaseResult, PhaseResult, PhaseResult]:
        return (self.retraction, self.transition, self.traction)


class _PhaseEngine:
    """Shared machinery of one phase flown at fixed angles ``phi`` and
    ``chi``, bound once: ``wind_at(z) -> (v_w, rho)``, ``tether_at(r) -> (m_t,
    C_D)``, the set-point step ``kernel`` of its gravity mode and the
    constants ``bind`` gives it per force target."""

    def __init__(self, env: Environment, kite: KiteParams, tether: TetherParams,
                 op: OperationSettings, aero_set: AeroSet, phi: float, chi: float):
        if env.v_w_ref <= 0.0:
            raise ValidationError("cycle simulation requires a positive reference wind speed")
        self.kite = kite
        self.op = op
        self.aero_set = aero_set
        self.phi, self.chi = phi, chi
        self.angles = angle_trig(phi, chi)
        self.wind_at = bind_wind(env)
        self.tether_at = bind_tether(tether, kite, aero_set)
        self.kernel = _solve_reel_factor if op.gravity else massless_setpoint_step
        self.t_char = (op.r_max - op.r_min) / env.v_w_ref  # the characteristic time
        self.dt = self.t_char * op.dT

    def bind(self, F_target: float) -> tuple:
        """The checked constants of ``kernel`` for the force set-point ``F_target``."""
        return bind_setpoint(F_target, self.op.force_at, self.angles, self.aero_set.C_L,
                             self.kite.m, self.kite.S)


def _integrate(
    engine: _PhaseEngine,
    phase: str,
    step: Callable[..., tuple],
    bound: tuple,
    r: float,
    theta: float,
    t: float,
    *,
    end: float,
    increasing: bool,
    climb: float,
    by_elevation: bool = False,
) -> PhaseResult:
    """Explicit Euler integration of one phase until its end condition.

    ``rates`` maps (t, r, theta) to the step's ten fields, dr/dt = f*v_w and
    dtheta/dt = lam*v_w*climb/r, where ``climb`` is cos(chi), or 0 to hold
    theta: it takes (v_w, rho) = ``engine.wind_at(r*cos(theta))`` and (m_t,
    C_D) = ``engine.tether_at(r)``, and ``step(bound, theta, C_D, m_t, v_w,
    rho) -> (f, equilibrium fields)``, a set-point kernel or a controller that
    composes kernels.  The fields are appended to one flat array, and the
    trapezoid energy is summed as the steps come, in series order.  The phase
    ends when the tether length, or the elevation if ``by_elevation``, reaches
    ``end`` moving up if ``increasing``, else down; a start already there
    gives a one-record phase.

    Raises:
        SolverError: a PhaseError if, for ten characteristic times, each
            step's rate leaves the end over ten characteristic times away (a
            rate <= 0 never reaches it); the one PhaseError of both domain exits,
            a step to r <= 0 or out of the wind law's domain, naming the start
            record's reeling factor; or what the wind law, at the start record, or
            ``step`` raised; each chained and prefixed with the phase, t, r and elevation.
        ValidationError: a step input out of a kernel's domain, chained and
            prefixed the same way.
    """
    wind_at, tether_at = engine.wind_at, engine.tether_at
    cos, hypot = math.cos, math.hypot

    def rates(t: float, r: float, theta: float) -> tuple[tuple, float, float]:
        v_w, rho = wind_at(r * cos(theta))
        m_t, C_D = tether_at(r)
        f, (_, lam, v_a, _, _, _, F_t_kite, F_tg, _, P, _) = step(bound, theta, C_D, m_t, v_w,
                                                                   rho)
        v_t, v_tau = f * v_w, lam * v_w
        record = (t, r, theta, f, v_t, hypot(v_t, v_tau), v_a, F_t_kite, F_tg, P)
        return record, v_t, v_tau * climb / r

    sign, h, energy = (1.0 if increasing else -1.0), engine.dt, 0.0
    signed_end = sign * end
    stall, stall_limit, horizon = 0, max(1, math.ceil(10.0 / engine.op.dT)), 10.0 * engine.t_char
    series = array("d")  # the records so far
    try:
        record, dr, dtheta = rates(t, r, theta)
        series.extend(record)
        done = sign * (0.5 * math.pi - theta if by_elevation else r) >= signed_end
        while not done:
            # theta = pi/2 - beta
            value, rate = (0.5 * math.pi - theta, -dtheta) if by_elevation else (r, dr)
            done = sign * (value + rate * h) >= signed_end and sign * rate > 0.0
            if done:
                dt = (end - value) / rate
            else:
                # Stalled: at this rate the end is over `horizon` away (never, at rate <= 0 or NaN).
                stall = 0 if sign * (end - value) <= horizon * sign * rate else stall + 1
                if stall > stall_limit:
                    quantity = "elevation" if by_elevation else "tether length"
                    unit = "rad" if by_elevation else "m"
                    direction = "increase" if increasing else "decrease"
                    raise PhaseError(f"{quantity} failed to {direction} for {stall} consecutive "
                                     f"steps: at {value:.6g} {unit} and {rate:.3g} {unit}/s, the "
                                     f"end {end:.6g} {unit} is more than {horizon:.6g} s away")
                dt = h
            r += dr * dt
            theta += dtheta * dt
            t += dt
            if r <= 0.0:  # before the wind law fails on the altitude
                raise DomainError("tether length fell to zero")
            if done:
                # Land exactly on the end condition.
                if by_elevation:
                    theta = 0.5 * math.pi - end
                else:
                    r = end
            prev, (record, dr, dtheta) = record, rates(t, r, theta)
            series.extend(record)
            energy += 0.5 * (prev[9] + record[9]) * (t - prev[0])  # P and t
    except (SolverError, ValidationError) as exc:
        beta = math.degrees(0.5 * math.pi - theta)
        kind, why = type(exc), str(exc)
        if kind is DomainError and series:  # a step, not the start, left the model's domain
            kind = PhaseError
            why += f", from a reeling factor of {series[3]:.3g} at the phase start"
        raise kind(f"{phase} at t = {t:.6g} s, r = {r:.6g} m, beta = {beta:.6g} deg: "
                   f"{why}") from exc
    duration = series[-10] - series[0]  # t of the last step less t of the first
    return PhaseResult(phase=phase, duration=duration,
                       mean_power=energy / duration if duration > 0.0 else 0.0, energy=energy,
                       steps=len(series) // 10 - 1, phi=engine.phi, chi=engine.chi, values=series)


def simulate_retraction(env: Environment, kite: KiteParams, tether: TetherParams,
                        op: OperationSettings, t0: float = 0.0) -> PhaseResult:
    """Reel in from (r_max, beta_o) under the low force set-point.

    Course angle is 180 deg (upward) in the phi = 0 plane; the phase ends
    when the tether length crosses r_min.  Neglecting gravity the kite
    typically reels out at the start, so the tether length may
    temporarily exceed r_max.
    """
    engine = _PhaseEngine(env, kite, tether, op, kite.aero_retraction, 0.0, math.pi)
    return _integrate(engine, RETRACTION, engine.kernel, engine.bind(op.F_in), op.r_max,
                      op.theta_o, t0, end=op.r_min, increasing=False, climb=engine.angles[3])


def simulate_transition(env: Environment, kite: KiteParams, tether: TetherParams,
                        op: OperationSettings, r_start: float, theta_start: float,
                        t0: float = 0.0) -> PhaseResult:
    """Fly down (course angle 0, phi = 0) at the traction coefficients
    until the traction elevation is reached.

    The winch holds the tether length unless the free-flight tension
    leaves [F_in, F_out]: above F_out it reels out, below F_in it reels
    in, regulating to the violated set-point.  A positive F_out factor
    means a tension above F_out, so a step tries that set-point first and
    solves the free flight only where it fails or gives f <= 0.
    """
    engine = _PhaseEngine(env, kite, tether, op, kite.aero_traction, 0.0, 0.0)
    bounds = engine.bind(op.F_in), engine.bind(op.F_out)
    return _integrate(engine, TRANSITION, _transition_controller(engine), bounds, r_start,
                      theta_start, t0, end=op.beta_o, increasing=False, by_elevation=True,
                      climb=engine.angles[3])


def _transition_controller(engine: _PhaseEngine) -> Callable[..., tuple]:
    """Transition's step ``((reel_in, reel_out), theta, C_D, m_t, v_w, rho) ->
    (f, values)`` for the ``engine.bind`` constants of F_in and F_out, as
    :func:`simulate_transition` describes it."""
    op, kite, kernel = engine.op, engine.kite, engine.kernel

    def controller(bounds: tuple, theta: float, C_D: float, m_t: float, v_w: float,
                   rho: float) -> tuple:
        reel_in, reel_out = bounds
        try:
            f, values = kernel(reel_out, theta, C_D, m_t, v_w, rho)
        except SolverError:
            f = 0.0
        if f > 0.0:
            return f, values
        coasting = (0.0, theta, engine.angles, engine.aero_set.C_L, C_D)  # f = 0
        try:
            if op.gravity:
                eq0 = solve_kinematic_ratio(*coasting, m_t, kite.m, kite.S, v_w, rho)
            else:
                eq0 = massless_state(*coasting, kite.S, v_w, rho)
        except (NoTensionError, TetherSagError):
            # An overflown kite, or one whose tether would push on the kite or the
            # ground station, cannot coast; reel in to restore the minimum force.
            return kernel(reel_in, theta, C_D, m_t, v_w, rho)
        force = eq0.F_t_kite if op.force_at == "kite" else eq0.F_tg
        if force > op.F_out:
            return kernel(reel_out, theta, C_D, m_t, v_w, rho)
        if force < op.F_in:
            return kernel(reel_in, theta, C_D, m_t, v_w, rho)
        return 0.0, eq0
    return controller


def simulate_traction(env: Environment, kite: KiteParams, tether: TetherParams,
                      op: OperationSettings, r_start: float, t0: float = 0.0) -> PhaseResult:
    """Reel out under the high force set-point at the constant
    representative crosswind state until the tether reaches r_max."""
    engine = _PhaseEngine(env, kite, tether, op, kite.aero_traction, op.phi_o, op.chi_o)
    return _integrate(engine, TRACTION, engine.kernel, engine.bind(op.F_out), r_start,
                      op.theta_o, t0, end=op.r_max, increasing=True, climb=0.0)


def simulate_cycle(env: Environment, kite: KiteParams, tether: TetherParams,
                   op: OperationSettings) -> CycleResult:
    """Run retraction, transition and traction in sequence and aggregate.

    Mean cycle power is the time-weighted mean of the phase powers; the
    power harvesting factor normalises it by the wind power density at
    the average traction altitude times the wing area.
    """
    retraction = simulate_retraction(env, kite, tether, op, t0=0.0)
    transition = simulate_transition(env, kite, tether, op, r_start=retraction.end.r,
                                     theta_start=retraction.end.theta, t0=retraction.end.t)
    traction = simulate_traction(env, kite, tether, op, r_start=transition.end.r,
                                 t0=transition.end.t)
    energy = retraction.energy + transition.energy + traction.energy
    duration = retraction.duration + transition.duration + traction.duration
    P_m = energy / duration
    z_mt = 0.5 * math.cos(op.theta_o) * (op.r_min + op.r_max)
    wind_mt = wind_state_at(z_mt, env)
    if wind_mt.P_w * kite.S < sys.float_info.min:  # subnormal or 0: zeta_m loses its digits
        raise SteadyStateError(f"wind speed {wind_mt.v_w:.3g} m/s at z_mt = {z_mt:.6g} m is beyond "
                               "float arithmetic: the wind power density underflows")
    zeta_m = P_m / (wind_mt.P_w * kite.S)
    return CycleResult(
        retraction=retraction,
        transition=transition,
        traction=traction,
        P_m=P_m,
        zeta_m=zeta_m,
        z_mt=z_mt,
        duration=duration,
        steps=retraction.steps + transition.steps + traction.steps,
    )


def cycle_summaries(runs: Iterable[tuple]) -> Iterator[tuple[float, float, int]]:
    """``(P_m, zeta_m, steps)`` of each ``(env, kite, tether, op)`` cycle, run as the iterator
    advances; ``map`` drops each cycle, with its step series, before the next is built."""
    return map(attrgetter("P_m", "zeta_m", "steps"), starmap(simulate_cycle, runs))


def convergence_study(env: Environment, kite: KiteParams, tether: TetherParams,
                      op: OperationSettings, dT_list: list[float]) -> list[dict]:
    """Cycle power harvesting factor for a list of time steps.

    ``dT_list`` must be sorted descending; the smallest entry serves as
    the reference against which all rows are normalised.  Returns one row
    per entry: dT, zeta_m, total steps and zeta_m over the reference.
    """
    if not dT_list:
        raise ValidationError("dT_list must contain at least one entry")
    if any(b > a for a, b in zip(dT_list, dT_list[1:])):
        raise ValidationError("dT_list must be sorted in descending order")
    ops = [replace(op, dT=dT) for dT in dT_list]  # checks every dT before the first run
    summaries = list(cycle_summaries((env, kite, tether, op_dT) for op_dT in ops))
    return [{"dT": dT, "zeta_m": zeta_m, "steps": steps, "ratio": zeta_m / summaries[-1][1]}
            for dT, (_, zeta_m, steps) in zip(dT_list, summaries)]
