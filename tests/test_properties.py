"""Property tests for the equilibrium solvers, over drawn states and aero sets,
and for the telemetry reader and the cycle energies.

They pin the invariants the solvers rely on or promise: the force
inversions round-trip, a simulator phase's bound step is the public
set-point at the public wind and tether values, the estimator bound once
per series gives each sample's public estimate and rejects a malformed
one with the series check's message, the closed-form gravity
inversion finds the reeling factor of a tight nested search and, where
weight dominates, meets the force exactly or names why it cannot, its
closed-form check that G rises gives the verdict of the finite-difference
probe it replaced, transition's set-point-first controller acts as the
coasting-first one did, the tether force falls
with the reeling factor, gravity mode without mass is the closed form,
the kinematic ratio is the root a tight independent bisection finds, with
the tether pulling on the kite,
every failure is one of a few definite reasons, and each entry point
rejects a state, coefficient set or wind outside its domain with the
message its record constructor used to give.
The telemetry reader reads every valid log as the ``csv.DictReader``
reference does, and every log it accepts passes the series check of
``segment_and_average``; each CSV writer writes the bytes ``csv.writer``
writes for the same values, whatever the row count,
and a simulated cycle's phase energies add up to its mean power times
its duration.
"""

import collections
import contextlib
import csv
import io
import json
import math
import random
import tempfile
from array import array
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from kitecycle import (
    GRAVITY,
    AeroSet,
    Environment,
    EquilibriumResult,
    KiteParams,
    OperationSettings,
    TetherParams,
    WindState,
    angle_trig,
    estimate_log,
    estimate_record,
    load_config,
    massless_state,
    replace,
    segment_and_average,
    segment_phases,
    solve_kinematic_ratio,
    tether_properties,
    wind_state_at,
)
from kitecycle import dataio, estimation
from kitecycle.atmosphere import bind_wind
from kitecycle.cycle import CycleResult, PhaseResult, _PhaseEngine, _transition_controller
from kitecycle.cli import run_command
from kitecycle.config import preset_path
from kitecycle.dataio import read_telemetry_csv
from kitecycle.estimation import TELEMETRY_COLUMNS, EstimateRecord, LogRecord
from kitecycle.errors import (
    KitecycleError,
    NoTensionError,
    SetpointUnreachableError,
    SolverError,
    SteadyStateError,
    TetherSagError,
    ValidationError,
)
from kitecycle.steady_state import (_equilibrium, _rises, bind_setpoint,
                                    gravity_setpoint_step, tether_balance)
from oracles import (bisect_kappa, coasting_first_controller, course_angles, dictreader_telemetry,
                     gravity_setpoint, implied_lift_to_drag, massless_setpoint,
                     probe_setpoint_step)

# Only S and m enter the gravity model; the aero sets are replaced by the
# drawn effective coefficients.
KITE = KiteParams(S=10.2, m=0.0, aero_traction=AeroSet(0.69, 4.0),
                  aero_retraction=AeroSet(0.17, 3.1))

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.filter_too_much])

# Every way an equilibrium solve may fail, as (exception, message start).
SOLVE_FAILURES = (
    (SteadyStateError, "no sign change of G(kappa) - G*"),
    (SteadyStateError, "converged to a negative tangential velocity factor"),
    (NoTensionError, "reeling factor"),
    (TetherSagError, "kite tension"),
)
INVERSION_FAILURES = SOLVE_FAILURES + (
    (SetpointUnreachableError, "force"),
)


class Problem(NamedTuple):
    """A flight state (tether length, angles and reeling factor), effective
    coefficients, a wind, and the airborne masses (kite, tether)."""

    r: float
    theta: float
    phi: float
    chi: float
    f: float
    C_L: float
    C_D: float
    v_w: float
    rho: float
    m: float = 0.0
    m_t: float = 0.0
    S: float = KITE.S

    def tail(self, massless=False):
        """The equilibrium functions' arguments after their inputs: theta,
        angles, C_L, C_D, [m_t, m,] S, v_w, rho."""
        masses = () if massless else (self.m_t, self.m)
        return (self.theta, angle_trig(self.phi, self.chi), self.C_L, self.C_D, *masses, self.S,
                self.v_w, self.rho)

    def solve(self):
        return solve_kinematic_ratio(self.f, *self.tail())

    def closed_form(self):
        return massless_state(self.f, *self.tail(massless=True))


def force_scale(C_L, C_D, v_w, rho):
    """The massless tether force over (b - f)**2: q*S*C_R*(1 + G*^2)."""
    return 0.5 * rho * v_w**2 * KITE.S * math.hypot(C_D, C_L) * (1.0 + (C_L / C_D) ** 2)


def draw_problem(uniform, massless=False):
    """A problem with a tensioned tether, each number ``uniform(lo, hi)``;
    without airborne masses if ``massless``."""
    theta = uniform(math.radians(10.0), math.radians(88.0))
    phi = uniform(-math.radians(40.0), math.radians(40.0))
    b = math.sin(theta) * math.cos(phi)
    r, chi = uniform(50.0, 1000.0), uniform(0.0, 2.0 * math.pi)
    f = uniform(-1.0, 0.9 * b)
    C_L, C_D = uniform(0.1, 1.5), uniform(0.03, 0.5)
    v_w, rho = uniform(3.0, 25.0), uniform(1.0, 1.25)
    if massless:
        return Problem(r, theta, phi, chi, f, C_L, C_D, v_w, rho)
    return Problem(r, theta, phi, chi, f, C_L, C_D, v_w, rho, uniform(0.0, 60.0),
                   uniform(0.0, 8.0))


@st.composite
def problems(draw, massless=False):
    """:func:`draw_problem` with hypothesis drawing each number."""
    return draw_problem(lambda lo, hi: draw(st.floats(lo, hi)), massless)


def force(res, end):
    return res.F_t_kite if end == "kite" else res.F_tg


def assume_aero_dominated(p):
    """Keep states where the massless tether force is at least twice the
    airborne weight.  Below that, gravity can make the force rise with f:
    the kite-end force of a weak-wind downward kite at L/D 0.5, and the
    ground-end force once the tether weight exceeds the kite tension.
    The force inversion then need not return the drawn f (see
    test_inversion_meets_the_force_or_names_why)."""
    b = math.sin(p.theta) * math.cos(p.phi)
    F_massless = force_scale(p.C_L, p.C_D, p.v_w, p.rho) * (b - p.f) ** 2
    assume(F_massless >= 2.0 * (p.m + p.m_t) * 9.81)


def solve_or_skip(p):
    try:
        return p.solve()
    except (SteadyStateError, TetherSagError):
        assume(False)


@PROPERTY
@given(problems(), st.sampled_from(["kite", "ground"]))
def test_gravity_inversion_round_trip(p, end):
    assume_aero_dominated(p)
    F = force(solve_or_skip(p), end)
    f, _ = gravity_setpoint(F, end, *p.tail())
    res = p._replace(f=f).solve()
    assert abs(force(res, end) / F - 1.0) <= 1e-6


def bisect_reel_factor(F, end, p, f_high_force):
    """Reeling factor at which the tether force at ``end`` falls through
    ``F``, by bisection from ``f_high_force`` (where the force is above F)
    to just below sin(theta)*cos(phi), each probe a kinematic solve; a
    probe without an equilibrium counts as below F."""
    def above(f):
        try:
            res = p._replace(f=f).solve()
        except (SteadyStateError, TetherSagError):
            return False
        return force(res, end) > F

    lo, hi = f_high_force, math.sin(p.theta) * math.cos(p.phi) - 1e-9
    assume(above(lo))
    while 0.5 * (lo + hi) not in (lo, hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return lo


@PROPERTY
@given(problems(), st.sampled_from(["kite", "ground"]))
def test_joint_inversion_matches_tight_nested_reference(p, end):
    assume_aero_dominated(p)
    F = force(solve_or_skip(p), end)
    f_ref = bisect_reel_factor(F, end, p, p.f - 0.5)
    f, eq = gravity_setpoint(F, end, *p.tail())
    assert abs(f - f_ref) <= 1e-6
    assert abs(force(eq, end) / F - 1.0) <= 1e-6


def definite(exc, failures):
    return any(type(exc) is kind and str(exc).startswith(start) for kind, start in failures)


@PROPERTY
@given(problems(), st.sampled_from(["kite", "ground"]), st.just(1.0) | st.floats(0.1, 10.0))
# The larger root has G falling through G*.
@example(Problem(50.0, 1.0, 0.0, 3.0, 0.0, 1.0, 0.03125, 3.0, 1.0, 21.0, 0.0), "kite", 0.25)
# The larger root is off the tangential-speed branch: lam < a.
@example(Problem(230.0, 1.451, 0.5, 3.85, -0.51, 0.24, 0.367, 19.6, 1.2, 30.0, 7.1), "ground",
         0.5)
def test_inversion_meets_the_force_or_names_why(p, end, scale):
    # Weight-dominated states too: there the force need not fall with f.
    # A returned factor is a true equilibrium that carries the target, on
    # the tangential-speed branch and where G rises through G*; it is
    # never a wrong root returned silently.
    try:
        F = scale * force(p.solve(), end)
    except SolverError:
        assume(False)
    try:
        f, eq = gravity_setpoint(F, end, *p.tail())
    except SolverError as exc:
        assert definite(exc, INVERSION_FAILURES), repr(exc)
        return
    assert -3.0 <= f < math.sin(p.theta) * math.cos(p.phi)
    assert eq.lam >= 0.0
    assert abs(force(eq, end) / F - 1.0) <= 1e-9
    (G, G_above), (lam, _) = implied_lift_to_drag([eq.kappa, eq.kappa * (1.0 + 1e-6)], f,
                                                  *p.tail())
    assert abs(G / (p.C_L / p.C_D) - 1.0) <= 1e-9
    assert G_above > G
    assert abs(lam - eq.lam) <= 1e-9 * max(1.0, eq.lam)


@PROPERTY
@given(problems(massless=True))
def test_massless_inversion_round_trip(p):
    try:
        F = p.closed_form().F_t_kite
    except SteadyStateError:
        assume(False)
    f, eq = massless_setpoint(F, *p.tail(massless=True))
    res = p._replace(f=f).closed_form()
    assert eq == res
    assert abs(res.F_t_kite / F - 1.0) <= 1e-6


def phase_engine(C_L, LD_k, phi, chi, m=0.0, m_t=None, r=None, force_at=None):
    """The engine of a phase flown at (phi, chi), whose tether adds little
    drag to the aero set (C_L, LD_k): massless without ``force_at``, else
    with gravity, the force set at ``force_at``, airborne mass ``m`` and
    a tether that weighs ``m_t`` at length ``r``."""
    kite = replace(KITE, m=m, aero_traction=AeroSet(C_L, LD_k))
    op = OperationSettings(beta_o=0.5, phi_o=phi, chi_o=chi, r_min=100.0, r_max=200.0,
                           F_out=2.0, F_in=1.0, gravity=force_at is not None,
                           force_at=force_at or "kite")
    d_t = 1e-4
    rho_t = 724.0 if m_t is None else max(m_t, 1e-6) / (0.25 * math.pi * d_t**2 * r)
    return _PhaseEngine(Environment(v_w_ref=10.0, z_ref=6.0, z0=0.07), kite,
                        TetherParams(d_t=d_t, rho_t=rho_t), op, kite.aero_traction, phi, chi)


def engine_step(engine, F_target, r, theta, wind):
    """An engine's force step as (f, equilibrium): its kernel at its bound
    constants of ``F_target`` and its tether properties at ``r``."""
    bound = engine.bind(F_target)
    m_t, C_D = engine.tether_at(r)
    f, values = engine.kernel(bound, theta, C_D, m_t, *wind)
    return f, EquilibriumResult(*values)


def outcome(call):
    """The repr of what ``call`` returns, which tells every float bit
    apart, or the class and message of the error it raises."""
    try:
        return repr(call())
    except KitecycleError as exc:
        return type(exc), str(exc)


def public_inversion(engine, F_target, r, theta, wind):
    """massless_setpoint, or gravity_setpoint where the engine has
    gravity, called with the engine's angles and coefficients at ``r``."""
    m_t, C_D = engine.tether_at(r)
    head = (theta, angle_trig(engine.phi, engine.chi), engine.aero_set.C_L, C_D)
    if engine.op.gravity:
        return gravity_setpoint(F_target, engine.op.force_at, *head, m_t, engine.kite.m,
                                engine.kite.S, *wind)
    return massless_setpoint(F_target, *head, engine.kite.S, *wind)


@PROPERTY
@given(problems(massless=True), st.floats(-40.0, 3.0))
def test_massless_step_is_the_public_inversion(p, log_ratio):
    # Targets from 1e-40 to 1e3 times the force at b - f = 1 reach every
    # outcome: an equilibrium, f >= b, no real or a negative tangential
    # speed, and f below -3.
    engine = phase_engine(p.C_L, p.C_L / p.C_D, p.phi, p.chi)
    F = force_scale(p.C_L, p.C_D, p.v_w, p.rho) * 10.0**log_ratio
    args = (engine, F, p.r, p.theta, WindState(p.v_w, p.rho))
    assert outcome(lambda: engine_step(*args)) == outcome(
        lambda: public_inversion(*args))


@PROPERTY
@given(problems(), st.sampled_from(["kite", "ground"]), st.floats(-40.0, 200.0))
# G falls through G* with kappa at the root.
@example(Problem(103.3, 0.88, 0.086, 2.68, 0.0, 1.318, 0.298, 7.4, 1.126, 29.1, 2.85), "ground",
         -1.616)
# The larger root is off the tangential-speed branch: lam < a.
@example(Problem(729.0, 1.28, 0.668, 4.28, 0.0, 0.386, 0.0614, 15.57, 1.16, 51.3, 6.35), "kite",
         -2.13)
# The root has f >= sin(theta)*cos(phi): no tension.
@example(Problem(438.5, 1.518, -0.0536, 5.244, 0.0, 1.1425, 0.4942, 9.717, 1.0426, 37.2, 4.25),
         "kite", -1.562)
# The root leaves the tether pushing on the ground station.
@example(Problem(782.0, 0.455, 0.367, 0.244, 0.0, 0.261, 0.347, 4.13, 1.16, 29.9, 3.89), "kite",
         -0.535)
def test_gravity_step_is_the_public_inversion(p, end, log_ratio):
    # Targets from 1e-40 to 1e200 times the massless force at b - f = 1
    # reach an equilibrium and the other ways a set-point is unreachable:
    # no radial tension, no real or a negative tangential speed, f below
    # -3 and a square that overflows.
    engine = phase_engine(p.C_L, p.C_L / p.C_D, p.phi, p.chi, p.m, p.m_t, p.r, end)
    F = force_scale(p.C_L, p.C_D, p.v_w, p.rho) * 10.0**log_ratio
    args = (engine, F, p.r, p.theta, WindState(p.v_w, p.rho))
    assert outcome(lambda: engine_step(*args)) == outcome(lambda: public_inversion(*args))


def setpoint_target(p, log_ratio):
    """The massless tether force at the drawn reeling factor, times 10**log_ratio."""
    b = math.sin(p.theta) * math.cos(p.phi)
    return force_scale(p.C_L, p.C_D, p.v_w, p.rho) * (b - p.f) ** 2 * 10.0**log_ratio


def setpoint_outcomes(p, end, F_target):
    """What the gravity set-point step and the probe oracle give for ``p``:
    the factor and the equilibrium's fields but ``iterations`` (0 and 1),
    or the class and message of the error."""
    bound = bind_setpoint(F_target, end, angle_trig(p.phi, p.chi), p.C_L, p.m, p.S)

    def fields(step):
        f, values = step(bound, p.theta, p.C_D, p.m_t, p.v_w, p.rho)
        return f, values[:-1]
    return outcome(lambda: fields(gravity_setpoint_step)), outcome(
        lambda: fields(probe_setpoint_step))


@PROPERTY
@given(problems(), st.sampled_from(["kite", "ground"]), st.floats(-1.5, 1.0))
# G falls through G* with kappa at the root.
@example(Problem(103.3, 0.88, 0.086, 2.68, 0.0, 1.318, 0.298, 7.4, 1.126, 29.1, 2.85), "ground",
         -0.2)
def test_closed_form_rising_test_is_the_probe(p, end, log_ratio):
    # The sign of d log G / d log kappa in closed form gives the verdict of
    # the geometry probe just above the root, and so the same result or error.
    new, probe = setpoint_outcomes(p, end, setpoint_target(p, log_ratio))
    assert new == probe


def test_closed_form_rising_test_takes_both_branches():
    # Seeded draws from problems()' domain at both ends: the closed form and
    # the probe agree on each, and both rising and falling roots occur.
    rng, verdicts = random.Random(1), collections.Counter()
    falls = "G falls through G* with kappa"
    for _ in range(3000):
        p, end = draw_problem(rng.uniform), rng.choice(["kite", "ground"])
        new, probe = setpoint_outcomes(p, end, setpoint_target(p, rng.uniform(-1.5, 1.0)))
        assert new == probe, p
        kind = "rises" if isinstance(new, str) else "falls" if falls in new[1] else "other"
        verdicts[kind] += 1
    assert verdicts["rises"] > 0 and verdicts["falls"] > 0, verdicts


def test_rising_test_where_lam_is_a():
    # At s = lam - a = 0 the lam term sag/s of the test is infinite, so the
    # sign of sag decides; where sag is 0 too the term drops out.  K = 1,
    # N = 1, F_a = F_a_r = b - f = 1: 3N = 3 against 2 - sag/s.
    assert _rises(1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.5)
    assert not _rises(1.0, 0.0, 1.0, 1.0, 1.0, 1.0, -0.5)
    assert _rises(1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    assert not _rises(1.0, 0.0, 0.5, 1.0, 1.0, 1.0, 0.0)
    # The limit s -> 0+ agrees, and no root without kappa > 0 rises.
    assert not _rises(1.0, 1e-300, 1.0, 1.0, 1.0, 1.0, -1e-290)
    assert _rises(1.0, 1e-300, 1.0, 1.0, 1.0, 1.0, 1e-290)
    assert not _rises(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.5)
    assert not _rises(math.nan, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5)


# The flight constants (C_L, C_D, S, v_w, rho) of the balance tests; no load depends on them.
FLIGHT = (1.0, 0.2, 10.2, 10.0, 1.2)


@PROPERTY
@given(st.floats(-1.5, 3.1), st.floats(0.0, 50.0), st.floats(0.0, 60.0), st.floats(10.0, 1e5),
       st.booleans())
def test_tether_balance_inverts_the_forward_balance(theta, m_t, m, F_end, ground):
    # The end force inverted to the aerodynamic force, then carried back along
    # the tether by the equilibrium's forward balance, is the end force again.
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    force = tether_balance(sin_t, cos_t, m_t, m, F_end, ground)
    terms = tether_balance(sin_t, cos_t, m_t, m, F_end, ground, FLIGHT)
    assert terms[-1] == force
    assume(force is not None)
    F_a_r, F_a = force
    assert F_a == pytest.approx(math.hypot(F_a_r, terms[2]), rel=1e-15)
    try:
        fields = _equilibrium((1.0, 1.0, 1.0, F_a, F_a_r), 0.5, 0, terms, *FLIGHT[2:])
    except TetherSagError:  # the tether would push on the kite or the ground station
        assume(False)
    assert fields[7 if ground else 6] == pytest.approx(F_end, rel=1e-12)


@PROPERTY
@given(st.floats(0.01, 3.1), st.floats(0.01, 50.0), st.floats(0.0, 60.0))
def test_kite_force_at_the_sag_reaction_is_unreachable(theta, m_t, m):
    # The kite end carries no force at or below its sag reaction.
    F_t_theta = tether_balance(math.sin(theta), math.cos(theta), m_t, m, None, False, FLIGHT)[5]
    F_target = abs(F_t_theta)
    with pytest.raises(SetpointUnreachableError) as info:
        gravity_setpoint(F_target, "kite", theta, angle_trig(0.0, 0.0), *FLIGHT[:2], m_t, m,
                         *FLIGHT[2:])
    assert str(info.value) == (f"force {F_target:.6g} N at the kite: no radial tension at the "
                               f"kite (sag reaction {F_target:.6g} N)")


@PROPERTY
@given(problems(), st.booleans(), st.sampled_from([None, "kite", "ground"]), st.floats(-1.5, 1.0),
       st.floats(0.05, 0.95))
def test_set_point_first_transition_is_the_coasting_first_controller(p, level, force_at,
                                                                     log_ratio, ratio):
    # Transition flies at phi = chi = 0; drawn angles test the controller
    # beyond that.  Massless (force_at None) or with gravity, it reels out,
    # coasts or reels in with the same values, or raises the same error, as
    # the controller that made the coasting solve first.
    phi, chi = (0.0, 0.0) if level else (p.phi, p.chi)
    engine = phase_engine(p.C_L, p.C_L / p.C_D, phi, chi, p.m, p.m_t, p.r, force_at)
    F_out = setpoint_target(p, log_ratio)
    engine.op = replace(engine.op, F_out=F_out, F_in=ratio * F_out)

    def step(controller):
        bounds = engine.bind(engine.op.F_in), engine.bind(engine.op.F_out)
        m_t, C_D = engine.tether_at(p.r)
        return controller(bounds, p.theta, C_D, m_t, p.v_w, p.rho)

    assert outcome(lambda: step(_transition_controller(engine))) == outcome(
        lambda: step(coasting_first_controller(engine)))


PRESET_CONFIGS = {name: load_config(preset_path(name)) for name in ("strong_wind", "moderate_wind")}


@PROPERTY
@given(st.sampled_from(sorted(PRESET_CONFIGS)), st.booleans(),
       st.sampled_from(["retraction", "transition", "traction"]), st.sampled_from(["F_in", "F_out"]),
       st.floats(-1000.0, 1000.0), st.floats(-1.6, 3.2))
@example("strong_wind", True, "traction", "F_out", 692.3948368566255, 0.8253623387820821)
# Below the roughness length, at r <= 0 above it, and unreachable set-points.
@example("strong_wind", True, "traction", "F_out", -171.3720013984514, -0.7695644724205555)
@example("strong_wind", False, "retraction", "F_out", -764.1625926578779, 2.0526197355803633)
@example("strong_wind", True, "traction", "F_in", 72.27612016480907, -0.0815309884075004)
@example("strong_wind", False, "retraction", "F_out", 325.5710621998014, -1.5688469673004177)
def test_bound_phase_step_is_the_public_path(preset, gravity, phase, setpoint, r, theta):
    # A phase's step through its bound wind law, tether properties and
    # set-point gives the public set-point's result at wind_state_at and
    # tether_properties bit for bit, or raises its error with its message.
    cfg = PRESET_CONFIGS[preset]
    op = replace(cfg.operation, gravity=gravity)
    aero, phi, chi = {"retraction": (cfg.kite.aero_retraction, 0.0, math.pi),
                      "transition": (cfg.kite.aero_traction, 0.0, 0.0),
                      "traction": (cfg.kite.aero_traction, op.phi_o, op.chi_o)}[phase]
    engine = _PhaseEngine(cfg.environment, cfg.kite, cfg.tether, op, aero, phi, chi)
    F_target = getattr(op, setpoint)

    def bound():
        bound = engine.bind(F_target)
        v_w, rho = engine.wind_at(r * math.cos(theta))
        m_t, C_D = engine.tether_at(r)
        f, values = engine.kernel(bound, theta, C_D, m_t, v_w, rho)
        return f, EquilibriumResult(*values)

    def public():
        wind = wind_state_at(r * math.cos(theta), cfg.environment)
        m_t, C_D = tether_properties(r, cfg.tether, cfg.kite, aero)
        head = (theta, angle_trig(phi, chi), aero.C_L, C_D)
        if gravity:
            return gravity_setpoint(F_target, op.force_at, *head, m_t, cfg.kite.m, cfg.kite.S,
                                    *wind)
        return massless_setpoint(F_target, *head, cfg.kite.S, *wind)

    assert outcome(bound) == outcome(public)


def massless_failure_cases():
    """(theta, chi, C_L, LD_k, b - f or None for a target F, F, error, message start) of
    each way a massless inversion fails, at phi = 0 and r = 150 m."""
    theta = math.radians(60.0)
    return [
        (3.5, 0.0, 0.7, 5.0, None, 1e3, ValidationError, "polar angle must be in"),
        (theta, 0.0, 0.7, 5.0, 3.5 + math.sin(theta), None, SetpointUnreachableError,
         "force "),
        (theta, 0.0, 0.7, 5.0, None, 1e-300, NoTensionError, "reeling factor"),
        # G = 0.5 and b - f = 0.5: G*(b - f) is below sqrt(1 - a**2 - b**2)
        # = 0.5 flying sideways, and below -a = 0.5 flying up.
        (theta, 0.5 * math.pi, 0.1, 0.5, 0.5, None, SteadyStateError, "tangential velocity "
         "factor has no real solution"),
        (theta, math.pi, 0.1, 0.5, 0.5, None, SteadyStateError, "tangential velocity factor "
         "is negative"),
    ]


@pytest.mark.parametrize("case", massless_failure_cases(),
                         ids=["theta", "f_below_-3", "f_at_b", "radicand", "negative_lam"])
def test_massless_step_fails_as_the_public_inversion(case):
    theta, chi, C_L, LD_k, b_f, F, error, message = case
    engine = phase_engine(C_L, LD_k, 0.0, chi)
    wind = WindState(10.0, 1.2)
    if F is None:
        _, C_D = engine.tether_at(150.0)
        F = force_scale(C_L, C_D, *wind) * b_f**2
    args = (engine, F, 150.0, theta, wind)
    got = outcome(lambda: engine_step(*args))
    assert got[0] is error and got[1].startswith(message), got
    assert got == outcome(lambda: public_inversion(*args))


def test_massless_kernel_rejects_non_positive_drag_as_the_public_inversion():
    # No engine yields C_D <= 0, so the set-point is called directly; the
    # equilibrium at a reeling factor rejects the coefficients alike.
    for C_D in (0.0, -0.2):
        tail = (1.0, (0.0, 1.0, 0.0, 1.0), 0.7, C_D, KITE.S, 10.0, 1.2)
        kernel = outcome(lambda: massless_setpoint(1e3, *tail))
        assert kernel == (ValidationError, f"effective coefficients must be positive, got "
                                           f"C_L=0.7, C_D={C_D}")
        assert kernel == outcome(lambda: massless_state(0.0, *tail))


def test_gravity_kernel_rejects_non_positive_drag_as_the_public_inversion():
    # No engine yields C_D <= 0, so the set-point is called directly; the
    # kinematic solve rejects the coefficients alike.
    for C_D in (0.0, -0.2):
        tail = (1.0, (0.0, 1.0, 0.0, 1.0), 0.7, C_D, 1.0, 10.0, KITE.S, 10.0, 1.2)
        kernel = outcome(lambda: gravity_setpoint(1e3, "kite", *tail))
        assert kernel == (ValidationError, f"effective coefficients must be positive, got "
                                           f"C_L=0.7, C_D={C_D}")
        assert kernel == outcome(lambda: solve_kinematic_ratio(0.0, *tail))


@PROPERTY
@given(problems(), st.floats(1e-3, 0.5), st.sampled_from(["kite", "ground"]))
def test_tether_force_decreases_with_reeling_factor(p, df, end):
    high_f = p._replace(f=p.f + df)
    assume(high_f.f < math.sin(p.theta) * math.cos(p.phi))
    assume_aero_dominated(high_f)
    low = solve_or_skip(p)
    high = solve_or_skip(high_f)
    assert force(high, end) < force(low, end)


@PROPERTY
@given(problems(massless=True))
def test_gravity_mode_without_mass_is_the_closed_form(p):
    try:
        ml = p.closed_form()
    except SteadyStateError:
        assume(False)
    res = p.solve()
    assert res.iterations == 1
    for field in ("kappa", "lam", "v_a", "F_a", "F_t_kite", "F_tg", "zeta", "P"):
        assert math.isclose(getattr(res, field), getattr(ml, field), rel_tol=1e-9, abs_tol=1e-9)


@PROPERTY
@given(problems())
# G barely rises with kappa (d log G / d log kappa = 0.037): a residual
# bound of 1e-7 on G/G* - 1 left kappa 1.6e-6 off here.
@example(Problem(50.0, 1.115084417259966, -0.3125, 2.0, 0.5397545978330571, 1.5,
                 0.3744629565277525, 11.75, 1.1985975364711163, 16.25, 0.0))
# The root's radial aerodynamic force does not carry the radial kite
# weight: the tether would push on the kite.
@example(Problem(100.0, 0.32370480643234667, -0.6204325970340215, 0.09095910556995095, 0.0,
                 0.2488217073758491, 0.2453056262277199, 11.522279840502655, 1.2,
                 48.17458546284782, 3.8129599266705387))
# A narrow dip of G below G* (kappa = 2.2646): between two scan steps G
# falls below G* and rises again, where the kernel finds G falling.
@example(Problem(761.7745565267228, 0.25415418897939895, 0.445315570121967, 4.460473970061984,
                 -0.1982112494583399, 0.8587953126107178, 0.18905026059727922, 8.325785404190965,
                 1.0644129109904037, 25.651984671847092, 7.825958717209095, 10.2))
# A root near the scan's lower end (kappa = 0.244), where the force barely
# changes with kappa: a scan stepping in log force jumps past it.
@example(Problem(504.48837868617846, 1.3714302691468425, -0.29890053923715054, 2.322501014386784,
                 -0.5880617296803311, 0.7095010981118385, 0.4072578903859426, 6.157813771440836,
                 1.1857906834866572, 32.20025616863127, 5.939108452610998, 10.2))
def test_kinematic_ratio_matches_tight_bisection(p):
    reference = bisect_kappa(p.f, *p.tail())
    try:
        res = p.solve()
    except SteadyStateError as exc:
        # The reference finds no root either, or one with a negative
        # tangential speed.
        assert reference is None or "negative tangential" in str(exc), (reference, exc)
        return
    except TetherSagError:
        return
    assert reference is not None
    assert abs(res.kappa / reference - 1.0) <= 1e-8
    # The tether pulls on the kite.
    assert res.F_a_r - p.m * 9.81 * math.cos(p.theta) > 0.0


# Draws of draw_problem (random.Random(seed), then draw_problem(rng.uniform)
# in order; #n counts from 0) whose outcome only _largest_root's search of a
# step where G falls finds.  One midpoint probe per such step, in place of
# the bisection on the rising verdict, ends the four seed-3 draws in "no lam
# >= a meets the drag condition below kappa = ...".  Without that search the
# seed-2 root is lost at the solver's scan step, and the seed-3 outcomes at
# half that step.  Each solves to kappa within 1e-11, or fails with the
# message given.
DIP_DRAWS = {
    "seed 2 #5250": (Problem(252.947743589486, 0.31544526019294516, -0.5407907860905271,
                             0.1015913676632846, 0.2224708976905938, 0.7126403175311005,
                             0.207834113260124, 16.954591229603096, 1.103383114322828,
                             33.222209007801055, 3.201417192911502), 12.516724319178541),
    "seed 3 #44306": (Problem(279.1676314759517, 0.9880076679584394, -0.5055911529511612,
                              0.009718832665879154, 0.6007815415390347, 1.2206407408967064,
                              0.4370279463648128, 21.903453734961552, 1.1588447452014827,
                              33.28391054542018, 2.2044994313179442), 4.3578537839004206),
    "seed 3 #82106": (Problem(379.8174309827508, 0.6484885727574441, -0.617329492915126,
                              0.018216752534245772, 0.3720277582341047, 0.6998906319408602,
                              0.1598914536098328, 11.783443553564691, 1.129494448644731,
                              2.4714290623171165, 0.8657348837329311), 5.047363563301122),
    "seed 3 #26092": (Problem(788.9407292233705, 0.5263395890962208, 0.05094089147889591,
                              5.715668046431157, 0.30365017070553546, 0.9122032836085645,
                              0.41153906836316523, 11.709998637258414, 1.0769358737678545,
                              43.93850796433773, 0.18430393467698192),
                      "kite tension -16.6481 N (radial) leaves the tether pushing on the kite: "
                      "F_a_r 356.049 N cannot carry the radial kite weight 372.697 N"),
    "seed 3 #43285": (Problem(482.97472054860964, 0.48801690707354506, -0.03141968049687205,
                              5.667913572417644, 0.28743364735282895, 1.0810939763276692,
                              0.36063867640442093, 9.831723352944035, 1.0532106511274388,
                              46.086471700615995, 7.733804209413697),
                      "kite tension 54.344 N leaves the tether pushing on the ground station: "
                      "it cannot carry the radial tether weight 67.0121 N"),
}


@pytest.mark.parametrize("draw", DIP_DRAWS)
def test_dip_search_keeps_its_outcomes(draw):
    p, expected = DIP_DRAWS[draw]
    if isinstance(expected, str):
        with pytest.raises(TetherSagError) as info:
            p.solve()
        assert str(info.value) == expected
    else:
        assert abs(p.solve().kappa / expected - 1.0) <= 1e-11


# Seed 2 #30630, numbered as DIP_DRAWS: _largest_root narrows a bracket to
# its width with a negative residual at one end, and returns the end of the
# smaller residual, here the positive one.  It solves in 16 kernel evaluations.
NARROWED_DRAW = Problem(890.3025548431593, 1.507201544472842, 0.25173742307852887,
                        5.760495502950926, 0.8382368544077876, 0.21097976376413397,
                        0.47787312265189663, 6.04581414550034, 1.1752708549627222,
                        35.16124996294741, 0.7117906625361723)


def test_a_bracket_narrowed_to_a_negative_residual_keeps_its_outcome():
    res = NARROWED_DRAW.solve()
    assert abs(res.kappa / 13.587646357644257 - 1.0) <= 1e-11
    assert res.iterations == 16


@PROPERTY
@given(problems(), st.floats(10.0, 1e5), st.sampled_from(["kite", "ground"]))
def test_failures_are_definite(p, F_target, end):
    for call, failures in (
        (p.solve, SOLVE_FAILURES),
        (lambda: gravity_setpoint(F_target, end, *p.tail()), INVERSION_FAILURES),
    ):
        try:
            call()
        except (SteadyStateError, NoTensionError, TetherSagError,
                SetpointUnreachableError) as exc:
            assert definite(exc, failures), repr(exc)


@st.composite
def out_of_domain(draw):
    """A problem with one of theta, C_L, C_D, S, m, v_w or rho outside its
    domain, the message its entry check gives, and whether the massless
    pair, which takes no m, checks it too."""
    p = draw(problems(massless=True))
    which = draw(st.sampled_from(["theta", "C_L", "C_D", "C_L_or_C_D", "S", "m", "v_w", "rho"]))
    non_finite = st.sampled_from([math.inf, math.nan])
    if which == "theta":
        theta = draw(st.floats(max_value=-0.5 * math.pi) | st.floats(min_value=math.pi)
                     | st.just(math.nan))
        return p._replace(theta=theta), f"polar angle must be in (-pi/2, pi), got {theta}", True
    if which in ("C_L", "C_D"):
        p = p._replace(**{which: draw(st.floats(max_value=0.0))})
        return p, f"effective coefficients must be positive, got C_L={p.C_L}, C_D={p.C_D}", True
    if which == "C_L_or_C_D":
        p = p._replace(**{draw(st.sampled_from(["C_L", "C_D"])): draw(non_finite)})
        return p, f"effective coefficients must be finite, got C_L={p.C_L}, C_D={p.C_D}", True
    if which == "S":
        p = p._replace(S=draw(st.floats(max_value=0.0) | non_finite))
        return p, f"projected wing area must be > 0 and finite, got {p.S}", True
    if which == "m":
        p = p._replace(m=draw(st.floats(max_value=-1e-300) | non_finite))
        return p, f"airborne mass must be >= 0 and finite, got {p.m}", False
    if which == "v_w":
        p = p._replace(v_w=draw(st.floats(max_value=-1e-300)))
    else:
        p = p._replace(rho=draw(st.floats(max_value=0.0)))
    return p, f"wind state requires v_w >= 0 and rho > 0, got v_w={p.v_w}, rho={p.rho}", True


@PROPERTY
@given(out_of_domain())
def test_equilibrium_entry_points_check_their_inputs(problem):
    p, message, massless_too = problem
    calls = (
        p.closed_form,
        lambda: massless_setpoint(1e3, *p.tail(massless=True)),
        p.solve,
        lambda: gravity_setpoint(1e3, "kite", *p.tail()),
    )
    for call in calls if massless_too else calls[2:]:
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message


SPEED = st.floats(-40.0, 40.0)
ESTIMATE_CONFIG = PRESET_CONFIGS["strong_wind"]
# What a drawn sample aims at: one of the estimator's gates, or none.
ESTIMATE_GATES = ("none", "below_z0", "b_f", "radicand", "sag", "traction", "retraction",
                  "va_tau", "va_tau_no_chi", "G", "tether_drag")


def overflowing_ratio_sample():
    """A sample whose apparent wind over the wind's radial share, b_f*v_w
    with b_f = 1e-13, is too large to square."""
    theta, phi, r, v_w_ref = 1.0, 0.1, 300.0, 10.0
    v_w = bind_wind(ESTIMATE_CONFIG.environment)(r * math.cos(theta), v_w_ref)[0]
    v_t = v_w * (math.sin(theta) * math.cos(phi) - 1e-13)
    return LogRecord(0.0, 3000.0, r, theta, phi, 1.0, 1e150, 0.0, 0.0, v_t, v_w_ref, "traction")


@st.composite
def estimate_samples(draw, gate):
    """A labelled telemetry sample at t = 0, drawn to reach ``gate``, one of
    ESTIMATE_GATES; an earlier gate may still reject it."""
    env, tether = ESTIMATE_CONFIG.environment, ESTIMATE_CONFIG.tether
    r = draw({"below_z0": st.floats(1e-3, env.z0), "tether_drag": st.floats(1000.0, 1500.0)}
             .get(gate, st.floats(50.0, 1500.0)))
    theta, phi = draw(st.floats(0.2, 1.5)), draw(st.floats(-0.6, 0.6))
    chi = draw(st.none() | st.floats(0.0, 2.0 * math.pi))
    vk, v_t = (draw(SPEED), draw(SPEED), draw(SPEED)), draw(st.floats(-10.0, 10.0))
    F_tg, v_w_ref = draw(st.floats(0.0, 2e4)), draw(st.floats(3.0, 15.0))
    phase = draw(st.sampled_from(["retraction", "transition", "traction"]))
    v_w = bind_wind(env)(max(r * math.cos(theta), env.z0), v_w_ref)[0]
    radial = math.sin(theta) * math.cos(phi)  # the wind's radial share
    sag = 0.5 * math.sin(theta) * tether.mass(r) * GRAVITY
    if gate == "b_f":  # reeling out at least as fast as the radial wind
        v_t = v_w * radial * draw(st.floats(1.0, 3.0))
    elif gate == "radicand":  # drifting with the wind
        vk, v_t = (v_w * draw(st.floats(0.9, 1.1)), draw(st.floats(-1.0, 1.0)), 0.0), 0.0
    elif gate == "sag":
        F_tg = draw(st.floats(0.0, sag))
    elif gate == "traction":  # slower than CROSSWIND_RATIO reference winds
        phase, vk = "traction", tuple(v_w_ref * draw(st.floats(-0.8, 0.8)) for _ in range(3))
    elif gate == "retraction":  # off the upward in-plane course
        phase, chi = "retraction", draw(st.none() | st.floats(0.0, 2.0))
    elif gate in ("va_tau", "va_tau_no_chi", "G"):
        # No tangential apparent wind: the kite flies with the wind, less
        # a radial apparent flow c along e_r.
        v_t = v_w * radial * draw(st.floats(-1.0, 0.9))
        c = (v_w * radial - v_t) * draw(st.floats(1.05, 2.0))
        e_r = (radial, math.sin(theta) * math.sin(phi), math.cos(theta))
        vk = (v_w - c * e_r[0], -c * e_r[1], -c * e_r[2])
        phase = "transition"
        if gate == "va_tau_no_chi":
            chi = None
        elif gate == "G":  # gravity against a weak force: chi near 0, cos_proj near -1
            chi, F_tg = draw(st.floats(-0.3, 0.3)), sag + draw(st.floats(0.0, 300.0))
    elif gate == "tether_drag":  # a fast apparent wind on a long tether
        vk, phase = (-draw(st.floats(60.0, 150.0)), draw(SPEED), draw(SPEED)), "transition"
    return LogRecord(0.0, F_tg, r, theta, phi, chi, *vk, v_t, v_w_ref, phase)


@settings(PROPERTY, max_examples=60)
@given(st.tuples(*map(estimate_samples, ESTIMATE_GATES)))
# Kite velocities too large to square: an infinite apparent wind, and a
# finite one over a tiny radial share; and a ground force too large to square.
@example([LogRecord(0.0, 3000.0, 300.0, 1.0, 0.1, 1.0, 1e160, 0.0, 0.0, 1.0, 10.0,
                    "traction")])
@example([overflowing_ratio_sample()])
@example([LogRecord(0.0, 1e308, 300.0, 1.0, 0.1, 1.0, -20.0, 5.0, 1.0, 1.0, 10.0, "traction")])
def test_bound_estimator_is_the_per_sample_path(strong_telemetry, samples):
    # segment_and_average binds the estimator once per series; each of its
    # estimates is estimate_record's for that sample and label, bit for bit
    # (repr tells every float apart, and NaN only from non-NaN).  The
    # series ends in one drawn sample per gate, after valid ones of each phase.
    cfg = ESTIMATE_CONFIG
    args = (cfg.kite, cfg.tether, cfg.environment)
    base = list(strong_telemetry[::14])
    series = base + [rec._replace(t=base[-1].t + 1.0 + i) for i, rec in enumerate(samples)]
    estimates = segment_and_average(series, *args).estimates
    labels = segment_phases(series)
    assert len(estimates) == len(series)
    for rec, label, est in zip(series, labels, estimates):
        assert repr(est) == repr(estimate_record(rec._replace(phase=label), *args))


# Each number of a sample, and its invariant where it has one, as (field,
# value strategy); a bad value is NaN or infinite, or breaks the invariant.
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
BAD_NUMBERS = [(name, NON_FINITE) for name in ("t", "F_tg", "r", "theta", "phi", "chi", "vk_x",
                                                "vk_y", "vk_z", "v_t", "v_w_ref")] + [
    ("r", st.floats(max_value=0.0, allow_infinity=False)),
    ("F_tg", st.floats(max_value=-5e-324, allow_infinity=False)),
    ("v_w_ref", st.floats(max_value=-5e-324, allow_infinity=False)),
]


@st.composite
def bad_numbers(draw):
    """A field of a telemetry sample and a value that makes the sample malformed."""
    name, values = draw(st.sampled_from(BAD_NUMBERS))
    return name, draw(values)


@settings(PROPERTY, max_examples=100)
@given(st.sampled_from(["retraction", "transition", "traction"]), st.floats(0.0, 1.0),
       bad_numbers())
@example("traction", 0.5, ("F_tg", math.nan))
def test_estimate_record_rejects_a_malformed_sample_as_the_series_check_does(
        strong_telemetry, phase, at, bad):
    # estimate_record applies the series check's rule for one sample, with
    # its message less the "sample 0: " prefix, to a valid strong-wind
    # sample of the drawn phase with one number made bad.
    cfg = ESTIMATE_CONFIG
    args = (cfg.kite, cfg.tether, cfg.environment)
    in_phase = [rec for rec in strong_telemetry if rec.phase == phase]
    rec = in_phase[int(at * (len(in_phase) - 1))]
    name, value = bad
    rec = rec._replace(**{name: value})
    with pytest.raises(ValidationError) as series:
        segment_and_average([rec], *args)
    assert str(series.value).startswith("sample 0: ")
    with pytest.raises(ValidationError) as single:
        estimate_record(rec, *args)
    assert str(single.value) == str(series.value)[len("sample 0: "):]


TELEMETRY_ROW = st.fixed_dictionaries({
    "dt": st.floats(1e-3, 1.0), "F_tg": st.floats(0.0, 5e3), "r": st.floats(1.0, 800.0),
    "theta_deg": st.floats(0.0, 89.0), "phi_deg": st.floats(-60.0, 60.0),
    "chi_deg": st.floats(-180.0, 180.0),
    "vk_x": SPEED, "vk_y": SPEED, "vk_z": SPEED, "v_t": st.floats(-10.0, 10.0),
    "v_w_ref": st.floats(0.0, 20.0),
    "phase": st.sampled_from(["", "retraction", "transition", "traction"]),
    "hold_position": st.booleans(), "blank_lines_before": st.integers(0, 2),
})


@st.composite
def telemetry_logs(draw):
    """A valid telemetry log as CSV text, and which rows have no course
    angle: shuffled columns, chi_deg and phase possibly absent, chi_deg
    blank in runs, labelled and unlabelled rows, repeated positions and
    blank lines between rows."""
    absent = draw(st.sets(st.sampled_from(["chi_deg", "phase"])))
    columns = [col for col in draw(st.permutations(TELEMETRY_COLUMNS)) if col not in absent]
    rows = draw(st.lists(TELEMETRY_ROW, min_size=1, max_size=25))
    blank_chi = []
    while len(blank_chi) < len(rows):
        blank_chi += [draw(st.booleans()) or "chi_deg" in absent] * draw(st.integers(1, 6))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    t, position = 0.0, {}
    for row, blank in zip(rows, blank_chi):
        t += row["dt"]
        if not row["hold_position"]:
            position = {"theta_deg": row["theta_deg"], "phi_deg": row["phi_deg"]}
        row = {**row, **position, "t": t, "chi_deg": "" if blank else row["chi_deg"]}
        text.write("\n" * row["blank_lines_before"])
        writer.writerow([row[col] for col in columns])
    return text.getvalue(), blank_chi[:len(rows)]


@settings(PROPERTY, max_examples=80)
@given(telemetry_logs())
def test_telemetry_reader_matches_the_dictreader_reference(log):
    text, blank_chi = log
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "telemetry.csv"
        path.write_text(text, encoding="utf-8")
        records = read_telemetry_csv(path)
        reference = dictreader_telemetry(path)
    assert repr(records) == repr(reference)
    # The reader fills each blank course angle by the reference rule.
    unfilled = [rec._replace(chi=None) if blank else rec
                for rec, blank in zip(records, blank_chi)]
    assert repr(course_angles(unfilled)) == repr(records)


def number(low, high, *edges):
    """Floats in [low, high], or one of ``edges``."""
    return st.floats(low, high) | st.sampled_from(edges)


# A finite number so large that a sum of two overflows.
HUGE = 1e308


@st.composite
def drawn_samples(draw):
    """Telemetry samples, each a time step (None: one ulp) and its columns,
    at the edges of the reader's checks: finite numbers whose sum
    overflows, blank chi_deg and time steps of one ulp; now and then, one
    sample is out of its domain or out of order."""
    n = draw(st.integers(1, 12))
    fault = draw(st.sampled_from([None] * 8 + ["t", "F_tg", "r", "v_w_ref"]))
    at = draw(st.integers(0, n - 1))
    samples = []
    for i in range(n):
        step = draw(st.none() | st.floats(1e-3, 10.0))
        row = {"F_tg": draw(number(0.0, 5e3, HUGE)), "r": draw(number(1e-3, 1500.0, HUGE)),
               "theta_deg": draw(number(-90.0, 90.0, HUGE, -HUGE)),
               "phi_deg": draw(number(-60.0, 60.0, HUGE, -HUGE)),
               "chi_deg": draw(number(-180.0, 180.0, "", HUGE, -HUGE)),
               "vk_x": draw(number(-40.0, 40.0, HUGE, -HUGE)), "vk_y": draw(SPEED),
               "vk_z": draw(SPEED), "v_t": draw(number(-10.0, 10.0, HUGE, -HUGE)),
               "v_w_ref": draw(number(0.0, 20.0, HUGE)),
               "phase": draw(st.sampled_from(["", "retraction", "transition", "traction"]))}
        if i == at and fault == "t":
            step = 0.0
        elif i == at and fault is not None:
            row[fault] = {"F_tg": -1.0, "r": 0.0, "v_w_ref": -1e-300}[fault]
        samples.append((step, row))
    return samples


def estimation_outcome(estimate, *args):
    """What ``estimate(*args)`` gives: its averages and estimates as text
    (repr tells every float apart), or the error it raises."""
    try:
        averages = estimate(*args)
    except KitecycleError as exc:
        return type(exc), str(exc)
    return repr(averages), [repr(est) for est in averages.estimates]


@settings(PROPERTY, max_examples=60)
@given(samples=drawn_samples())
def test_a_log_the_reader_accepts_passes_the_series_check(strong_telemetry, samples):
    # estimate_log checks each sample once, in the reader, and skips the
    # series check of segment_and_average: sound only if that check passes
    # every series the reader returns.  A log the reader rejects fails
    # estimate_log with the reader's error.  The drawn samples follow a
    # valid log, so that most logs average.
    cfg = ESTIMATE_CONFIG
    args = (cfg.kite, cfg.tether, cfg.environment)
    base = strong_telemetry[::14]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "telemetry.csv"
        estimation.write_telemetry_csv(path, base)
        t = base[-1].t
        with open(path, "a", newline="", encoding="utf-8") as fh:
            for step, row in samples:
                t = math.nextafter(t, math.inf) if step is None else t + step
                csv.writer(fh).writerow([t if col == "t" else row[col]
                                         for col in TELEMETRY_COLUMNS])
        estimated = estimation_outcome(estimate_log, path, *args)
        try:
            records = read_telemetry_csv(path)
        except KitecycleError as exc:
            assert estimated == (type(exc), str(exc))
            return
    checked = estimation_outcome(segment_and_average, records, *args)
    assert checked[0] is not ValidationError, checked
    assert estimated == checked


# CSV values: floats with the edge values, and labels that are None, blank
# or built from characters csv.writer quotes for.
FLOAT = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308,
                                       -1e308])
LABEL = st.none() | st.sampled_from(["", "retraction", "transition", "traction"]) | st.text(
    st.sampled_from(["a", "0", " ", ",", '"', "\r", "\n", "\u00e9"]), max_size=5)


def written_bytes(write, *args):
    """The bytes ``write(path, *args)`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write(path, *args)
        return path.read_bytes()


def csv_module_bytes(header, rows):
    """The bytes ``csv.writer`` writes for the header and rows."""
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    return text.getvalue().encode("utf-8")


def pool(draw, values):
    """A strategy that draws from a small drawn pool of ``values``, so that
    runs of draws share one object, as runs of a log's records share their
    angles."""
    return st.sampled_from(draw(st.lists(values, min_size=1, max_size=3)))


@st.composite
def cycles(draw):
    kept = dataio._FORCE_TEXTS
    phases = []
    for _ in range(3):
        # theta and the forces repeat within a phase, as traction's held theta
        # and a set-point force do.  A long phase first writes each of more
        # force values than the writer keeps texts of, then draws from them;
        # its other numbers come from a pool, to fit hypothesis's buffer.
        long = draw(st.booleans())
        forces = draw(st.lists(FLOAT, min_size=kept + 1, max_size=kept + 4, unique=True)
                      if long else st.lists(FLOAT, min_size=1, max_size=3))
        theta, number = pool(draw, FLOAT), pool(draw, FLOAT) if long else FLOAT
        values = array("d")
        for i in range(draw(st.integers(len(forces), len(forces) + kept) if long
                            else st.integers(0, 4))):
            t, r, f, v_t, v_k, v_a, P = draw(st.tuples(*[number] * 7))
            F_t_kite = forces[i] if long and i < len(forces) else draw(st.sampled_from(forces))
            F_tg = F_t_kite if draw(st.booleans()) else draw(st.sampled_from(forces))
            values.extend((t, r, draw(theta), f, v_t, v_k, v_a, F_t_kite, F_tg, P))
        phi, chi = draw(FLOAT), draw(FLOAT)  # one angle pair a phase
        phases.append(PhaseResult(draw(LABEL), 0.0, 0.0, 0.0, len(values) // 10, phi, chi,
                                  values))
    return CycleResult(*phases, 0.0, 0.0, 0.0, 0.0, 0)


@PROPERTY
@given(cycles())
# Equal numbers that print differently: the writer reuses the text of theta
# and a force never for a zero, and of F_t_kite for F_tg only for an equal
# non-zero value.
@example(CycleResult(
    PhaseResult("traction", 0.0, 0.0, 0.0, 2, 0.0, -0.0,
                array("d", [0.0] * 10 + [-0.0] * 10 + [0.0] * 8 + [-0.0, 0.0])),
    *[PhaseResult("", 0.0, 0.0, 0.0, 0, 0.0, 0.0, array("d"))] * 2, 0.0, 0.0, 0.0, 0.0, 0))
def test_timeseries_writer_matches_the_csv_module(cycle):
    rows = [[t, phase.phase, r, math.degrees(theta), math.degrees(0.5 * math.pi - theta),
             math.degrees(phase.phi), math.degrees(phase.chi), *rest]
            for phase in cycle.phases for t, r, theta, *rest in phase.rows()]
    assert written_bytes(dataio.write_timeseries_csv, cycle) == csv_module_bytes(
        dataio.TIMESERIES_COLUMNS, rows)


@st.composite
def log_records(draw):
    phi, chi = pool(draw, FLOAT), pool(draw, st.none() | FLOAT)
    return [LogRecord(*draw(st.tuples(FLOAT, FLOAT, FLOAT, FLOAT, phi, chi,
                                      FLOAT, FLOAT, FLOAT, FLOAT, FLOAT, LABEL)))
            for _ in range(draw(st.integers(0, 6)))]


@PROPERTY
@given(log_records())
def test_telemetry_writer_matches_the_csv_module(records):
    rows = [[rec.t, rec.F_tg, rec.r, math.degrees(rec.theta), math.degrees(rec.phi),
             "" if rec.chi is None else math.degrees(rec.chi), rec.vk_x, rec.vk_y, rec.vk_z,
             rec.v_t, rec.v_w_ref, rec.phase or ""] for rec in records]
    assert written_bytes(estimation.write_telemetry_csv, records) == csv_module_bytes(
        TELEMETRY_COLUMNS, rows)


@PROPERTY
@given(st.lists(st.builds(EstimateRecord, FLOAT, FLOAT, FLOAT, FLOAT, FLOAT, FLOAT,
                          st.booleans(), LABEL), max_size=6))
def test_estimates_writer_matches_the_csv_module(estimates):
    rows = [[est.t, est.phase or "", est.C_R, est.LD_sys, est.LD_k, est.kappa, est.v_a,
             "1" if est.valid else "0"] for est in estimates]
    assert written_bytes(dataio.write_estimates_csv, estimates) == csv_module_bytes(
        ["t", "phase", "C_R", "LD_sys", "LD_k", "kappa", "v_a", "valid"], rows)


@PROPERTY
@given(st.lists(st.fixed_dictionaries({"dT": FLOAT, "zeta_m": FLOAT, "steps": st.integers(),
                                       "ratio": FLOAT}), max_size=6))
def test_convergence_writer_matches_the_csv_module(rows):
    assert written_bytes(dataio.write_convergence_csv, rows) == csv_module_bytes(
        ["dT", "zeta_m", "steps", "ratio_to_ref"],
        [[row["dT"], row["zeta_m"], row["steps"], row["ratio"]] for row in rows])


@PROPERTY
@given(LABEL.filter(lambda label: label is not None),
       st.lists(st.fixed_dictionaries({"value": FLOAT | st.integers(), "P_m": FLOAT,
                                       "zeta_m": FLOAT}), max_size=6))
@example('kite.m "S",\r\n', [{"value": 3, "P_m": -0.0, "zeta_m": math.nan}])
def test_sweep_writer_matches_the_csv_module(parameter, rows):
    assert written_bytes(dataio.write_sweep_csv, parameter, rows) == csv_module_bytes(
        [parameter, "P_m", "zeta_m"], [[row["value"], row["P_m"], row["zeta_m"]] for row in rows])


@pytest.mark.parametrize("rows_of", ["0", "N-1", "N", "N+1", "2N+1"])
def test_csv_writer_keeps_every_row_across_chunks(rows_of):
    # A CSV is written N = _CHUNK lines a write: no row is lost or doubled
    # at a chunk's end.
    n = dataio._CHUNK
    count = {"0": 0, "N-1": n - 1, "N": n, "N+1": n + 1, "2N+1": 2 * n + 1}[rows_of]
    draw = random.Random(count)
    rows = [{"value": draw.uniform(-1e3, 1e3), "P_m": draw.uniform(-1e4, 1e4),
             "zeta_m": draw.random()} for _ in range(count)]
    assert written_bytes(dataio.write_sweep_csv, "operation.F_out", rows) == csv_module_bytes(
        ["operation.F_out", "P_m", "zeta_m"],
        [[row["value"], row["P_m"], row["zeta_m"]] for row in rows])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["strong_wind", "moderate_wind"]), st.booleans(),
       st.lists(st.floats(0.97, 1.03), min_size=3, max_size=3))
def test_phase_energies_add_up_to_the_cycle_energy(preset, gravity, factors):
    cfg = json.loads(preset_path(preset).read_text(encoding="utf-8"))
    for (section, key), factor in zip((("environment", "v_w_ref"), ("operation", "F_out"),
                                       ("operation", "F_in")), factors):
        cfg[section][key] *= factor
    cfg["operation"]["dT"] = 0.05
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        argv = ["simulate", "--config", str(config), "--out", tmp]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(argv + ([] if gravity else ["--no-gravity"])) == 0
        summary = json.loads((Path(tmp) / "cycle_summary.json").read_text(encoding="utf-8"))
    energy = sum(phase["energy"] for phase in summary["phases"].values())
    assert math.isclose(energy, summary["P_m"] * summary["duration"], rel_tol=1e-9)
