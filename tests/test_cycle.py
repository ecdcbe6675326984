import math
import re
import tracemalloc

import pytest

from kitecycle import (
    Environment,
    OperationSettings,
    convergence_study,
    massless_state,
    replace,
    simulate_cycle,
    simulate_retraction,
    simulate_traction,
    simulate_transition,
)
from kitecycle import cycle, steady_state
from kitecycle.errors import DomainError, PhaseError, SetpointUnreachableError, ValidationError
from oracles import traction_reference


def test_operation_settings_invariants():
    base = dict(beta_o=math.radians(27), phi_o=0.1, chi_o=1.7,
                r_min=390.0, r_max=720.0, F_out=3008.0, F_in=749.0)
    OperationSettings(**base)
    with pytest.raises(ValidationError):
        OperationSettings(**{**base, "r_min": 800.0})
    with pytest.raises(ValidationError):
        OperationSettings(**{**base, "dT": 0.0})
    with pytest.raises(ValidationError):
        OperationSettings(**{**base, "dT": 1.5})
    OperationSettings(**{**base, "dT": 1e-5})
    for dT in (9.99e-6, 1e-300):
        with pytest.raises(ValidationError, match=r"time step must be in \[1e-05, 1\]"):
            OperationSettings(**{**base, "dT": dT})
    with pytest.raises(ValidationError):
        OperationSettings(**{**base, "F_in": 3500.0})
    with pytest.raises(ValidationError):
        OperationSettings(**{**base, "force_at": "winch"})
    for beta_o in (0.0, 0.5 * math.pi):
        with pytest.raises(ValidationError, match="traction elevation must be in"):
            OperationSettings(**{**base, "beta_o": beta_o})


def test_no_reference_wind_rejected_before_the_first_step(strong_config):
    cfg = strong_config
    calm = replace(cfg.environment, v_w_ref=0.0)
    with pytest.raises(ValidationError,
                       match="cycle simulation requires a positive reference wind speed"):
        simulate_cycle(calm, cfg.kite, cfg.tether, cfg.operation)


def test_mean_traction_altitude(strong_config, strong_cycle):
    assert strong_cycle.z_mt == pytest.approx(252.0, abs=1.0)
    op = strong_config.operation
    assert strong_cycle.z_mt == 0.5 * math.cos(op.theta_o) * (op.r_min + op.r_max)


def test_phase_continuity(strong_cycle):
    ret, trans, trac = strong_cycle.phases
    assert trans.start.r == ret.end.r
    assert trans.start.theta == ret.end.theta
    assert trans.start.t == ret.end.t
    assert trac.start.r == trans.end.r
    assert trac.start.t == trans.end.t


def test_force_control_tracks_setpoints(strong_config, strong_cycle):
    op = strong_config.operation
    ret, trans, trac = strong_cycle.phases
    for F_tg in ret.values[8::10]:
        assert F_tg == pytest.approx(op.F_in, rel=1e-6)
    for F_tg in trac.values[8::10]:
        assert F_tg == pytest.approx(op.F_out, rel=1e-6)
    for f, F_tg in zip(trans.values[3::10], trans.values[8::10]):
        if f == 0.0:
            assert op.F_in * (1 - 1e-9) <= F_tg <= op.F_out * (1 + 1e-9)
        else:
            near_out = abs(F_tg - op.F_out) <= 1e-6 * op.F_out
            near_in = abs(F_tg - op.F_in) <= 1e-6 * op.F_in
            assert near_out or near_in


def test_cycle_power_is_time_weighted_phase_mean(strong_cycle):
    phases = strong_cycle.phases
    expected = sum(p.mean_power * p.duration for p in phases) / sum(p.duration for p in phases)
    assert strong_cycle.P_m == pytest.approx(expected, rel=1e-9)
    for p in phases:
        assert p.energy == pytest.approx(p.mean_power * p.duration, rel=1e-6)


def test_retraction_monotone_with_gravity(strong_config, moderate_config):
    for cfg in (strong_config, moderate_config):
        ret = simulate_retraction(cfg.environment, cfg.kite, cfg.tether, cfg.operation)
        radii = ret.values[1::10]
        assert all(b <= a + 1e-12 for a, b in zip(radii, radii[1:]))


def test_determinism(strong_config):
    cfg = strong_config
    c1 = simulate_cycle(cfg.environment, cfg.kite, cfg.tether, cfg.operation)
    c2 = simulate_cycle(cfg.environment, cfg.kite, cfg.tether, cfg.operation)
    assert c1.P_m == c2.P_m and c1.zeta_m == c2.zeta_m
    for p1, p2 in zip(c1.phases, c2.phases):
        assert p1.values == p2.values


@pytest.mark.parametrize("gravity", [True, False], ids=["gravity", "massless"])
@pytest.mark.parametrize("preset", ["strong_config", "moderate_config"])
def test_cycle_holds_its_steps_as_ten_doubles_each(request, preset, gravity):
    # One flat array of ten doubles a step (80 B and the array's spare room);
    # a StepRecord of ten float objects held ≈ 350-380 B a step.
    cfg = request.getfixturevalue(preset)
    op = replace(cfg.operation, dT=0.001, gravity=gravity)
    tracemalloc.start()
    try:
        res = simulate_cycle(cfg.environment, cfg.kite, cfg.tether, op)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 120 * res.steps, held / res.steps


def test_series_rows_start_and_end_agree(strong_config, strong_cycle):
    cfg = strong_config
    # A start already at the end gives a one-record phase.
    single = simulate_traction(cfg.environment, cfg.kite, cfg.tether, cfg.operation,
                               r_start=cfg.operation.r_max)
    for phase in (*strong_cycle.phases, single):
        rows = list(phase.rows())
        assert phase.steps + 1 == len(rows) and len(phase.values) == 10 * len(rows)
        assert rows == [tuple(phase.values[10 * i:10 * i + 10]) for i in range(len(rows))]
        assert type(phase.start) is type(phase.end) is cycle.StepRecord
        assert (phase.start, phase.end) == (rows[0], rows[-1])
        assert phase.duration == phase.end.t - phase.start.t
    assert single.steps == 0 and single.start == single.end


@pytest.mark.parametrize("gravity", [True, False], ids=["gravity", "massless"])
@pytest.mark.parametrize("preset", ["strong_config", "moderate_config"])
def test_euler_rule_of_every_phase(request, monkeypatch, preset, gravity):
    cfg = request.getfixturevalue(preset)
    op = replace(cfg.operation, dT=0.01, gravity=gravity)
    lookups, mean_lookups = [], []
    bind_wind, wind_state_at = cycle.bind_wind, cycle.wind_state_at

    def counted_binder(env):
        wind_at = bind_wind(env)

        def counted(z):
            lookups.append(z)
            return wind_at(z)
        return counted

    def counted_mean(z, env):
        mean_lookups.append(z)
        return wind_state_at(z, env)

    monkeypatch.setattr(cycle, "bind_wind", counted_binder)
    monkeypatch.setattr(cycle, "wind_state_at", counted_mean)
    res = simulate_cycle(cfg.environment, cfg.kite, cfg.tether, op)
    # One wind lookup per record, through its phase's bound wind law, and
    # one for the mean traction altitude.
    assert len(lookups) == sum(phase.steps + 1 for phase in res.phases)
    assert mean_lookups == [res.z_mt]
    for phase in res.phases:
        assert phase.steps > 1
        # The phase energy is the trapezoid sum over its steps, taken in
        # step order, bit for bit.
        energy, ts, Ps = 0.0, phase.values[0::10], phase.values[9::10]
        for t0, t1, P0, P1 in zip(ts, ts[1:], Ps, Ps[1:]):
            energy += 0.5 * (P0 + P1) * (t1 - t0)
        assert phase.energy == energy
        # Every step but the last, which is truncated onto the end condition.
        rows = list(phase.rows())
        for (t0, r0, theta0, _, v_t, v_k, *_), (t1, r1, theta1, *_) in zip(rows[:-2], rows[1:-1]):
            dt = t1 - t0
            assert r1 - r0 == pytest.approx(v_t * dt, rel=1e-9)
            if phase is res.traction:
                continue
            v_tau = math.sqrt(v_k**2 - v_t**2)
            assert theta1 - theta0 == pytest.approx(
                v_tau * math.cos(phase.chi) / r0 * dt, rel=1e-9)
    assert all(theta == op.theta_o for theta in res.traction.values[2::10])
    assert res.retraction.end.r == op.r_min
    assert res.transition.end.theta == 0.5 * math.pi - op.beta_o
    assert res.traction.end.r == op.r_max
    # Each phase flies at fixed angles, which its PhaseResult holds once.
    assert (res.retraction.phi, res.retraction.chi) == (0.0, math.pi)
    assert (res.transition.phi, res.transition.chi) == (0.0, 0.0)
    assert (res.traction.phi, res.traction.chi) == (op.phi_o, op.chi_o)


def test_transition_degenerate_start(strong_config):
    cfg = strong_config
    res = simulate_transition(cfg.environment, cfg.kite, cfg.tether, cfg.operation,
                              r_start=cfg.operation.r_min,
                              theta_start=0.5 * math.pi - cfg.operation.beta_o + 0.01)
    assert res.duration == 0.0
    assert res.energy == 0.0
    assert res.mean_power == 0.0


def test_traction_degenerate_start(strong_config):
    cfg = strong_config
    res = simulate_traction(cfg.environment, cfg.kite, cfg.tether, cfg.operation,
                            r_start=cfg.operation.r_max)
    assert res.duration == 0.0


def test_traction_stalls_without_wind(strong_config):
    # In weak wind the high force set-point is only reachable by reeling
    # in, so the tether shortens instead of extending.  With gravity one
    # Euler step takes the tether length below zero (to -28.3 m) before the
    # stall limit is reached.  Massless, the set-point first needs f < -3
    # (at r = 5.6 m), which is unreachable.
    cfg = strong_config
    env = Environment(v_w_ref=2.0, z_ref=6.0, z0=0.07)
    for gravity, error, message in ((True, PhaseError, r"^traction at .*: tether length fell "
                                     r"to zero, from a reeling factor of -1\.44 at the phase"),
                                    (False, SetpointUnreachableError, "is below -3.0")):
        op = replace(cfg.operation, dT=0.5, gravity=gravity)
        with pytest.raises(error, match=message):
            simulate_traction(env, cfg.kite, cfg.tether, op, r_start=cfg.operation.r_min)


# Least and greatest ratio of successive traction errors per halving of dT,
# from 0.02 down to 0.0025: measured 1.975 to 2.044 on both presets in both
# gravity modes, for the duration and the energy alike.
FIRST_ORDER = (1.95, 2.07)


@pytest.mark.parametrize("gravity", [True, False], ids=["gravity", "massless"])
@pytest.mark.parametrize("preset", ["strong_config", "moderate_config"])
def test_traction_converges_at_first_order_to_the_quadrature(request, preset, gravity):
    # Euler's traction duration and energy approach the Gauss-Legendre
    # reference, their errors halving with dT.
    cfg = request.getfixturevalue(preset)
    op = replace(cfg.operation, gravity=gravity)
    ref = traction_reference(cfg.environment, cfg.kite, cfg.tether, op, op.r_min)
    assert ref.stall is None
    errors = []
    for dT in (0.02, 0.01, 0.005, 0.0025):
        res = simulate_traction(cfg.environment, cfg.kite, cfg.tether, replace(op, dT=dT),
                                r_start=op.r_min)
        errors.append((res.duration - ref.duration, res.energy - ref.energy))
    for coarse, fine in zip(errors, errors[1:]):
        for e_coarse, e_fine in zip(coarse, fine):
            assert FIRST_ORDER[0] <= e_coarse / e_fine <= FIRST_ORDER[1], errors


def test_traction_reference_reports_a_stall(strong_config):
    # At a reference wind of 5.6 m/s the strong preset's gravity traction
    # reaches f = 0 before r_max: the reference reports it instead of
    # integrating through it, and Euler stalls short of it.
    cfg = strong_config
    env, op = replace(cfg.environment, v_w_ref=5.6), cfg.operation
    ref = traction_reference(env, cfg.kite, cfg.tether, op, op.r_min)
    assert ref.duration == ref.energy == math.inf and op.r_min < ref.stall < op.r_max
    with pytest.raises(PhaseError, match="tether length failed to increase") as info:
        simulate_traction(env, cfg.kite, cfg.tether, op, r_start=op.r_min)
    assert float(re.search(r"r = (\S+) m", str(info.value))[1]) < ref.stall


def assert_failure_context(info, kind, prefix):
    """The error is raised again as its own class, chained from the
    original, with the phase and state prefixed to the original text."""
    exc = info.value
    assert type(exc) is kind and type(exc.__cause__) is kind
    assert str(exc) == prefix + str(exc.__cause__)


def test_retraction_failure_names_phase_and_state(strong_config):
    cfg = strong_config
    op = replace(cfg.operation, F_in=1.0e8, F_out=2.0e8)
    with pytest.raises(SetpointUnreachableError) as info:
        simulate_retraction(cfg.environment, cfg.kite, cfg.tether, op, t0=3.0)
    assert_failure_context(info, SetpointUnreachableError,
                           "retraction at t = 3 s, r = 720 m, beta = 27 deg: ")


def test_transition_failure_names_phase_and_state(strong_config):
    # A start just above the ground is below the roughness length.
    cfg = strong_config
    with pytest.raises(DomainError) as info:
        simulate_transition(cfg.environment, cfg.kite, cfg.tether, cfg.operation,
                            r_start=390.0, theta_start=0.5 * math.pi - 1e-6, t0=12.5)
    assert_failure_context(info, DomainError,
                           "transition at t = 12.5 s, r = 390 m, beta = 5.72958e-05 deg: ")


def never_reel(bound, theta, C_D, m_t, v_w, rho):
    """A massless force-inversion step whose winch never reels."""
    _, _, angles, C_L, _, S = bound
    return 0.0, massless_state(0.0, theta, angles, C_L, C_D, S, v_w, rho)


def test_traction_failure_names_phase_and_state(strong_config, monkeypatch):
    monkeypatch.setattr(cycle, "massless_setpoint_step", never_reel)
    cfg = strong_config
    op = replace(cfg.operation, dT=1.0, gravity=False)
    with pytest.raises(PhaseError) as info:
        simulate_traction(cfg.environment, cfg.kite, cfg.tether, op, r_start=390.0)
    assert_failure_context(info, PhaseError, "traction at t = 333.333 s, r = 390 m, beta = 27 deg: ")


def test_stalled_phase_raises_phase_error(strong_config, monkeypatch):
    # A winch that never reels leaves the tether length where it is; the
    # phase gives up after ten characteristic times.
    monkeypatch.setattr(cycle, "massless_setpoint_step", never_reel)
    cfg = strong_config
    op = replace(cfg.operation, dT=0.5, gravity=False)
    with pytest.raises(PhaseError, match="tether length failed to increase for 21 "):
        simulate_traction(cfg.environment, cfg.kite, cfg.tether, op,
                          r_start=cfg.operation.r_min)


def test_phase_with_a_non_finite_course_angle_is_rejected(strong_config):
    # The operation's angles get the check a phase makes where their
    # sines are taken, when the operation is built.
    cfg = strong_config
    with pytest.raises(ValidationError, match=r"^course angle chi must be finite, got nan$"):
        replace(cfg.operation, chi_o=math.nan)


def test_validation_error_mid_phase_names_the_phase(strong_config):
    # A step input out of a kernel's domain, on a later step, keeps its
    # class and is prefixed with the phase, t, r and elevation.
    cfg = strong_config
    op = cfg.operation
    engine = cycle._PhaseEngine(cfg.environment, cfg.kite, cfg.tether, op,
                                cfg.kite.aero_retraction, 0.0, math.pi)
    calls = []

    def step(bound, theta, C_D, m_t, v_w, rho):
        calls.append(theta)
        if len(calls) == 3:
            raise ValidationError("outside its domain")
        return engine.kernel(bound, theta, C_D, m_t, v_w, rho)

    with pytest.raises(ValidationError, match=r"^retraction at t = (?!0 s)\S+ s, r = \S+ m, "
                                              r"beta = \S+ deg: outside its domain$"):
        cycle._integrate(engine, "retraction", step, engine.bind(op.F_in), op.r_max, op.theta_o,
                         0.0, end=op.r_min, increasing=False, climb=engine.angles[3])


def test_gravity_step_work_count(strong_config, monkeypatch):
    # A set-point step is closed form: it evaluates the drag-condition kernel
    # at most once.  Only a transition step whose F_out factor is not
    # positive makes the kinematic solve at f = 0, which searches with the
    # kernel.  Measured: 1 solve of 5 evaluations in 23 transition records,
    # where a solve on every record and a probe per set-point step made 464.
    inversions, probes, solves = [], [], []
    invert, kernel, solve = (cycle._solve_reel_factor, steady_state._drag_condition,
                             cycle.solve_kinematic_ratio)

    def counted(calls, function):
        def wrapper(*args):
            before = len(probes)
            try:
                return function(*args)
            finally:
                calls.append(len(probes) - before)
        return wrapper

    def counted_kernel(*args):
        probes.append(1)
        return kernel(*args)

    monkeypatch.setattr(cycle, "_solve_reel_factor", counted(inversions, invert))
    monkeypatch.setattr(steady_state, "_drag_condition", counted_kernel)
    monkeypatch.setattr(cycle, "solve_kinematic_ratio", counted(solves, solve))
    cfg = strong_config
    op = replace(cfg.operation, dT=0.01, gravity=True)
    res = simulate_cycle(cfg.environment, cfg.kite, cfg.tether, op)
    # Every retraction and traction step is a set-point step that reaches
    # the kernel: the count cannot pass by counting nothing.
    assert sum(inversions) >= res.retraction.steps + res.traction.steps
    assert set(inversions) <= {0, 1}
    assert 0 < len(solves) < res.transition.steps + 1
    assert sum(inversions) + sum(solves) == len(probes)
    assert sum(solves) <= 15 * len(solves)


@pytest.mark.parametrize("gravity", [True, False], ids=["gravity", "massless"])
@pytest.mark.parametrize("preset", ["strong_config", "moderate_config"])
def test_transition_step_takes_tether_properties_once(request, monkeypatch, preset, gravity):
    # A step that leaves coasting for a set-point reuses the coasting
    # solve's tether properties.
    cfg = request.getfixturevalue(preset)
    op = replace(cfg.operation, gravity=gravity)
    start = simulate_retraction(cfg.environment, cfg.kite, cfg.tether, op).end
    calls = []
    bind_tether = cycle.bind_tether

    def counted_binder(*args):
        tether_at = bind_tether(*args)

        def counted(r):
            calls.append(r)
            return tether_at(r)
        return counted

    monkeypatch.setattr(cycle, "bind_tether", counted_binder)
    res = simulate_transition(cfg.environment, cfg.kite, cfg.tether, op, start.r, start.theta,
                              start.t)
    assert any(f != 0.0 for f in res.values[3::10])  # some steps reel at a set-point
    assert calls == res.values[1::10].tolist()


class TestConvergenceStudy:
    def test_duplicate_entries_give_identical_rows(self, strong_config):
        cfg = strong_config
        op = replace(cfg.operation, gravity=False)
        rows = convergence_study(cfg.environment, cfg.kite, cfg.tether, op,
                                 [0.1, 0.1, 0.05])
        assert rows[0]["zeta_m"] == rows[1]["zeta_m"]
        assert rows[0]["steps"] == rows[1]["steps"]

    def test_step_halving(self, strong_config):
        cfg = strong_config
        rows = convergence_study(cfg.environment, cfg.kite, cfg.tether, cfg.operation,
                                 [0.01, 0.005])
        assert abs(rows[0]["zeta_m"] / rows[1]["zeta_m"] - 1.0) < 0.01

    def test_holds_one_cycle_at_a_time(self, strong_config):
        # The study keeps each run's zeta_m and steps, not its step series.
        cfg = strong_config
        op = replace(cfg.operation, dT=0.002)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        one = peak(lambda: simulate_cycle(cfg.environment, cfg.kite, cfg.tether, op))
        three = peak(lambda: convergence_study(cfg.environment, cfg.kite, cfg.tether, op,
                                               [0.002, 0.002, 0.002]))
        assert three < 1.5 * one

    def test_rejects_unsorted_list(self, strong_config):
        cfg = strong_config
        with pytest.raises(ValidationError):
            convergence_study(cfg.environment, cfg.kite, cfg.tether, cfg.operation,
                              [0.01, 0.1])
        with pytest.raises(ValidationError):
            convergence_study(cfg.environment, cfg.kite, cfg.tether, cfg.operation, [])


def test_random_configs_complete_or_fail_cleanly(strong_config):
    # Any valid configuration either produces a cycle or signals a
    # documented failure mode; nothing leaks raw arithmetic errors.
    import numpy as np
    from kitecycle.errors import KitecycleError

    rng = np.random.default_rng(99)
    cfg = strong_config
    completed = 0
    for _ in range(12):
        r_min = rng.uniform(150.0, 400.0)
        op = OperationSettings(
            beta_o=math.radians(rng.uniform(15.0, 40.0)),
            phi_o=math.radians(rng.uniform(-15.0, 15.0)),
            chi_o=math.radians(rng.uniform(80.0, 120.0)),
            r_min=r_min,
            r_max=r_min + rng.uniform(100.0, 400.0),
            F_out=rng.uniform(2000.0, 5000.0),
            F_in=rng.uniform(300.0, 1200.0),
            dT=0.02,
            gravity=bool(rng.integers(0, 2)),
            force_at="ground",
        )
        env = Environment(v_w_ref=rng.uniform(5.0, 14.0), z_ref=6.0, z0=0.07)
        try:
            cycle = simulate_cycle(env, cfg.kite, cfg.tether, op)
        except KitecycleError:
            continue
        assert cycle.duration > 0.0
        completed += 1
    assert completed >= 6  # most draws are operable systems


def test_overflown_retraction_completes(moderate_config):
    # The moderate massless retraction overflies the ground station
    # (elevation beyond 90 deg) and must still reach the minimum length.
    cfg = moderate_config
    op = replace(cfg.operation, gravity=False)
    ret = simulate_retraction(cfg.environment, cfg.kite, cfg.tether, op)
    assert ret.end.r == pytest.approx(cfg.operation.r_min, abs=1e-9)
    max_beta = max(0.5 * math.pi - theta for theta in ret.values[2::10])
    assert max_beta > 0.5 * math.pi
    cycle = simulate_cycle(cfg.environment, cfg.kite, cfg.tether, op)
    assert cycle.duration > 0
