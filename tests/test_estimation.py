import math
from dataclasses import replace

import numpy as np
import pytest

from kitecycle import (
    AeroSet,
    EffectiveAero,
    Environment,
    KiteParams,
    KiteState,
    LogRecord,
    TetherParams,
    WindState,
    derive_kinematics,
    estimate_CR,
    estimate_LD,
    estimate_record,
    massless_state,
    segment_and_average,
    segment_phases,
    solve_kinematic_ratio,
)
from kitecycle.errors import EmptyPhaseError, ValidationError
from kitecycle.estimation import _spherical_velocity_to_cartesian

ENV = Environment(v_w_ref=9.9, z_ref=6.0, z0=0.07)
TETHER = TetherParams(d_t=0.004, rho_t=724.0)
KITE = KiteParams(S=10.2, m=15.0,
                  aero_traction=AeroSet(C_L=0.69, LD_k=4.0),
                  aero_retraction=AeroSet(C_L=0.17, LD_k=3.1))


def synthetic_record(st: KiteState, kite: KiteParams, tether: TetherParams,
                     env: Environment, gravity: bool, phase=None, t=0.0,
                     aero_set=None) -> LogRecord:
    """Build a telemetry record from a solved equilibrium, the same way the
    simulator exports one."""
    aero_set = aero_set or kite.aero_traction
    z = st.r * math.cos(st.theta)
    wind = WindState(v_w=env.wind_speed(z), rho=env.density(z))
    m_t = tether.rho_t * 0.25 * math.pi * tether.d_t**2 * st.r
    C_D = aero_set.C_D_k + 0.25 * tether.d_t * st.r / kite.S * tether.C_D_c
    aero = EffectiveAero(C_L=aero_set.C_L, C_D=C_D)
    if gravity:
        eq = solve_kinematic_ratio(st, kite, m_t, aero, wind)
    else:
        eq = massless_state(st, aero, wind, kite.S)
    v_t = st.f * wind.v_w
    vk = _spherical_velocity_to_cartesian(st.theta, st.phi, st.chi, v_t, eq.lam * wind.v_w)
    return LogRecord(t=t, F_tg=eq.F_tg, r=st.r, theta=st.theta, phi=st.phi, chi=st.chi,
                     vk=vk, v_t=v_t, v_w_ref=env.v_w_ref, phase=phase)


def system_C_R(r, aero_set, kite=KITE, tether=TETHER):
    C_D = aero_set.C_D_k + 0.25 * tether.d_t * r / kite.S * tether.C_D_c
    return math.hypot(C_D, aero_set.C_L)


class TestDeriveKinematics:
    def test_static_kite_near_horizon(self):
        # Hovering kite: apparent wind equals the wind at its altitude and
        # the kinematic ratio collapses to zero.  (Exactly at the horizon
        # the kite altitude drops below the roughness length, so probe
        # just above it at long tether length.)
        rec = LogRecord(t=0.0, F_tg=100.0, r=10000.0, theta=math.radians(89.99),
                        phi=0.0, chi=0.0, vk=(0.0, 0.0, 0.0), v_t=0.0, v_w_ref=9.9)
        kin = derive_kinematics(rec, ENV)
        v_w = ENV.wind_speed(10000.0 * math.cos(math.radians(89.99)))
        assert kin.valid
        assert kin.f == 0.0
        assert kin.v_a == pytest.approx(v_w, rel=1e-12)
        assert kin.kappa == pytest.approx(0.0, abs=1e-3)

    def test_below_roughness_length_is_flagged_not_raised(self):
        rec = LogRecord(t=0.0, F_tg=100.0, r=300.0, theta=math.pi / 2, phi=0.0,
                        chi=0.0, vk=(0.0, 0.0, 0.0), v_t=0.0, v_w_ref=9.9)
        assert not derive_kinematics(rec, ENV).valid

    def test_massless_round_trip(self):
        st = KiteState(r=450.0, theta=math.radians(63), phi=math.radians(10),
                       chi=math.radians(100), f=0.3)
        rec = synthetic_record(st, replace(KITE, m=0.0), TETHER, ENV, gravity=False)
        kin = derive_kinematics(rec, ENV)
        C_D = KITE.aero_traction.C_D_k + 0.25 * TETHER.d_t * st.r / KITE.S * 1.1
        assert kin.kappa == pytest.approx(0.69 / C_D, rel=1e-6)
        assert kin.f == pytest.approx(0.3, rel=1e-9)

    def test_reeling_at_wind_speed_is_invalid(self):
        theta = math.radians(63)
        z = 300.0 * math.cos(theta)
        v_w = ENV.wind_speed(z)
        rec = LogRecord(t=0.0, F_tg=100.0, r=300.0, theta=theta, phi=0.0, chi=0.0,
                        vk=(0.0, 0.0, 0.0), v_t=v_w * math.sin(theta), v_w_ref=9.9)
        assert not derive_kinematics(rec, ENV).valid


class TestEstimateCR:
    def test_massless_exact_recovery(self):
        st = KiteState(r=390.0, theta=math.radians(63), phi=0.0, chi=math.radians(100), f=0.3)
        rec = synthetic_record(st, replace(KITE, m=0.0), TETHER,
                               ENV, gravity=False)
        C_R = estimate_CR(rec, replace(KITE, m=0.0), replace(TETHER, rho_t=1e-12), ENV)
        assert C_R == pytest.approx(system_C_R(390.0, KITE.aero_traction), rel=1e-6)

    def test_gravity_recovery_within_two_percent(self):
        st = KiteState(r=500.0, theta=math.radians(63), phi=math.radians(10.5),
                       chi=math.radians(100.9), f=0.35)
        rec = synthetic_record(st, KITE, TETHER, ENV, gravity=True)
        C_R = estimate_CR(rec, KITE, TETHER, ENV)
        assert C_R == pytest.approx(system_C_R(500.0, KITE.aero_traction), rel=0.02)

    def test_phase_average_ratio_band(self, strong_config, strong_telemetry):
        # Raw (tether drag included) traction/retraction means sit three to
        # four times apart.
        cfg = strong_config
        sums = {"retraction": [], "traction": []}
        for rec in strong_telemetry:
            if rec.phase in sums:
                val = estimate_CR(rec, cfg.kite, cfg.tether, cfg.environment)
                if val is not None:
                    sums[rec.phase].append(val)
        mean_o = sum(sums["traction"]) / len(sums["traction"])
        mean_i = sum(sums["retraction"]) / len(sums["retraction"])
        assert 3.0 <= mean_o / mean_i <= 4.0
        assert mean_o == pytest.approx(0.71, rel=0.05)
        assert mean_i == pytest.approx(0.18, rel=0.2)


class TestEstimateLD:
    def test_massless_equals_kinematic_ratio(self):
        st = KiteState(r=390.0, theta=math.radians(63), phi=0.0,
                       chi=math.radians(100), f=0.3)
        kite0 = replace(KITE, m=0.0)
        rec = synthetic_record(st, kite0, TETHER, ENV, gravity=False)
        kin = derive_kinematics(rec, ENV)
        ld = estimate_LD(rec, kite0, replace(TETHER, rho_t=1e-12), ENV, phase="traction")
        assert ld.LD_sys == pytest.approx(kin.kappa, rel=1e-9)

    def test_zero_diameter_tether_skips_drag_correction(self):
        st = KiteState(r=390.0, theta=math.radians(63), phi=0.0,
                       chi=math.radians(100), f=0.3)
        kite0 = replace(KITE, m=0.0)
        thin = TetherParams(d_t=1e-9, rho_t=724.0)
        rec = synthetic_record(st, kite0, thin, ENV, gravity=False)
        ld = estimate_LD(rec, kite0, thin, ENV, phase="traction")
        assert ld.LD_k == pytest.approx(ld.LD_sys, rel=1e-6)

    def test_gravity_traction_recovery(self):
        st = KiteState(r=550.0, theta=math.radians(63), phi=math.radians(10.5),
                       chi=math.radians(100.9), f=0.4)
        rec = synthetic_record(st, KITE, TETHER, ENV, gravity=True)
        ld = estimate_LD(rec, KITE, TETHER, ENV, phase="traction")
        assert ld.LD_k == pytest.approx(4.0, rel=0.02)

    def test_gravity_retraction_recovery(self):
        st = KiteState(r=550.0, theta=math.radians(40), phi=0.0, chi=math.pi, f=-0.3)
        rec = synthetic_record(st, KITE, TETHER, ENV, gravity=True,
                               aero_set=KITE.aero_retraction)
        ld = estimate_LD(rec, KITE, TETHER, ENV, phase="retraction")
        assert ld.LD_k == pytest.approx(3.1, rel=0.02)

    def test_slow_traction_sample_flagged(self):
        st = KiteState(r=550.0, theta=math.radians(63), phi=math.radians(10.5),
                       chi=math.radians(100.9), f=0.4)
        rec = synthetic_record(st, KITE, TETHER, ENV, gravity=True)
        assert estimate_LD(rec, KITE, TETHER, ENV, phase="traction",
                           crosswind_ratio=1e3) is None

    def test_misaligned_retraction_sample_flagged(self):
        st = KiteState(r=550.0, theta=math.radians(40), phi=0.0,
                       chi=math.radians(100), f=-0.3)
        rec = synthetic_record(st, KITE, TETHER, ENV, gravity=True,
                               aero_set=KITE.aero_retraction)
        assert estimate_LD(rec, KITE, TETHER, ENV, phase="retraction") is None

    def test_consistency_triangle(self, strong_config, strong_telemetry):
        cfg = strong_config
        for rec in strong_telemetry[:: max(1, len(strong_telemetry) // 40)]:
            est = estimate_record(rec, cfg.kite, cfg.tether, cfg.environment)
            if not est.valid:
                continue
            norm = math.sqrt(1.0 + est.LD_sys**2)
            C_L = est.C_R * est.LD_sys / norm
            C_D = est.C_R / norm
            assert C_L**2 + C_D**2 == pytest.approx(est.C_R**2, rel=1e-9)


class TestSegmentation:
    @staticmethod
    def series_with_speeds(v_ts, dt=1.0, phase=None):
        recs = []
        for i, v_t in enumerate(v_ts):
            recs.append(LogRecord(t=i * dt, F_tg=500.0, r=400.0,
                                  theta=math.radians(63), phi=0.0, chi=0.0,
                                  vk=(1.0, 0.0, 0.0), v_t=v_t, v_w_ref=9.9,
                                  phase=phase))
        return recs

    def test_labels_override_heuristic(self, strong_telemetry):
        labels = segment_phases(strong_telemetry)
        assert labels == [rec.phase for rec in strong_telemetry]

    def test_reeling_speed_heuristic(self):
        series = self.series_with_speeds([-2.0] * 5 + [0.0] * 3 + [3.0] * 5)
        labels = segment_phases(series)
        assert labels == ["retraction"] * 5 + ["transition"] * 3 + ["traction"] * 5

    def test_short_bursts_become_transition(self):
        series = self.series_with_speeds([-2.0] * 5 + [3.0, -1.0] + [3.0] * 5)
        labels = segment_phases(series)
        assert labels[5] == "transition"
        assert labels[6] == "transition"

    def test_unknown_label_rejected(self):
        series = self.series_with_speeds([1.0, 2.0], phase="cruise")
        with pytest.raises(ValidationError):
            segment_phases(series)

    def test_single_idle_sample_has_empty_phases(self):
        series = self.series_with_speeds([0.0])
        with pytest.raises(EmptyPhaseError):
            segment_and_average(series, KITE, TETHER, ENV)

    def test_non_monotonic_time_rejected(self):
        series = self.series_with_speeds([-2.0, -2.0])
        series = [series[1], series[0]]
        with pytest.raises(ValidationError):
            segment_and_average(series, KITE, TETHER, ENV)


def test_round_trip_phase_averages(strong_config, strong_telemetry):
    cfg = strong_config
    avg = segment_and_average(strong_telemetry, cfg.kite, cfg.tether, cfg.environment)
    assert avg.C_R_o == pytest.approx(0.71, rel=0.02)
    assert avg.C_R_i == pytest.approx(0.18, rel=0.02)
    assert avg.LD_k_o == pytest.approx(4.0, rel=0.02)
    assert avg.LD_k_i == pytest.approx(3.1, rel=0.02)
    assert set(avg.counts) == {"retraction", "transition", "traction"}


def test_round_trip_without_labels(strong_config, strong_telemetry):
    cfg = strong_config
    stripped = [replace(rec, phase=None) for rec in strong_telemetry]
    avg = segment_and_average(stripped, cfg.kite, cfg.tether, cfg.environment)
    assert avg.C_R_o == pytest.approx(0.71, rel=0.03)
    assert avg.LD_k_o == pytest.approx(4.0, rel=0.03)


def test_noise_degrades_spread_not_mean(strong_config, strong_telemetry):
    cfg = strong_config
    rng = np.random.default_rng(5)
    clean, noisy = [], []
    sigma = 30.0  # N
    for rec in strong_telemetry:
        if rec.phase != "traction":
            continue
        val = estimate_CR(rec, cfg.kite, cfg.tether, cfg.environment)
        clean.append(val)
        bumped = replace(rec, F_tg=max(rec.F_tg + rng.normal(0.0, sigma), 0.0))
        noisy.append(estimate_CR(bumped, cfg.kite, cfg.tether, cfg.environment))
    clean, noisy = np.array(clean), np.array(noisy)
    assert np.std(noisy) > np.std(clean)
    # The mean moves by at most a few noise-scaled standard errors.
    tolerance = 5.0 * sigma / 3008.0 * np.mean(clean) / math.sqrt(len(noisy))
    assert abs(np.mean(noisy) - np.mean(clean)) < tolerance


def test_record_from_speed_matches_vector_form():
    st = KiteState(r=450.0, theta=math.radians(63), phi=math.radians(10),
                   chi=math.radians(100), f=0.3)
    rec = synthetic_record(st, replace(KITE, m=0.0), TETHER, ENV, gravity=False)
    v_k = math.sqrt(sum(c * c for c in rec.vk))
    rebuilt = LogRecord.from_speed(t=rec.t, F_tg=rec.F_tg, r=rec.r, theta=rec.theta,
                                   phi=rec.phi, chi=rec.chi, v_k=v_k, v_t=rec.v_t,
                                   v_w_ref=rec.v_w_ref)
    for a, b in zip(rebuilt.vk, rec.vk):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_log_record_invariants():
    with pytest.raises(ValidationError):
        LogRecord(t=0.0, F_tg=-1.0, r=400.0, theta=1.0, phi=0.0, chi=0.0,
                  vk=(0.0, 0.0, 0.0), v_t=0.0, v_w_ref=9.9)
    with pytest.raises(ValidationError):
        LogRecord(t=0.0, F_tg=1.0, r=0.0, theta=1.0, phi=0.0, chi=0.0,
                  vk=(0.0, 0.0, 0.0), v_t=0.0, v_w_ref=9.9)


def test_estimate_record_derives_kinematics_once(monkeypatch, strong_config, strong_telemetry):
    cfg = strong_config
    calls = []

    def counting(rec, env):
        calls.append(rec)
        return derive_kinematics(rec, env)

    monkeypatch.setattr("kitecycle.estimation.derive_kinematics", counting)
    for rec in strong_telemetry:
        estimate_record(rec, cfg.kite, cfg.tether, cfg.environment)
    assert len(calls) == len(strong_telemetry)


def test_public_estimators_match_estimate_record(strong_config, strong_telemetry):
    # Every sample under every phase label, plus samples that fail the sag
    # radicand (no ground force) or the kinematics (weak reference wind).
    cfg = strong_config
    args = (cfg.kite, cfg.tether, cfg.environment)
    records = list(strong_telemetry)
    records += [replace(rec, F_tg=0.0) for rec in strong_telemetry[::10]]
    records += [replace(rec, v_w_ref=0.5) for rec in strong_telemetry[::10]]
    outcomes = set()
    for rec in records:
        for label in ("retraction", "transition", "traction"):
            est = estimate_record(rec, *args, phase=label)
            C_R = estimate_CR(rec, *args)
            ld = estimate_LD(rec, *args, phase=label)
            assert (C_R is None) == math.isnan(est.C_R)
            assert C_R is None or C_R == est.C_R
            assert (ld is None) == math.isnan(est.LD_sys) == math.isnan(est.LD_k)
            assert ld is None or ld == (est.LD_sys, est.LD_k)
            assert est.valid == (ld is not None)
            outcomes.add((C_R is None, ld is None))
    assert outcomes == {(False, False), (False, True), (True, True)}
