import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from kitecycle import (
    AeroSet,
    Environment,
    KiteParams,
    LogRecord,
    TetherParams,
    angle_trig,
    estimate_record,
    load_config,
    massless_state,
    preset_path,
    replace,
    segment_and_average,
    segment_phases,
    simulate_cycle,
    solve_kinematic_ratio,
    wind_state_at,
)
from kitecycle import estimation
from kitecycle.atmosphere import bind_wind
from kitecycle.dataio import read_telemetry_csv
from kitecycle.errors import EmptyPhaseError, ValidationError
from kitecycle.estimation import (
    _spherical_velocity_to_cartesian,
    cycle_to_log_records,
    write_telemetry_csv,
)

ENV = Environment(v_w_ref=9.9, z_ref=6.0, z0=0.07)
TETHER = TetherParams(d_t=0.004, rho_t=724.0)
KITE = KiteParams(S=10.2, m=15.0,
                  aero_traction=AeroSet(C_L=0.69, LD_k=4.0),
                  aero_retraction=AeroSet(C_L=0.17, LD_k=3.1))


class Flight(NamedTuple):
    """Tether length, angles and reeling factor of one synthetic sample."""

    r: float
    theta: float
    phi: float
    chi: float
    f: float


def synthetic_record(st: Flight, kite: KiteParams, tether: TetherParams,
                     env: Environment, gravity: bool, phase=None, t=0.0,
                     aero_set=None) -> LogRecord:
    """Build a telemetry record from a solved equilibrium, the same way the
    simulator exports one."""
    aero_set = aero_set or kite.aero_traction
    z = st.r * math.cos(st.theta)
    v_w, rho = wind_state_at(z, env)
    m_t = tether.rho_t * 0.25 * math.pi * tether.d_t**2 * st.r
    C_D = aero_set.C_D_k + 0.25 * tether.d_t * st.r / kite.S * tether.C_D_c
    head = (st.f, st.theta, angle_trig(st.phi, st.chi), aero_set.C_L, C_D)
    if gravity:
        eq = solve_kinematic_ratio(*head, m_t, kite.m, kite.S, v_w, rho)
    else:
        eq = massless_state(*head, kite.S, v_w, rho)
    v_t = st.f * v_w
    vk_x, vk_y, vk_z = _spherical_velocity_to_cartesian(st.theta, st.phi, st.chi, v_t,
                                                        eq.lam * v_w)
    return LogRecord(t=t, F_tg=eq.F_tg, r=st.r, theta=st.theta, phi=st.phi, chi=st.chi,
                     vk_x=vk_x, vk_y=vk_y, vk_z=vk_z, v_t=v_t, v_w_ref=env.v_w_ref, phase=phase)


def system_C_R(r, aero_set, kite=KITE, tether=TETHER):
    C_D = aero_set.C_D_k + 0.25 * tether.d_t * r / kite.S * tether.C_D_c
    return math.hypot(C_D, aero_set.C_L)


class TestDeriveKinematics:
    # The kinematics estimate_record derives: kappa and v_a are carried
    # even where the rest of the estimate is rejected, NaN where they
    # cannot be derived.
    def test_static_kite_near_horizon(self):
        # Hovering kite: apparent wind equals the wind at its altitude and
        # the kinematic ratio collapses to zero.  (Exactly at the horizon
        # the kite altitude drops below the roughness length, so probe
        # just above it at long tether length.)
        rec = LogRecord(t=0.0, F_tg=100.0, r=10000.0, theta=math.radians(89.99),
                        phi=0.0, chi=0.0, vk_x=0.0, vk_y=0.0, vk_z=0.0, v_t=0.0, v_w_ref=9.9)
        est = estimate_record(rec, KITE, TETHER, ENV)
        v_w = wind_state_at(10000.0 * math.cos(math.radians(89.99)), ENV).v_w
        assert est.v_a == pytest.approx(v_w, rel=1e-12)
        assert est.kappa == pytest.approx(0.0, abs=1e-3)

    def test_below_roughness_length_is_flagged_not_raised(self):
        rec = LogRecord(t=0.0, F_tg=100.0, r=300.0, theta=math.pi / 2, phi=0.0,
                        chi=0.0, vk_x=0.0, vk_y=0.0, vk_z=0.0, v_t=0.0, v_w_ref=9.9)
        est = estimate_record(rec, KITE, TETHER, ENV)
        assert not est.valid
        assert math.isnan(est.v_a) and math.isnan(est.kappa)

    def test_massless_round_trip(self):
        st = Flight(r=450.0, theta=math.radians(63), phi=math.radians(10),
                       chi=math.radians(100), f=0.3)
        kite0 = replace(KITE, m=0.0)
        rec = synthetic_record(st, kite0, TETHER, ENV, gravity=False)
        est = estimate_record(rec, kite0, TETHER, ENV)
        C_D = KITE.aero_traction.C_D_k + 0.25 * TETHER.d_t * st.r / KITE.S * 1.1
        assert est.kappa == pytest.approx(0.69 / C_D, rel=1e-6)

    def test_reeling_at_wind_speed_is_invalid(self):
        theta = math.radians(63)
        z = 300.0 * math.cos(theta)
        v_w = wind_state_at(z, ENV).v_w
        rec = LogRecord(t=0.0, F_tg=100.0, r=300.0, theta=theta, phi=0.0, chi=0.0,
                        vk_x=0.0, vk_y=0.0, vk_z=0.0, v_t=v_w * math.sin(theta), v_w_ref=9.9)
        est = estimate_record(rec, KITE, TETHER, ENV)
        assert not est.valid
        assert est.v_a == pytest.approx(v_w, rel=1e-12)
        assert math.isnan(est.kappa)

    def test_infinite_wind_at_the_kite_is_invalid(self):
        # z/z0 overflows, so the log wind law gives an infinite wind and
        # the kinematic ratio's radicand is NaN.
        rec = LogRecord(t=0.0, F_tg=100.0, r=1e308, theta=0.5, phi=0.0, chi=0.0,
                        vk_x=0.0, vk_y=0.0, vk_z=0.0, v_t=0.0, v_w_ref=9.9)
        est = estimate_record(rec, KITE, TETHER, ENV)
        assert not est.valid
        assert math.isnan(est.kappa)


def overflowing_ratio(vk_x=1e150, b_f=1e-13, theta=1.0, phi=0.1, r=300.0, v_w_ref=10.0,
                      phase="traction"):
    """A sample whose kite velocity makes the apparent wind over its radial
    share, b_f times the wind at the kite, too large to square."""
    v_w = bind_wind(ENV)(r * math.cos(theta), v_w_ref)[0]
    v_t = v_w * (math.sin(theta) * math.cos(phi) - b_f)
    return LogRecord(1.0, 3000.0, r, theta, phi, 1.0, vk_x, 0.0, 0.0, v_t, v_w_ref, phase)


class TestKiteVelocityTooLargeToSquare:
    # A finite kite velocity whose apparent wind, or whose ratio to the
    # wind's radial share, cannot be squared rejects its sample at the
    # kinematics, whatever its phase.
    @pytest.mark.parametrize("phase", ["retraction", "transition", "traction"])
    def test_infinite_apparent_wind_is_invalid(self, phase):
        rec = LogRecord(1.0, 3000.0, 300.0, 1.0, 0.1, 1.0, 1e160, 0.0, 0.0, 1.0, 10.0, phase)
        est = estimate_record(rec, KITE, TETHER, ENV)
        assert not est.valid
        assert math.isinf(est.v_a)
        assert all(map(math.isnan, (est.C_R, est.LD_sys, est.LD_k, est.kappa)))

    @pytest.mark.parametrize("phase", ["retraction", "transition", "traction"])
    def test_ratio_too_large_to_square_is_invalid(self, phase):
        est = estimate_record(overflowing_ratio(phase=phase), KITE, TETHER, ENV)
        assert not est.valid
        assert 1e150 <= est.v_a < math.inf
        assert all(map(math.isnan, (est.C_R, est.LD_sys, est.LD_k, est.kappa)))

    def test_counted_invalid_among_valid_samples(self, strong_config, strong_telemetry):
        cfg = strong_config
        args = (cfg.kite, cfg.tether, cfg.environment)
        series = list(strong_telemetry)
        before = segment_and_average(series, *args).counts
        retraction = [i for i, rec in enumerate(series) if rec.phase == "retraction"][10:20]
        for i in retraction:
            series[i] = series[i]._replace(vk_x=1e200)
        i = next(i for i, rec in enumerate(series) if rec.phase == "traction")
        rec = series[i]
        series[i] = overflowing_ratio(theta=rec.theta, phi=rec.phi, r=rec.r,
                                      v_w_ref=rec.v_w_ref)._replace(t=rec.t)
        avg = segment_and_average(series, *args)
        assert avg.counts["retraction"] == {"valid": before["retraction"]["valid"] - 10,
                                            "invalid": before["retraction"]["invalid"] + 10}
        assert avg.counts["traction"]["invalid"] == before["traction"]["invalid"] + 1
        assert all(map(math.isfinite, (avg.C_R_i, avg.C_R_o, avg.LD_k_i, avg.LD_k_o)))


def test_finite_numbers_whose_sum_overflows_are_checked_one_by_one(strong_config,
                                                                   strong_telemetry):
    # Every number of the sample is finite, but their sum is not, so the
    # series check looks at each number and finds none to reject.  The
    # wind at 1e308 m of tether is infinite: the sample is invalid.
    args = (strong_config.kite, strong_config.tether, strong_config.environment)
    series = list(strong_telemetry)
    before = segment_and_average(series, *args).counts
    i = [i for i, rec in enumerate(series) if rec.phase == "retraction"][20]
    series[i] = series[i]._replace(F_tg=1e308, r=1e308)
    assert not math.isfinite(sum(series[i][:5]))
    avg = segment_and_average(series, *args)
    assert avg.counts == {**before, "retraction": {
        "valid": before["retraction"]["valid"] - 1,
        "invalid": before["retraction"]["invalid"] + 1}}
    assert not avg.estimates[i].valid


# Finite samples where a divisor underflows to 0: the air density 10^4 km
# up, and the wind's radial share b_f*v_w of a 1e-20 m/s wind just above
# the roughness length at theta = 1e-300.
UNDERFLOWING = {
    "density": LogRecord(1.0, 3000.0, 1e7, 0.0, 0.0, 1.0, -20.0, 0.0, 0.0, -5.0, 10.0),
    "ratio": LogRecord(1.0, 3000.0, 0.0700000001, 1e-300, 0.0, 1.0, -20.0, 0.0, 0.0, 0.0, 1e-20),
}


@pytest.mark.parametrize("phase", ["retraction", "transition", "traction"])
def test_underflowing_divisor_is_invalid(strong_config, phase):
    # Both used to raise ZeroDivisionError.  An underflowing density
    # leaves C_R undefined; an underflowing radial share is a ratio too
    # large to square, so the kinematic ratio is undefined too.
    args = (strong_config.kite, strong_config.tether, strong_config.environment)
    density = estimate_record(UNDERFLOWING["density"]._replace(phase=phase), *args)
    assert not density.valid
    assert math.isnan(density.C_R) and math.isfinite(density.kappa)
    ratio = estimate_record(UNDERFLOWING["ratio"]._replace(phase=phase), *args)
    assert not ratio.valid
    assert all(map(math.isnan, (ratio.C_R, ratio.LD_sys, ratio.LD_k, ratio.kappa)))


class TestEstimateCR:
    def test_massless_exact_recovery(self):
        st = Flight(r=390.0, theta=math.radians(63), phi=0.0, chi=math.radians(100), f=0.3)
        rec = synthetic_record(st, replace(KITE, m=0.0), TETHER,
                               ENV, gravity=False)
        C_R = estimate_record(rec, replace(KITE, m=0.0), replace(TETHER, rho_t=1e-12), ENV).C_R
        assert C_R == pytest.approx(system_C_R(390.0, KITE.aero_traction), rel=1e-6)

    def test_gravity_recovery_within_two_percent(self):
        st = Flight(r=500.0, theta=math.radians(63), phi=math.radians(10.5),
                       chi=math.radians(100.9), f=0.35)
        rec = synthetic_record(st, KITE, TETHER, ENV, gravity=True)
        C_R = estimate_record(rec, KITE, TETHER, ENV).C_R
        assert C_R == pytest.approx(system_C_R(500.0, KITE.aero_traction), rel=0.02)

    def test_invalid_samples_carry_nan(self, strong_config, strong_telemetry):
        # No ground force fails the sag radicand, a weak reference wind the
        # kinematics: neither yields C_R, whatever the phase.
        cfg = strong_config
        bad = [rec._replace(F_tg=0.0) for rec in strong_telemetry[::10]]
        weak = [rec._replace(v_w_ref=0.5) for rec in strong_telemetry[::10]]
        weak = [rec for rec in weak if math.isnan(
            estimate_record(rec, cfg.kite, cfg.tether, cfg.environment).kappa)]
        assert weak
        for rec in bad + weak:
            for label in ("retraction", "transition", "traction"):
                est = estimate_record(rec._replace(phase=label), cfg.kite, cfg.tether,
                                      cfg.environment)
                assert not est.valid
                assert all(math.isnan(v) for v in (est.C_R, est.LD_sys, est.LD_k))

    def test_phase_average_ratio_band(self, strong_config, strong_telemetry):
        # Raw (tether drag included) traction/retraction means sit three to
        # four times apart.
        cfg = strong_config
        sums = {"retraction": [], "traction": []}
        for rec in strong_telemetry:
            if rec.phase in sums:
                val = estimate_record(rec, cfg.kite, cfg.tether, cfg.environment).C_R
                if not math.isnan(val):
                    sums[rec.phase].append(val)
        mean_o = sum(sums["traction"]) / len(sums["traction"])
        mean_i = sum(sums["retraction"]) / len(sums["retraction"])
        assert 3.0 <= mean_o / mean_i <= 4.0
        assert mean_o == pytest.approx(0.71, rel=0.05)
        assert mean_i == pytest.approx(0.18, rel=0.2)


class TestEstimateLD:
    def test_massless_equals_kinematic_ratio(self):
        st = Flight(r=390.0, theta=math.radians(63), phi=0.0,
                       chi=math.radians(100), f=0.3)
        kite0 = replace(KITE, m=0.0)
        rec = synthetic_record(st, kite0, TETHER, ENV, gravity=False)
        est = estimate_record(rec._replace(phase="traction"), kite0,
                              replace(TETHER, rho_t=1e-12), ENV)
        assert est.LD_sys == pytest.approx(est.kappa, rel=1e-9)

    def test_zero_diameter_tether_skips_drag_correction(self):
        st = Flight(r=390.0, theta=math.radians(63), phi=0.0,
                       chi=math.radians(100), f=0.3)
        kite0 = replace(KITE, m=0.0)
        thin = TetherParams(d_t=1e-9, rho_t=724.0)
        rec = synthetic_record(st, kite0, thin, ENV, gravity=False)
        est = estimate_record(rec._replace(phase="traction"), kite0, thin, ENV)
        assert est.LD_k == pytest.approx(est.LD_sys, rel=1e-6)

    def test_gravity_traction_recovery(self):
        st = Flight(r=550.0, theta=math.radians(63), phi=math.radians(10.5),
                       chi=math.radians(100.9), f=0.4)
        rec = synthetic_record(st, KITE, TETHER, ENV, gravity=True)
        est = estimate_record(rec._replace(phase="traction"), KITE, TETHER, ENV)
        assert est.LD_k == pytest.approx(4.0, rel=0.02)

    def test_gravity_retraction_recovery(self):
        st = Flight(r=550.0, theta=math.radians(40), phi=0.0, chi=math.pi, f=-0.3)
        rec = synthetic_record(st, KITE, TETHER, ENV, gravity=True,
                               aero_set=KITE.aero_retraction)
        est = estimate_record(rec._replace(phase="retraction"), KITE, TETHER, ENV)
        assert est.LD_k == pytest.approx(3.1, rel=0.02)

    def test_slow_traction_sample_flagged(self):
        # A low lift-to-drag kite flies slower than 1.5 times the reference
        # wind; only the traction gate rejects it.
        st = Flight(r=550.0, theta=math.radians(63), phi=math.radians(10.5),
                       chi=math.radians(100.9), f=0.4)
        rec = synthetic_record(st, KITE, TETHER, ENV, gravity=True,
                               aero_set=AeroSet(C_L=0.69, LD_k=2.5))
        assert math.hypot(rec.vk_x, rec.vk_y, rec.vk_z) < 1.5 * rec.v_w_ref
        est = estimate_record(rec._replace(phase="traction"), KITE, TETHER, ENV)
        assert not est.valid
        assert math.isnan(est.LD_sys) and math.isnan(est.LD_k)
        assert not math.isnan(est.C_R)
        assert estimate_record(rec._replace(phase="transition"), KITE, TETHER, ENV).valid

    def test_misaligned_retraction_sample_flagged(self):
        st = Flight(r=550.0, theta=math.radians(40), phi=0.0,
                       chi=math.radians(100), f=-0.3)
        rec = synthetic_record(st, KITE, TETHER, ENV, gravity=True,
                               aero_set=KITE.aero_retraction)
        est = estimate_record(rec._replace(phase="retraction"), KITE, TETHER, ENV)
        assert not est.valid
        assert math.isnan(est.LD_sys) and math.isnan(est.LD_k)

    @staticmethod
    def unprojected(rec):
        """``rec`` with no course angle and a purely radial apparent wind:
        the kinematics hold, but gravity has no tangential direction."""
        v_w = bind_wind(ENV)(rec.r * math.cos(rec.theta), rec.v_w_ref)[0]
        e_r = (math.sin(rec.theta) * math.cos(rec.phi), math.sin(rec.theta) * math.sin(rec.phi),
               math.cos(rec.theta))
        v_a = 20.0
        return rec._replace(chi=None, vk_x=v_w - v_a * e_r[0], vk_y=-v_a * e_r[1],
                            vk_z=-v_a * e_r[2], v_t=v_w * e_r[0] - 0.5 * v_a)

    @pytest.mark.parametrize("gate", [
        "wind at the kite", "kinematic radicand", "misaligned retraction",
        "retraction without course angle", "no gravity projection", "G <= 0", "tether drag",
    ])
    def test_each_gate_rejects_its_sample(self, gate):
        # Gates before C_R (the kinematics) leave it NaN; the later ones keep it.
        traction = synthetic_record(
            Flight(r=550.0, theta=math.radians(63), phi=math.radians(10.5),
                      chi=math.radians(100.9), f=0.4), KITE, TETHER, ENV, gravity=True)
        retraction = synthetic_record(
            Flight(r=550.0, theta=math.radians(40), phi=0.0, chi=math.pi, f=-0.3),
            KITE, TETHER, ENV, gravity=True, aero_set=KITE.aero_retraction)
        downward = synthetic_record(
            Flight(r=550.0, theta=math.radians(50), phi=0.0, chi=0.0, f=0.2),
            KITE, TETHER, ENV, gravity=True)
        for base, label in ((traction, "traction"), (retraction, "retraction"),
                            (downward, "transition")):
            assert estimate_record(base._replace(phase=label), KITE, TETHER, ENV).valid
        v_w = bind_wind(ENV)(traction.r * math.cos(traction.theta), traction.v_w_ref)[0]
        rec, kite, tether, phase, has_C_R = {
            "wind at the kite": (traction._replace(v_w_ref=0.0), KITE, TETHER, "traction", False),
            # Flying downwind at 0.9 v_w leaves too little apparent wind.
            "kinematic radicand": (traction._replace(vk_x=0.9 * v_w, vk_y=0.0, vk_z=0.0, v_t=0.0),
                                   KITE, TETHER, "traction", False),
            "misaligned retraction": (retraction._replace(phi=0.5), KITE, TETHER, "retraction",
                                      True),
            "retraction without course angle": (retraction._replace(chi=None), KITE, TETHER,
                                                "retraction", True),
            "no gravity projection": (self.unprojected(traction), KITE, TETHER, "transition",
                                      True),
            # A 10 t kite flying down: gravity outweighs the kinematic ratio.
            "G <= 0": (downward, replace(KITE, m=1e4), TETHER, "transition", True),
            "tether drag": (traction, KITE, replace(TETHER, C_D_c=1e3), "traction", True),
        }[gate]
        est = estimate_record(rec._replace(phase=phase), kite, tether, ENV)
        assert not est.valid
        assert math.isnan(est.LD_sys) and math.isnan(est.LD_k)
        assert math.isnan(est.C_R) is not has_C_R

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
                                  vk_x=1.0, vk_y=0.0, vk_z=0.0, v_t=v_t, v_w_ref=9.9,
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

    @pytest.mark.parametrize("others", ["traction", None], ids=["labelled", "blank"])
    def test_misspelt_label_rejected_whatever_the_other_rows_hold(self, others):
        # A typo in one row is not ignored where the other rows are blank.
        series = self.series_with_speeds([3.0] * 5, phase=others)
        series[2] = series[2]._replace(phase="tractoin")
        with pytest.raises(ValidationError, match=r"^unknown phase labels: \['tractoin'\]$"):
            segment_phases(series)

    def test_partly_labelled_log_is_segmented_by_reeling_speed(self):
        series = self.series_with_speeds([-2.0] * 5 + [3.0] * 5)
        series[0] = series[0]._replace(phase="traction")
        assert segment_phases(series) == ["retraction"] * 5 + ["traction"] * 5

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
    stripped = [rec._replace(phase=None) for rec in strong_telemetry]
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
        clean.append(estimate_record(rec, cfg.kite, cfg.tether, cfg.environment).C_R)
        bumped = rec._replace(F_tg=max(rec.F_tg + rng.normal(0.0, sigma), 0.0))
        noisy.append(estimate_record(bumped, cfg.kite, cfg.tether, cfg.environment).C_R)
    clean, noisy = np.array(clean), np.array(noisy)
    assert np.std(noisy) > np.std(clean)
    # The mean moves by at most a few noise-scaled standard errors.
    tolerance = 5.0 * sigma / 3008.0 * np.mean(clean) / math.sqrt(len(noisy))
    assert abs(np.mean(noisy) - np.mean(clean)) < tolerance


def test_exported_records_keep_the_kite_and_radial_speeds():
    # On both presets and in both gravity modes, each exported velocity
    # vector has the step's speed v_k, and its component along the tether
    # is the step's radial speed v_t; at a phase boundary the export keeps
    # the end of the phase before.
    for preset in ("strong_wind", "moderate_wind"):
        cfg = load_config(preset_path(preset))
        for gravity in (True, False):
            cycle = simulate_cycle(cfg.environment, cfg.kite, cfg.tether,
                                   replace(cfg.operation, gravity=gravity))
            steps = {}
            for phase in cycle.phases:
                for t, _, _, _, v_t, v_k, *_ in phase.rows():
                    steps.setdefault(t, (v_t, v_k))
            records = list(cycle_to_log_records(cycle, cfg.environment.v_w_ref))
            assert [rec.t for rec in records] == sorted(steps)
            for rec in records:
                v_t, v_k = steps[rec.t]
                sin_t = math.sin(rec.theta)
                radial = (sin_t * math.cos(rec.phi), sin_t * math.sin(rec.phi),
                          math.cos(rec.theta))
                vk = (rec.vk_x, rec.vk_y, rec.vk_z)
                assert math.hypot(*vk) == pytest.approx(v_k, rel=1e-12)
                assert sum(a * b for a, b in zip(vk, radial)) == pytest.approx(
                    v_t, rel=1e-12, abs=1e-12 * v_k)


@pytest.mark.parametrize("gravity", [True, False], ids=["gravity", "massless"])
@pytest.mark.parametrize("preset", ["strong_config", "moderate_config"])
def test_telemetry_export_streams_its_records(request, tmp_path, preset, gravity):
    # The export yields each record into the writer, which writes a chunk of
    # lines at a time, so the peak does not grow with the steps: it reads
    # 0.15-0.22 MB, where a list of the records takes ≈ 440-510 B a step.
    cfg = request.getfixturevalue(preset)
    cycle = simulate_cycle(cfg.environment, cfg.kite, cfg.tether,
                           replace(cfg.operation, dT=0.001, gravity=gravity))
    tracemalloc.start()
    try:
        write_telemetry_csv(tmp_path / "telemetry.csv",
                            cycle_to_log_records(cycle, cfg.environment.v_w_ref))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 500_000, (peak, cycle.steps)


def test_log_record_invariants(tmp_path, strong_config, strong_telemetry):
    # A record checks nothing itself: segment_and_average names the bad
    # sample's index, the telemetry parser its file line.
    cfg = strong_config
    for field, value, message in (("F_tg", -1.0, "ground tether force must be >= 0, got -1.0"),
                                  ("r", 0.0, "tether length must be > 0, got 0.0"),
                                  ("v_w_ref", -1.0,
                                   "reference wind speed must be >= 0, got -1.0")):
        series = list(strong_telemetry[:20])
        series[3] = series[3]._replace(**{field: value})
        with pytest.raises(ValidationError) as info:
            segment_and_average(series, cfg.kite, cfg.tether, cfg.environment)
        assert str(info.value) == f"sample 3: {message}"
        path = tmp_path / f"{field}.csv"
        write_telemetry_csv(path, series)
        with pytest.raises(ValidationError) as info:
            read_telemetry_csv(path)
        assert str(info.value) == f"{path}: line 5: {message}"


def with_number(rec: LogRecord, field: str, value: float) -> LogRecord:
    """``rec`` with one number replaced."""
    return rec._replace(**{field: value})


NON_FINITE = [("middle", field, value)
              for field in ("t", "F_tg", "r", "theta", "phi", "chi", "vk_x", "vk_y", "vk_z",
                            "v_t", "v_w_ref")
              for value in (math.nan, math.inf, -math.inf)]


@pytest.mark.parametrize("where, field, value", [*NON_FINITE, ("first", "t", math.nan),
                                                 ("last", "t", math.inf),
                                                 ("retraction", "chi", math.nan)])
def test_non_finite_sample_rejected(strong_config, strong_telemetry, where, field, value):
    # NaN passes r > 0, F_tg >= 0, v_w_ref >= 0 and the time order alike,
    # so segment_and_average checks each number, as the telemetry reader
    # does.  A NaN first time and an infinite last one keep the time order;
    # a NaN course angle passes the retraction gate.
    cfg = strong_config
    series = list(strong_telemetry)
    i = {"middle": 100, "first": 0, "last": len(series) - 1,
         "retraction": segment_phases(series).index("retraction") + 10}[where]
    series[i] = with_number(series[i], field, value)
    with pytest.raises(ValidationError) as info:
        segment_and_average(series, cfg.kite, cfg.tether, cfg.environment)
    assert str(info.value) == f"sample {i}: {field} is not finite: {value}"


def test_segment_and_average_binds_the_estimator_once(monkeypatch, strong_config,
                                                     strong_telemetry):
    # A series binds its constants once and runs the bound pass once per
    # sample; estimate_record binds them for its one sample.
    cfg = strong_config
    args = (cfg.kite, cfg.tether, cfg.environment)
    bound, passes = [], []
    bind_estimator = estimation._bind_estimator

    def counting(*bind_args):
        bound.append(bind_args)
        estimate = bind_estimator(*bind_args)

        def counted(rec, phase):
            passes.append(rec)
            return estimate(rec, phase)
        return counted

    monkeypatch.setattr(estimation, "_bind_estimator", counting)
    segment_and_average(strong_telemetry, *args)
    assert bound == [args] and passes == list(strong_telemetry)
    bound.clear()
    passes.clear()
    estimate_record(strong_telemetry[0], *args)
    assert bound == [args] and passes == [strong_telemetry[0]]


def test_wind_at_the_kite_is_computed_once_per_sample(monkeypatch, strong_config,
                                                      strong_telemetry):
    cfg = strong_config
    calls = []

    def counted_binder(env):
        wind = bind_wind(env)

        def counting(z, v_ref):
            calls.append(z)
            return wind(z, v_ref)
        return counting

    monkeypatch.setattr(estimation, "bind_wind", counted_binder)
    segment_and_average(strong_telemetry, cfg.kite, cfg.tether, cfg.environment)
    assert len(calls) == len(strong_telemetry)


def test_averages_carry_the_per_sample_estimates(strong_config, strong_telemetry):
    cfg = strong_config
    args = (cfg.kite, cfg.tether, cfg.environment)
    avg = segment_and_average(strong_telemetry, *args)
    labels = segment_phases(strong_telemetry)
    assert len(avg.estimates) == len(strong_telemetry)
    for est, rec, label in zip(avg.estimates, strong_telemetry, labels):
        assert repr(est) == repr(estimate_record(rec._replace(phase=label), *args))
    assert "estimates" not in repr(avg)
