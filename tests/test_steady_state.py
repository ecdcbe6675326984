import math
import re

import numpy as np
import pytest

from kitecycle import steady_state
from kitecycle import (
    AeroSet,
    Environment,
    KiteParams,
    OperationSettings,
    TetherParams,
    WindState,
    angle_trig,
    massless_state,
    replace,
    solve_kinematic_ratio,
    tether_properties,
    wind_state_at,
)
from kitecycle.errors import (
    NoTensionError,
    SetpointUnreachableError,
    SteadyStateError,
    TetherSagError,
    ValidationError,
)
from kitecycle.steady_state import tether_balance
from oracles import (bisect_kappa, gravity_setpoint, grid_scan_kappa, massless_setpoint,
                     scan_harvesting_factor)

TETHER = TetherParams(d_t=0.004, rho_t=724.0)
STRONG_KITE = KiteParams(
    S=10.2, m=15.0,
    aero_traction=AeroSet(C_L=0.69, LD_k=4.0),
    aero_retraction=AeroSet(C_L=0.17, LD_k=3.1),
)
# The (m, S) of the equilibrium functions' tail, for the strong-wind kite.
STRONG = (STRONG_KITE.m, STRONG_KITE.S)
WIND = WindState(v_w=10.0, rho=1.225)
Q = 0.5 * WIND.rho * WIND.v_w**2  # its dynamic pressure

# Resultant coefficient 0.71 split into (C_L, C_D) at L/D = 4.
AERO_71 = (0.71 * 4 / math.sqrt(17), 0.71 / math.sqrt(17))


def flight(theta_deg=90.0, phi_deg=0.0, chi_deg=90.0):
    """(theta, angles) of a flight state given in degrees."""
    return math.radians(theta_deg), angle_trig(math.radians(phi_deg), math.radians(chi_deg))


def random_tension_state(rng, f_lo=-1.0, aero=None, wind=WIND):
    """Random (f, theta, angles) carrying tension; when ``aero`` = (C_L,
    C_D) is given, resample until the massless closed form has a valid
    solution there."""
    while True:
        theta = rng.uniform(math.radians(20), math.radians(85))
        phi = rng.uniform(-math.radians(30), math.radians(30))
        chi = rng.uniform(0.0, 2 * math.pi)
        b = math.sin(theta) * math.cos(phi)
        f = rng.uniform(f_lo, 0.9 * b)
        rng.uniform(100.0, 800.0)  # a tether length, which no equilibrium reads
        st = (f, theta, angle_trig(phi, chi))
        if aero is None:
            return st
        try:
            massless_state(*st, *aero, 10.2, *wind)
        except SteadyStateError:
            continue
        return st


class TestTetherProperties:
    def test_zero_length_limit(self):
        m_t, C_D_total = tether_properties(1e-12, TETHER, STRONG_KITE, STRONG_KITE.aero_traction)
        assert C_D_total == pytest.approx(0.69 / 4.0, abs=1e-12)
        assert m_t == pytest.approx(0.0, abs=1e-12)

    def test_total_drag_coefficient(self):
        _, C_D_total = tether_properties(390.0, TETHER, STRONG_KITE, STRONG_KITE.aero_traction)
        assert C_D_total == pytest.approx(0.1725 + 0.042059, abs=5e-6)

    def test_tether_mass(self):
        m_t, _ = tether_properties(600.0, TETHER, STRONG_KITE, STRONG_KITE.aero_traction)
        assert m_t == pytest.approx(724.0 * math.pi * 0.004**2 / 4 * 600.0, rel=1e-12)
        assert m_t == pytest.approx(5.459, abs=1e-3)

    def test_rejects_nonpositive_length(self):
        for r in (0.0, math.nan):  # a check r <= 0 lets NaN through, as (nan, nan)
            with pytest.raises(ValidationError, match=rf"^tether length must be > 0, got {r}$"):
                tether_properties(r, TETHER, STRONG_KITE, STRONG_KITE.aero_traction)


@pytest.mark.parametrize("make,message", [
    (lambda: AeroSet(C_L=0.0, LD_k=4.0), "aero set requires C_L > 0 and LD_k > 0"),
    (lambda: AeroSet(C_L=0.69, LD_k=-1.0), "aero set requires C_L > 0 and LD_k > 0"),
    (lambda: TetherParams(d_t=0.0, rho_t=724.0), "tether parameters must be positive"),
    (lambda: TetherParams(d_t=0.004, rho_t=724.0, C_D_c=0.0),
     "tether parameters must be positive"),
    (lambda: TetherParams(d_t=1e200, rho_t=724.0), "tether mass per metre must be finite"),
    (lambda: TetherParams(d_t=1e100, rho_t=1e300), "tether mass per metre must be finite"),
    (lambda: replace(STRONG_KITE, S=0.0), "projected wing area must be > 0"),
    (lambda: replace(STRONG_KITE, m=-1.0), "airborne mass must be >= 0"),
])
def test_parameter_invariants(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


ENVIRONMENT = Environment(v_w_ref=9.9, z_ref=6.0, z0=0.07)
OPERATION = OperationSettings(beta_o=0.47, phi_o=0.18, chi_o=1.76, r_min=390.0, r_max=720.0,
                              F_out=3008.0, F_in=749.0)
NON_FINITE_CHECKS = [
    (STRONG_KITE.aero_traction, "C_L", "aero set requires C_L > 0 and LD_k > 0"),
    (STRONG_KITE.aero_traction, "LD_k", "aero set requires C_L > 0 and LD_k > 0"),
    (STRONG_KITE, "S", "projected wing area must be > 0"),
    (STRONG_KITE, "m", "airborne mass must be >= 0"),
    (TETHER, "d_t", "tether parameters must be positive"),
    (TETHER, "rho_t", "tether parameters must be positive"),
    (TETHER, "C_D_c", "tether parameters must be positive"),
    (ENVIRONMENT, "z_ref", "requires z_ref > z0 > 0"),
    (ENVIRONMENT, "v_w_ref", "reference wind speed must be >= 0"),
    (ENVIRONMENT, "rho0", "sea-level density must be > 0"),
    (ENVIRONMENT, "H_rho", "density scale height must be > 0"),
    (OPERATION, "r_max", "requires 0 < r_min < r_max"),
    (OPERATION, "F_out", "requires 0 < F_in < F_out"),
    (OPERATION, "phi_o", "azimuth phi must be finite"),
    (OPERATION, "chi_o", "course angle chi must be finite"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("params,field,message", NON_FINITE_CHECKS,
                         ids=[f"{type(p).__name__}.{f}" for p, f, _ in NON_FINITE_CHECKS])
def test_non_finite_parameters_rejected(params, field, message, value):
    # Each check used to be a comparison that NaN (and inf) passes.
    with pytest.raises(ValidationError, match=message):
        replace(params, **{field: value})


def test_kinematic_ratio_needs_a_radial_apparent_wind():
    # At f >= sin(theta) cos(phi) the kite reels out at least as fast as
    # the wind blows along the tether: no tension.
    theta, angles = flight(theta_deg=60.0, phi_deg=10.0)
    b = math.sin(theta) * angles[1]
    for f in (b, b + 0.1):
        with pytest.raises(NoTensionError, match=r"^reeling factor .* >= sin\(theta\)\*cos"):
            solve_kinematic_ratio(f, theta, angles, *AERO_71, 5.0, *STRONG, *WIND)


class TestEntryChecks:
    """Checks at the entry of the force inversions and the force geometry."""

    THETA, ANGLES = math.radians(63), angle_trig(0.0, math.pi)

    @pytest.mark.parametrize("F_target,v_w,message", [
        (0.0, 10.0, "force target must be > 0"),
        (-5.0, 10.0, "force target must be > 0"),
        (749.0, 0.0, "force inversion requires a positive wind speed"),
    ])
    def test_massless_inversion(self, F_target, v_w, message):
        with pytest.raises(ValidationError, match=message):
            massless_setpoint(F_target, self.THETA, self.ANGLES, *AERO_71, 10.2, v_w, WIND.rho)

    @pytest.mark.parametrize("F_target,end,v_w,message", [
        (0.0, "kite", 10.0, "force target must be > 0"),
        (749.0, "winch", 10.0, "force target end must be 'kite' or 'ground', got 'winch'"),
        (749.0, "ground", 0.0, "the quasi-steady equilibrium requires a positive wind speed"),
    ])
    def test_gravity_inversion(self, F_target, end, v_w, message):
        with pytest.raises(ValidationError, match=message):
            gravity_setpoint(F_target, end, self.THETA, self.ANGLES, *AERO_71, 6.0, *STRONG, v_w,
                             WIND.rho)

    def test_negative_tether_mass(self):
        with pytest.raises(ValidationError, match="tether mass must be >= 0, got -1.0"):
            solve_kinematic_ratio(0.0, self.THETA, self.ANGLES, *AERO_71, -1.0, *STRONG, *WIND)

    def test_nan_tether_mass(self):
        # Every comparison with NaN is false: a check m_t < 0 lets it reach the solver.
        head = (self.THETA, self.ANGLES, *AERO_71, math.nan, *STRONG, *WIND)
        for call in (lambda: solve_kinematic_ratio(0.0, *head),
                     lambda: gravity_setpoint(1e3, "kite", *head),
                     lambda: gravity_setpoint(1e3, "ground", *head)):
            with pytest.raises(ValidationError, match=r"^tether mass must be >= 0, got nan$"):
                call()

    def test_massless_state_rejects_an_infinite_azimuth(self):
        # The sine and cosine of phi = inf are NaN, as numpy gives them.
        angles = (math.nan, math.nan, *self.ANGLES[2:])
        for call in (lambda: massless_state(0.0, self.THETA, angles, *AERO_71, 10.2, *WIND),
                     lambda: massless_setpoint(1e3, self.THETA, angles, *AERO_71, 10.2, *WIND)):
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == f"angles must be finite sines and cosines, got {angles}"

    def test_gravity_inversion_rejects_a_nan_course_angle(self):
        # Not a set-point that G falls through: the angles are named.
        angles = (*self.ANGLES[:2], math.nan, math.nan)
        with pytest.raises(ValidationError) as info:
            gravity_setpoint(1e3, "kite", self.THETA, angles, *AERO_71, 6.0, *STRONG, *WIND)
        assert str(info.value) == f"angles must be finite sines and cosines, got {angles}"

    def test_kinematic_solve_rejects_non_finite_angles(self):
        for angles in ((0.0, 1.0, math.nan, 1.0), (math.nan, 1.0, 0.0, 1.0),
                       (0.0, 1.0, 0.0, -math.inf), (0.0, math.inf, 0.0, 1.0)):
            with pytest.raises(ValidationError) as info:
                solve_kinematic_ratio(0.0, self.THETA, angles, *AERO_71, 6.0, *STRONG, *WIND)
            assert str(info.value) == f"angles must be finite sines and cosines, got {angles}"

    def test_non_finite_reeling_factor_or_force_target(self):
        # Each used to pass the comparisons after it and return NaN, or fail
        # for a wrong reason.
        for f in (math.nan, math.inf, -math.inf):
            for call in (lambda: massless_state(f, self.THETA, self.ANGLES, *AERO_71, 10.2, *WIND),
                         lambda: solve_kinematic_ratio(f, self.THETA, self.ANGLES, *AERO_71, 6.0,
                                                       *STRONG, *WIND)):
                with pytest.raises(ValidationError) as info:
                    call()
                assert str(info.value) == f"reeling factor must be finite, got {f}"
        for F in (math.nan, math.inf):
            for call in (lambda: massless_setpoint(F, self.THETA, self.ANGLES, *AERO_71, 10.2,
                                                   *WIND),
                         lambda: gravity_setpoint(F, "ground", self.THETA, self.ANGLES, *AERO_71,
                                                  6.0, *STRONG, *WIND)):
                with pytest.raises(ValidationError) as info:
                    call()
                assert str(info.value) == f"force target must be > 0 and finite, got {F}"

    def test_angle_trig_names_a_non_finite_angle(self):
        for phi, chi, message in ((math.inf, math.pi, "azimuth phi must be finite, got inf"),
                                  (math.nan, 0.0, "azimuth phi must be finite, got nan"),
                                  (0.0, math.nan, "course angle chi must be finite, got nan"),
                                  (0.0, -math.inf, "course angle chi must be finite, got -inf")):
            with pytest.raises(ValidationError) as info:
                angle_trig(phi, chi)
            assert str(info.value) == message


class TestBeyondFloats:
    """States whose numbers leave the float range end in a named model
    error, never in an arithmetic exception or a non-finite result."""

    # A root is found, then the wind power density 0.5*rho*v_w**3*S of zeta
    # overflows (v_w**3) or underflows to 0.  The last three came from a
    # log-uniform fuzz of both functions' inputs, seeded with 1.
    @pytest.mark.parametrize("solve,args,v_w", [
        (solve_kinematic_ratio, (
            -2.0698815447778696, 0.5974543099420773,
            (0.7062644630913804, 0.7079480970906301, 0.9992948925056643, -0.037546209024253006),
            1.776838269398876e+135, 1.8316201684916834e+131, 2.759781914535723e-182, 0.0,
            1.2738019176379864e-206, 2.1987452113830736e+150, 1.2901745201855478e-182), "2.2e+150"),
        (solve_kinematic_ratio, (
            -0.12769078565660985, -1.4281294609852524,
            (-0.8798171573123351, -0.47531228650103485, -0.03206744600255294, 0.9994857072048972),
            0.01340420874571719, 2.4396335806594876e-139, 8.673126866955177e-259,
            2.0905117785578404e-181, 3.179661305771606e-44, 4.1715699539010236e-55,
            4.8301260469723295e-146), "4.17e-55"),
        (gravity_setpoint, (
            4.117945897390441e+152, "ground", 1.8563164798054683,
            (0.9914416976827856, -0.13055022058915156, -0.6770615053311138, 0.7359264351813748),
            1.9486958591686484e+269, 1.5573385273121617e+224, 1.7266516216394077e-115,
            3.1959828000078725e-253, 2.390752150647813e-218, 3.168120767404353e-110,
            1.9299566012569116e+278), "3.17e-110"),
        (gravity_setpoint, (
            1.3365522341170996e+148, "kite", -0.785512290073467,
            (0.9999998154090592, 0.0006076033635650397, -0.8203723254215435, 0.5718297366196071),
            6.96325811709686e+128, 2.4265204409046656e+61, 2.3616130055868022e-269,
            4.776253041331276e-124, 3.969506068631448e-164, 6.656959321051297e+140,
            2.1415357110878365e-100), "6.66e+140"),
        # q*S*C_R*(b - f)**2 underflows to 0 before the search starts.
        (solve_kinematic_ratio, (0.0, math.radians(63.0), angle_trig(0.0, math.pi), 0.17, 0.09,
                                 6.5, 15.0, 10.2, 1e-200, 1.2), "1e-200"),
    ], ids=["fixed-factor-overflow", "fixed-factor-underflow", "setpoint-underflow",
            "setpoint-overflow", "fixed-factor-force-underflow"])
    def test_wind_power_density_beyond_floats(self, solve, args, v_w):
        with pytest.raises(SteadyStateError,
                           match=rf"^wind speed {re.escape(v_w)} m/s is beyond float arithmetic"):
            solve(*args)

    @pytest.mark.parametrize("C_L,C_D,G", [(1e300, 1e-300, "inf"), (1e-300, 1e300, "0.0")])
    def test_massless_pair_checks_the_lift_to_drag_ratio(self, C_L, C_D, G):
        # The ratio overflows or underflows; the state used to come back with
        # infinite forces, or with kappa 0.
        message = f"effective lift-to-drag ratio must be finite and > 0, got {G}"
        angles = angle_trig(0.0, 0.0)
        for call in (lambda: massless_state(0.1, 1.0, angles, C_L, C_D, 10.0, 10.0, 1.2),
                     lambda: solve_kinematic_ratio(0.1, 1.0, angles, C_L, C_D, 1.0, 10.0, 10.0,
                                                   10.0, 1.2),
                     lambda: massless_setpoint(1e3, 1.0, angles, C_L, C_D, 10.0, 10.0, 1.2),
                     lambda: gravity_setpoint(1e3, "kite", 1.0, angles, C_L, C_D, 1.0, 10.0,
                                              10.0, 10.0, 1.2)):
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == message
        # As in the fixed-factor solve, a state without tension says so first.
        for call in (lambda: massless_state(1.0, 1.0, angles, C_L, C_D, 10.0, 10.0, 1.2),
                     lambda: solve_kinematic_ratio(1.0, 1.0, angles, C_L, C_D, 1.0, 10.0, 10.0,
                                                   10.0, 1.2)):
            with pytest.raises(NoTensionError):
                call()

    def test_drag_condition_square_underflow(self):
        # The set-point's b - f is positive, but its square underflows to 0 in
        # the drag-condition kernel's kappa^2; it used to raise ZeroDivisionError.
        # From a log-uniform fuzz of gravity_setpoint.
        with pytest.raises(SteadyStateError, match=r"^radial apparent wind factor b - f = "
                                                   r"9\.61e-201 is beyond float arithmetic: its "
                                                   r"square underflows to 0$"):
            gravity_setpoint(
                1.4319386694795793e+136, "kite", 2.265761396388485,
                (-0.40821070908486295, 0.9128877351506227, 0.9028682774190493,
                 -0.42991728696385145), 4.169692000765427e+200, 6.832520465712433e-100, 0.0,
                3.7938621952278094e-133, 8.127538614462914e+111, 6.917645135103565e-108,
                1.4093518510824863e-98)

    @pytest.mark.parametrize("f", [-1e150, -1e200])
    def test_massless_tether_force_or_power_overflow(self, f):
        # -1e150 used to return P = zeta = -inf; -1e200 raised OverflowError
        # from (b - f)**2.
        with pytest.raises(SteadyStateError) as info:
            massless_state(f, 1.0, angle_trig(0.0, 0.0), 1.0, 0.2, 10.0, 10.0, 1.2)
        assert str(info.value).startswith(f"reeling factor {f:.6g} is beyond float arithmetic")


class TestMasslessState:
    def test_tangential_factor_at_zenith_symmetry(self):
        res = massless_state(0.25, *flight(90, 0, 90), 0.8, 0.2, 10.2, *WIND)  # L/D = 4
        assert res.lam == pytest.approx(4.0 * 0.75, rel=1e-12)

    def test_normalised_tether_force(self):
        res = massless_state(1 / 3, *flight(90, 0, 90), *AERO_71, 10.2, *WIND)
        assert res.F_t_kite / (Q * 10.2) == pytest.approx(0.71 * 17 * (2 / 3) ** 2, rel=1e-9)

    def test_harvesting_factor_and_its_maximiser(self):
        res = massless_state(1 / 3, *flight(90, 0, 90), *AERO_71, 10.2, *WIND)
        assert res.zeta == pytest.approx(0.71 * 17 * (1 / 3) * (2 / 3) ** 2, rel=1e-9)
        f_best = scan_harvesting_factor(0.71, 4.0, b=1.0, resolution=1e-5)
        assert f_best == pytest.approx(1 / 3, abs=2e-5)

    def test_geometric_similarity_identity(self):
        # The tangential/radial apparent-wind ratio reconstructed from the
        # solved components must return the lift-to-drag ratio.
        rng = np.random.default_rng(7)
        for _ in range(100):
            C_L, C_D = aero = (rng.uniform(0.3, 1.2), rng.uniform(0.05, 0.4))
            f, theta, (sin_p, cos_p, sin_c, cos_c) = st = random_tension_state(rng, aero=aero)
            res = massless_state(*st, *aero, 10.2, *WIND)
            b = math.sin(theta) * cos_p
            va_r = (b - f) * WIND.v_w
            va_th = (math.cos(theta) * cos_p - res.lam * cos_c) * WIND.v_w
            va_ph = (-sin_p - res.lam * sin_c) * WIND.v_w
            assert math.hypot(va_th, va_ph) / va_r == pytest.approx(C_L / C_D, rel=1e-9)

    def test_no_tension_error(self):
        with pytest.raises(NoTensionError):
            massless_state(1.0, *flight(90, 0, 90), *AERO_71, 10.2, *WIND)

    def test_power_sign_follows_reeling_factor(self):
        for f, sign in ((0.2, 1), (-0.2, -1), (0.0, 0)):
            res = massless_state(f, *flight(60, 5, 120), *AERO_71, 10.2, *WIND)
            assert np.sign(res.P) == sign


class TestReelFactorMassless:
    def test_hand_value(self):
        # b = 1, F/(qS) = 3 and C_R(1+(L/D)^2) = 12 gives f = 1 - 1/2:
        # C_R = 12/17 split at L/D = 4.
        C_R = 12.0 / 17.0
        aero = (C_R * 4 / math.sqrt(17), C_R / math.sqrt(17))
        f, eq = massless_setpoint(3.0 * Q * 10.2, *flight(90, 0, 90), *aero, 10.2, *WIND)
        assert f == pytest.approx(0.5, rel=1e-9)
        assert eq.F_t_kite == pytest.approx(3.0 * Q * 10.2, rel=1e-12)

    def test_force_at_zero_reeling_returns_zero(self):
        st = flight(63, 10, 100)
        F0 = massless_state(0.0, *st, *AERO_71, 10.2, *WIND).F_t_kite
        f, _ = massless_setpoint(F0, *st, *AERO_71, 10.2, *WIND)
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            aero = (rng.uniform(0.3, 1.2), rng.uniform(0.05, 0.4))
            f0, theta, angles = random_tension_state(rng, aero=aero)
            F = massless_state(f0, theta, angles, *aero, 10.2, *WIND).F_t_kite
            f, eq = massless_setpoint(F, theta, angles, *aero, 10.2, *WIND)
            assert f == pytest.approx(f0, abs=1e-11)
            assert eq == massless_state(f, theta, angles, *aero, 10.2, *WIND)
            assert eq.F_t_kite == pytest.approx(F, rel=1e-9)

    def test_factor_below_minus_3_is_unreachable(self):
        # The bound of the gravity inversion: f >= -3.
        st = flight(63, 10, 100)

        def force_at(f):
            return massless_state(f, *st, *AERO_71, 10.2, *WIND).F_t_kite

        f, _ = massless_setpoint(force_at(-2.999), *st, *AERO_71, 10.2, *WIND)
        assert f == pytest.approx(-2.999, abs=1e-12)
        with pytest.raises(SetpointUnreachableError, match=r"f = -3\.001 is below -3"):
            massless_setpoint(force_at(-3.001), *st, *AERO_71, 10.2, *WIND)


class TestGroundTetherForce:
    """The sag balance between the tether's ends, through set-points of a
    massless kite flying down (chi = 0) with a tether of mass m_t."""

    @staticmethod
    def setpoint(F_target, target_end, theta, m_t):
        return gravity_setpoint(F_target, target_end, theta, angle_trig(0.0, 0.0), *AERO_71, m_t,
                                0.0, 10.2, *WIND)

    def kite_tension(self, F_tg, theta, m_t):
        """The kite-end tension that carries ``F_tg`` at the ground.  The
        equilibrium's ground force, taken from that tension, is ``F_tg``
        again, and its aerodynamic force is tether_balance's inversion."""
        _, eq = self.setpoint(F_tg, "ground", theta, m_t)
        assert eq.F_tg == pytest.approx(F_tg, rel=1e-12)
        assert (eq.F_a_r, eq.F_a) == tether_balance(math.sin(theta), math.cos(theta), m_t, 0.0,
                                                    F_tg, True)
        return eq.F_t_kite

    def test_horizontal_tether_identity(self):
        F_t_kite = self.kite_tension(750.0, math.pi / 2, 5.0)
        assert isinstance(F_t_kite, float)
        assert F_t_kite == pytest.approx(750.0, rel=1e-12)

    def test_zenith_value(self):
        F_t_kite = self.kite_tension(750.0 - 5.459 * 9.81, 0.0, 5.459)
        assert F_t_kite == pytest.approx(750.0, rel=1e-9)

    def test_massless_tether_identity(self):
        assert self.kite_tension(321.0, 1.0, 0.0) == pytest.approx(321.0, rel=1e-12)

    def test_ground_force_below_kite_force_for_small_sag(self):
        for theta_deg in (20, 45, 80):
            F_t_kite = self.kite_tension(3000.0, math.radians(theta_deg), 6.0)
            assert 3000.0 < F_t_kite < 3000.0 + 6.0 * 9.81

    def test_sag_too_large(self):
        # Half the weight of 5 kg of tether, 24.5 N tangential at the
        # ground, exceeds 10 N there.
        assert tether_balance(1.0, 0.0, 5.0, 0.0, 10.0, True) is None
        with pytest.raises(SetpointUnreachableError,
                           match=r"^force 10 N at the ground: no radial tension at the kite "
                                 r"\(sag reaction 24\.525 N\)$"):
            self.setpoint(10.0, "ground", math.pi / 2, 5.0)

    def test_sag_reaction_too_large_to_square(self):
        # The kite end compares a force with its sag reaction before squaring
        # either; the ground end squares both, as its radicand may be 0.
        sag = r"\(sag reaction 4\.905e\+160 N\)"
        for end, reason in (("kite", rf"no radial tension at the kite {sag}"),
                            ("ground", "its square overflows")):
            with pytest.raises(SetpointUnreachableError,
                               match=rf"^force 1000 N at the {end}: {reason}$"):
                self.setpoint(1e3, end, math.pi / 2, 1e160)

    def test_tether_cannot_push_on_the_ground_station(self):
        # Near the zenith 5 kg of tether weighs 49 N radially; 40 N at the
        # kite cannot carry it.
        with pytest.raises(TetherSagError, match="^kite tension 40 N leaves the tether pushing"):
            self.setpoint(40.0, "kite", 0.1, 5.0)


# Flight state of the mass-isoline study: 25 deg elevation, f = 0.37,
# L/D = 5 with C_L = 1, S = 16.7 m2, v_w = 7 m/s at sea-level density.
FIG8_AERO = (1.0, 0.2)
FIG8_WIND = WindState(v_w=7.0, rho=1.225)
FIG8_THETA = math.radians(65.0)


def fig8_problem(chi_deg, m):
    """``solve_kinematic_ratio``'s arguments at the study's state, flying
    at course angle ``chi_deg`` with airborne mass ``m`` and no tether."""
    return (0.37, FIG8_THETA, angle_trig(0.0, math.radians(chi_deg)), *FIG8_AERO, 0.0, m, 16.7,
            *FIG8_WIND)


class TestKinematicRatioSolver:
    def test_massless_limit_single_iteration(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            C_L, C_D = aero = (rng.uniform(0.3, 1.2), rng.uniform(0.05, 0.4))
            st = random_tension_state(rng, aero=aero)
            res = solve_kinematic_ratio(*st, *aero, 0.0, 0.0, 10.2, *WIND)
            ml = massless_state(*st, *aero, 10.2, *WIND)
            assert res.iterations == 1
            assert res.kappa == pytest.approx(C_L / C_D, rel=1e-12)
            for field in ("lam", "v_a", "F_a", "F_t_kite", "F_tg", "zeta", "P"):
                assert getattr(res, field) == pytest.approx(getattr(ml, field), rel=1e-9, abs=1e-12)

    def test_upward_flight_reduces_kinematic_ratio(self):
        res = solve_kinematic_ratio(*fig8_problem(180, 10.0))
        assert res.iterations > 1
        assert res.kappa < 5.0

    def test_downward_flight_raises_kinematic_ratio(self):
        res = solve_kinematic_ratio(*fig8_problem(0, 10.0))
        assert res.kappa > 5.0

    def test_downward_monotone_in_mass(self):
        kappas = [solve_kinematic_ratio(*fig8_problem(0, m)).kappa for m in (10.0, 30.0, 50.0)]
        assert kappas[0] < kappas[1] < kappas[2]

    @pytest.mark.parametrize("chi_deg,m", [(0, 10.0), (0, 30.0), (0, 50.0), (180, 10.0)])
    def test_grid_scan_oracle_agreement(self, chi_deg, m):
        problem = fig8_problem(chi_deg, m)
        res = solve_kinematic_ratio(*problem)
        kappa_scan, residual = grid_scan_kappa(*problem)
        assert residual < 1e-4
        assert res.kappa == pytest.approx(kappa_scan, rel=1e-4)

    def test_heavy_upward_flight_has_no_solution(self):
        # Beyond ~22 kg the tangential gravity component exceeds what the
        # aerodynamic force can balance in upward flight at this state.
        for m in (30.0, 50.0):
            with pytest.raises(SteadyStateError):
                solve_kinematic_ratio(*fig8_problem(180, m))
            kappa_scan, residual = grid_scan_kappa(*fig8_problem(180, m))
            assert residual > 1e-2  # the scan confirms: no kappa satisfies the geometry

    def test_upward_mass_boundary(self):
        # The largest upward-flight mass with an equilibrium at this state
        # lies near 21.96 kg: just below it the root matches a tight
        # bisection, just above it neither finds one.
        res = solve_kinematic_ratio(*fig8_problem(180, 21.9))
        reference = bisect_kappa(*fig8_problem(180, 21.9))
        assert abs(res.kappa / reference - 1.0) <= 1e-8
        with pytest.raises(SteadyStateError, match="^no sign change"):
            solve_kinematic_ratio(*fig8_problem(180, 22.0))
        assert bisect_kappa(*fig8_problem(180, 22.0)) is None

    def test_no_root_where_g_is_below_g_star_at_the_upper_end(self):
        # A weak wind and a heavy kite: G < G* already at kappa = 50*G*,
        # so the scan down from there finds no sign change.
        problem = (0.7407847147778921, 1.115530330916906,
                   angle_trig(0.3538403454566623, 5.9832697815155145), 0.28666691795325383,
                   0.4501480664642038, 2.94808935970313, 25.609560353468996, 10.2,
                   3.000865347898754, 1.039578950540014)
        with pytest.raises(SteadyStateError, match=r"^no sign change of G\(kappa\) - G\* on "
                                                   r"\(0, 31\.8414\]: G < G\* at the upper end$"):
            solve_kinematic_ratio(*problem)

    def test_secant_stops_where_g_falls(self, monkeypatch):
        # Here a secant step finds G falling with kappa: its slope is not
        # positive.  The secant stops there and the scan finds the largest
        # root, making no kernel evaluation at the same force twice.
        probes = []
        kernel = steady_state._drag_condition

        def recording(A, F_a, *args):
            probes.append((A, F_a))
            return kernel(A, F_a, *args)

        monkeypatch.setattr(steady_state, "_drag_condition", recording)
        problem = (0.342979169429545, 0.4422137177172054,
                   angle_trig(-0.14410103486915815, 5.719932410903936),
                   0.9809529761938419, 0.1173416843719893, 4.053861481657151,
                   56.870560723736304, STRONG_KITE.S, 18.418159576752092, 1.037443360852761)
        res = solve_kinematic_ratio(*problem)
        assert len(set(probes)) == len(probes) == res.iterations
        reference = bisect_kappa(*problem)
        assert abs(res.kappa / reference - 1.0) <= 1e-8

    def test_force_component_identity(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 50:
            st = random_tension_state(rng, f_lo=-0.5)
            try:
                res = solve_kinematic_ratio(*st, 0.69, 0.2146, 3.0, *STRONG, 15.0, 1.2)
            except (SteadyStateError, TetherSagError):
                continue
            assert res.F_a**2 == pytest.approx(res.F_a_r**2 + res.F_a_theta**2, rel=1e-9)
            assert res.lam >= 0.0
            assert res.v_a >= 0.0
            checked += 1

    def test_gravity_to_massless_continuity(self):
        st = (0.2, *flight(63, 10, 100))
        aero, wind = (0.69, 0.2146), WindState(v_w=15.0, rho=1.2)
        ml = massless_state(*st, *aero, 10.2, *wind)
        deviations = []
        for eps in (1.0, 1e-3, 1e-6):
            res = solve_kinematic_ratio(*st, *aero, 6.0 * eps, 15.0 * eps, 10.2, *wind)
            deviations.append(abs(res.kappa - ml.kappa) + abs(res.F_t_kite - ml.F_t_kite) / ml.F_t_kite)
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] < 1e-5

    def test_tether_cannot_push_on_the_kite(self):
        # The root's radial aerodynamic force, 228.0 N, does not carry the
        # kite weight's radial component, 448.0 N.  Taking the kite-end
        # force as a magnitude used to lose that sign and report a tether
        # pulling with 220.2 N.
        problem = (0.0, 0.32370480643234667,
                   angle_trig(-0.6204325970340215, 0.09095910556995095), 0.2488217073758491,
                   0.2453056262277199, 3.8129599266705387, 48.17458546284782, 10.2,
                   11.522279840502655, 1.2)
        message = (r"^kite tension -220\.078 N \(radial\) leaves the tether pushing on the kite: "
                   r"F_a_r 227\.969 N cannot carry the radial kite weight 448\.048 N$")
        with pytest.raises(TetherSagError, match=message):
            solve_kinematic_ratio(*problem)


class TestReelFactorGravity:
    AERO = (0.17, 0.1325)
    WIND = WindState(v_w=18.79, rho=1.179)
    # (theta, angles) at the start of strong-wind retraction.
    RETRACTION = flight(63, 0, 180)

    def test_massless_agreement(self):
        # Without airborne mass the gravity set-point is the massless one:
        # the same reeling factor and the same equilibrium.
        rng = np.random.default_rng(23)
        for _ in range(25):
            aero = (rng.uniform(0.3, 1.0), rng.uniform(0.08, 0.3))
            f0, theta, angles = random_tension_state(rng, aero=aero)
            F = massless_state(f0, theta, angles, *aero, 10.2, *WIND).F_t_kite
            f_ml, ml = massless_setpoint(F, theta, angles, *aero, 10.2, *WIND)
            f_g, g = gravity_setpoint(F, "kite", theta, angles, *aero, 0.0, 0.0, 10.2, *WIND)
            assert f_g == pytest.approx(f_ml, abs=1e-12)
            for field in ("kappa", "lam", "v_a", "F_t_kite", "F_tg", "P"):
                assert getattr(g, field) == pytest.approx(getattr(ml, field), rel=1e-12), field

    def test_zero_reeling_fixed_point(self):
        res0 = solve_kinematic_ratio(0.0, *self.RETRACTION, *self.AERO, 6.55, *STRONG, *self.WIND)
        f, _ = gravity_setpoint(res0.F_t_kite, "kite", *self.RETRACTION, *self.AERO, 6.55, *STRONG,
                                *self.WIND)
        assert f == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("end", ["kite", "ground"])
    def test_force_matches_setpoint(self, end):
        f, _ = gravity_setpoint(749.0, end, *self.RETRACTION, *self.AERO, 6.55, *STRONG,
                                *self.WIND)
        res = solve_kinematic_ratio(f, *self.RETRACTION, *self.AERO, 6.55, *STRONG, *self.WIND)
        force = res.F_t_kite if end == "kite" else res.F_tg
        assert force == pytest.approx(749.0, rel=1e-6)

    def test_unreachably_large_force(self):
        with pytest.raises(SetpointUnreachableError):
            gravity_setpoint(1e9, "kite", *self.RETRACTION, *self.AERO, 6.55, *STRONG, *self.WIND)

    @pytest.mark.parametrize("end", ["kite", "ground"])
    def test_force_whose_square_overflows_is_unreachable(self, end):
        with pytest.raises(SetpointUnreachableError, match=f"at the {end}: its square overflows"):
            gravity_setpoint(1e200, end, *self.RETRACTION, *self.AERO, 6.55, *STRONG, *self.WIND)

    def test_unreachably_small_force(self):
        # With airborne weight the tether force cannot drop near zero.
        with pytest.raises(SetpointUnreachableError):
            gravity_setpoint(1.0, "kite", *self.RETRACTION, *self.AERO, 6.55, *STRONG, *self.WIND)

    def test_ground_target_below_the_pushing_tether_limit(self):
        # 3 kg of tether near the zenith and no kite mass: as f grows the
        # radial tension falls below the radial tether weight, where the
        # tether would push on the ground station.  Those states have no
        # equilibrium, so the ground-end force falls through 7.6 N once,
        # near f = -0.5, instead of rising again toward 26 N.
        tail = (0.1875, angle_trig(0.0, 0.0), 0.5, 0.5, 3.0, 0.0, 10.2, 3.0, 1.0)
        f, eq = gravity_setpoint(7.6, "ground", *tail)
        assert f == pytest.approx(-0.5006, abs=1e-4)
        assert eq.F_tg == pytest.approx(7.6, rel=1e-6)
        with pytest.raises(TetherSagError, match="^kite tension"):
            solve_kinematic_ratio(0.1, *tail)


@pytest.mark.parametrize("mode", ["gravity", "massless"])
class TestEdgeOfUpwardEquilibrium:
    """Strong-wind retraction at r_max in a 28 m/s wind, 1e-6 rad either side
    of the elevation beta where F_in at the ground needs lambda = 0: below it
    the set-point holds a small positive lambda; above it the set-point, and
    the solve at the factor found below, name their small negative lambda to
    3 significant figures, so it never prints as zero."""

    EDGE = {"gravity": 0.7073308584141111, "massless": 0.7529510076242502}
    NEGATIVE = {  # (set-point message, fixed-factor message)
        "gravity": (r"force 749 N at the ground: tangential velocity factor lambda = (\S+) < 0",
                    r"converged to a negative tangential velocity factor \((\S+)\)"),
        "massless": (r"tangential velocity factor is negative \((\S+)\)",) * 2,
    }

    @staticmethod
    def state(cfg, beta):
        """(theta, angles, C_L, C_D), m_t and (v_w, rho) at elevation beta."""
        op, kite = cfg.operation, cfg.kite
        m_t, C_D = tether_properties(op.r_max, cfg.tether, kite, kite.aero_retraction)
        flight = (0.5 * math.pi - beta, angle_trig(0.0, math.pi), kite.aero_retraction.C_L, C_D)
        return flight, m_t, (28.0, wind_state_at(op.r_max * math.sin(beta), cfg.environment).rho)

    def setpoint(self, cfg, mode, beta):
        flight, m_t, wind = self.state(cfg, beta)
        F_in, kite = cfg.operation.F_in, cfg.kite
        if mode == "gravity":
            return gravity_setpoint(F_in, cfg.operation.force_at, *flight, m_t, kite.m, kite.S,
                                    *wind)
        return massless_setpoint(F_in, *flight, kite.S, *wind)

    @staticmethod
    def assert_small_negative(exc, pattern):
        match = re.fullmatch(pattern, str(exc))
        assert match, str(exc)
        lam = match.group(1)
        assert -1e-5 < float(lam) < 0.0
        assert lam == f"{float(lam):.3g}"

    def test_setpoint_lambda_changes_sign(self, strong_config, mode):
        _, eq = self.setpoint(strong_config, mode, self.EDGE[mode] - 1e-6)
        assert 0.0 < eq.lam < 1e-5
        error = SetpointUnreachableError if mode == "gravity" else SteadyStateError
        with pytest.raises(error) as err:
            self.setpoint(strong_config, mode, self.EDGE[mode] + 1e-6)
        self.assert_small_negative(err.value, self.NEGATIVE[mode][0])

    def test_fixed_factor_above_the_edge(self, strong_config, mode):
        cfg = strong_config
        f, _ = self.setpoint(cfg, mode, self.EDGE[mode] - 1e-6)
        flight, m_t, wind = self.state(cfg, self.EDGE[mode] + 1e-6)
        with pytest.raises(SteadyStateError) as err:
            if mode == "gravity":
                solve_kinematic_ratio(f, *flight, m_t, cfg.kite.m, cfg.kite.S, *wind)
            else:
                massless_state(f, *flight, cfg.kite.S, *wind)
        self.assert_small_negative(err.value, self.NEGATIVE[mode][1])
