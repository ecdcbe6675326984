import math

import numpy as np
import pytest

from kitecycle import Environment, WindState, angle_trig, massless_state, replace, wind_state_at
from kitecycle.errors import DomainError, ValidationError


STRONG = Environment(v_w_ref=9.9, z_ref=6.0, z0=0.07)
MODERATE = Environment(v_w_ref=5.9, z_ref=6.0, z0=0.07)


def test_reference_altitude_identity():
    assert wind_state_at(6.0, STRONG).v_w == pytest.approx(9.9, abs=1e-12)


def test_wind_at_mean_traction_altitude_strong():
    assert wind_state_at(252.0, STRONG).v_w == pytest.approx(18.2, abs=0.05)


def test_wind_at_mean_traction_altitude_moderate():
    assert wind_state_at(139.0, MODERATE).v_w == pytest.approx(10.1, abs=0.05)


def test_density_one_scale_height():
    assert wind_state_at(8550.0, STRONG).rho == pytest.approx(1.225 / math.e, rel=1e-12)


def test_dynamic_pressure_and_power_density_identities():
    ws = wind_state_at(321.0, STRONG)
    assert ws.P_w == 0.5 * ws.rho * ws.v_w**3
    assert ws.P_w / (0.5 * ws.rho * ws.v_w**2) == pytest.approx(ws.v_w, rel=1e-12)


def test_log_law_denominator_follows_replace():
    # The denominator is cached per instance; a replaced z0 or z_ref
    # gives the wind of a freshly built environment, and the cache is no
    # field: it stays out of equality, repr and replace().
    for changes in ({"z0": 0.3}, {"z_ref": 10.0}, {"v_w_ref": 7.0}):
        replaced = replace(STRONG, **changes)
        fresh = Environment(**{"v_w_ref": 9.9, "z_ref": 6.0, "z0": 0.07, **changes})
        assert replaced == fresh
        for z in (0.5, 6.0, 252.0):
            assert wind_state_at(z, replaced) == wind_state_at(z, fresh)
    rough = replace(STRONG, z0=0.3)
    assert wind_state_at(252.0, rough).v_w == 9.9 * math.log(252.0 / 0.3) / math.log(6.0 / 0.3)
    assert Environment._fields == ("v_w_ref", "z_ref", "z0", "rho0", "H_rho")
    assert repr(STRONG) == ("Environment(v_w_ref=9.9, z_ref=6.0, z0=0.07, rho0=1.225, "
                            "H_rho=8550.0)")


def test_monotonicity():
    rng = np.random.default_rng(42)
    for _ in range(200):
        z1, z2 = sorted(rng.uniform(0.07, 1000.0, size=2))
        if z1 == z2:
            continue
        w1, w2 = wind_state_at(z1, STRONG), wind_state_at(z2, STRONG)
        assert w2.v_w > w1.v_w
        assert w2.rho < w1.rho


def test_altitudes_between_roughness_and_reference_allowed():
    ws = wind_state_at(1.0, STRONG)
    assert 0.0 < ws.v_w < 9.9


def test_below_roughness_length_raises():
    with pytest.raises(DomainError):
        wind_state_at(0.05, STRONG)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(v_w_ref=9.9, z_ref=0.05, z0=0.07),  # z_ref <= z0
        dict(v_w_ref=9.9, z_ref=6.0, z0=0.0),
        dict(v_w_ref=-1.0, z_ref=6.0, z0=0.07),
        dict(v_w_ref=9.9, z_ref=6.0, z0=0.07, rho0=0.0),
        dict(v_w_ref=9.9, z_ref=6.0, z0=0.07, H_rho=-1.0),
    ],
)
def test_environment_invariants(kwargs):
    with pytest.raises(ValidationError):
        Environment(**kwargs)


def test_wind_state_rejects_nonphysical_inputs():
    # A wind state checks nothing itself; the equilibrium it enters does.
    for wind in (WindState(v_w=-1.0, rho=1.2), WindState(v_w=5.0, rho=0.0)):
        with pytest.raises(ValidationError) as info:
            massless_state(0.2, 0.6, angle_trig(0.0, 0.0), 0.7, 0.2, 10.2, *wind)
        assert str(info.value) == (f"wind state requires v_w >= 0 and rho > 0, "
                                   f"got v_w={wind.v_w}, rho={wind.rho}")
