import copy
import math
import pickle

import pytest

from kitecycle import AeroSet, SweepSpec, load_config, preset_path, replace
from kitecycle.errors import ValidationError

CFG = load_config(preset_path("strong_wind"))

# Every checked class: a valid instance, one bad change and the message it raises.
CHECKED = {
    "Environment": (CFG.environment, {"z0": 7.0},
                    "requires z_ref > z0 > 0, both finite, got z_ref=6.0, z0=7.0"),
    "AeroSet": (AeroSet(C_L=0.8, LD_k=3.6), {"LD_k": -1.0},
                "aero set requires C_L > 0 and LD_k > 0 (finite), got "
                "AeroSet(C_L=0.8, LD_k=-1.0)"),
    "TetherParams": (CFG.tether, {"d_t": math.nan},
                     "tether parameters must be positive and finite, got "
                     "TetherParams(d_t=nan, rho_t=724.0, C_D_c=1.1)"),
    "KiteParams": (CFG.kite, {"m": -1.0}, "airborne mass must be >= 0 and finite, got -1.0"),
    "OperationSettings": (CFG.operation, {"dT": 2.0},
                          "nondimensional time step must be in [1e-05, 1], got 2.0"),
    "SweepSpec": (SweepSpec("operation.F_out", (3000.0, 3100.0)), {"objective": "P"},
                  "objective must be 'P_m' or 'zeta_m', got 'P'"),
}
cases = pytest.mark.parametrize("obj, bad, message", CHECKED.values(), ids=CHECKED.keys())


def fields_of(obj) -> dict:
    return {name: getattr(obj, name) for name in obj._fields}


@cases
def test_construction_and_replace_raise_the_same_message(obj, bad, message):
    with pytest.raises(ValidationError) as built:
        type(obj)(**{**fields_of(obj), **bad})
    with pytest.raises(ValidationError) as replaced:
        replace(obj, **bad)
    assert str(built.value) == str(replaced.value) == message
    with pytest.raises(TypeError):
        replace(obj, no_such_field=1.0)


@cases
def test_instances_are_immutable(obj, bad, message):
    name = obj._fields[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1.0


@cases
def test_equality_is_by_class_and_fields(obj, bad, message):
    same = replace(obj)
    assert same is not obj and same == obj and hash(same) == hash(obj)
    assert repr(same) == repr(obj)
    other = type("Other", (type(obj),), {"__slots__": ()})(**fields_of(obj))
    assert other != obj and obj != other
    assert obj != tuple(fields_of(obj).values())


@cases
def test_copies_and_pickles_equal_the_original(obj, bad, message):
    for copied in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert copied == obj and repr(copied) == repr(obj)
