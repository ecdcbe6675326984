import ast
import contextlib
import copy
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kitecycle
from kitecycle import cli, cycle, load_config, preset_path, segment_and_average
from kitecycle.atmosphere import bind_wind
from kitecycle.cli import run_command
from kitecycle.dataio import read_telemetry_csv, write_phase_averages
from kitecycle.estimation import TELEMETRY_COLUMNS, write_telemetry_csv


def read(path: Path) -> bytes:
    return Path(path).read_bytes()


def strong_raw() -> dict:
    """The strong_wind preset file, parsed."""
    return json.loads(preset_path("strong_wind").read_text())


def test_simulate_writes_summary_and_timeseries(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_command(["simulate", "--config", "strong_wind", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "cycle_summary.json").read_text())
    assert abs(summary["P_m"] / 7590.0 - 1.0) < 0.15
    assert (out / "timeseries.csv").exists()
    assert set(summary["phases"]) == {"retraction", "transition", "traction"}


def test_simulate_accepts_config_path_and_no_gravity(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(preset_path("strong_wind").read_text())
    out = tmp_path / "run"
    code = run_command(["simulate", "--config", str(cfg_path), "--no-gravity",
                        "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "cycle_summary.json").read_text())
    # The massless model yields less cycle power than the gravity model
    # for this configuration.
    assert summary["P_m"] < 7590.0


def test_validation_error_exit_code(tmp_path, capsys):
    long_r_min = strong_raw()
    long_r_min["operation"]["r_min"] = 5000.0
    # A string flag would be truthy and silently select the gravity model.
    string_gravity = {**strong_raw(), "gravity": "false"}
    for raw in (long_r_min, string_gravity):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = run_command(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "ValidationError" in capsys.readouterr().err


def test_non_finite_and_boolean_config_numbers_rejected(tmp_path, capsys):
    # Each used to load: the first three then failed as solver errors
    # (exit 3), the last silently ran a 1 kg kite.
    cases = (("environment", "v_w_ref", math.nan), ("tether", "C_D_c", math.nan),
             ("operation", "F_out", math.inf), ("kite", "m", True))
    for section, key, value in cases:
        raw = strong_raw()
        raw[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = run_command(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and f"{section}.{key}" in err


def test_config_kind_errors_rejected_at_parse(tmp_path, capsys):
    # A non-string out_dir used to raise TypeError and a non-string sweep
    # parameter AttributeError, both uncaught; num = 2.5 swept two points.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**strong_raw(), "out_dir": 5}))
    spec = tmp_path / "sweep.json"
    sweep = ["sweep", "--config", "strong_wind", "--spec", str(spec), "--out", str(tmp_path)]
    for argv, text, where in (
        (["simulate", "--config", str(bad)], None, "config.out_dir"),
        (sweep, {"parameter": 3, "values": [2000.0]}, "sweep.parameter"),
        (sweep, {"parameter": "operation.F_out", "range": {"start": 2e3, "stop": 3e3, "num": 2.5}},
         "sweep.range.num"),
    ):
        if text is not None:
            spec.write_text(json.dumps(text))
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ParseError") and where in err, err


def test_oversized_and_undecodable_configs_rejected_at_parse(tmp_path, capsys):
    # Each used to escape run_command: OverflowError for an integer beyond
    # the float range, ValueError for one beyond Python's digit limit and
    # UnicodeDecodeError for a file that is not UTF-8.
    huge = strong_raw()
    huge["kite"]["m"] = 10**400
    bad = tmp_path / "bad.json"
    for content, where in ((json.dumps(huge).encode(), "kite.m"),
                           (b'{"kite": ' + b"1" * 5000 + b"}", "digits"),
                           (b"\xff{}", "utf-8")):
        bad.write_bytes(content)
        assert run_command(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ParseError") and where in err, err


@pytest.mark.parametrize("kind", ["config", "sweep spec"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, kind):
    # json.loads used to raise RecursionError out of run_command (exit 1).
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    argv = (["simulate", "--config", str(bad)] if kind == "config" else
            ["sweep", "--config", "strong_wind", "--spec", str(bad)])
    assert run_command([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"ParseError: {bad}: nested too deep")


@pytest.mark.parametrize("key,first,second", [("dT", "0.5", "0.01"),
                                              ("gravity", "false", "true")])
def test_duplicated_config_key_exits_2(tmp_path, capsys, key, first, second):
    # The last value used to win silently: a doubled dT ran at 0.01 and exited 0.
    text = preset_path("strong_wind").read_text()
    assert f'"{key}": {second}' in text
    bad = tmp_path / "doubled.json"
    bad.write_text(text.replace(f'"{key}": {second}', f'"{key}": {first}, "{key}": {second}'))
    assert run_command(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"ParseError: {bad}: duplicate key '{key}'")
    assert not (tmp_path / "o").exists()


# Values of every JSON kind; each fuzzed leaf draws one of another kind.
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([0.5, 2.5, math.nan, math.inf, -math.inf]), st.text(max_size=3),
    st.lists(st.one_of(st.integers(0, 3), st.text(max_size=1)), max_size=2),
    st.dictionaries(st.sampled_from(["C_L", "a"]), st.integers(0, 3), max_size=1),
)


def is_kind(value, kind):
    number = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    return {"number": number, "whole": number and float(value).is_integer(),
            "bool": isinstance(value, bool), "string": isinstance(value, str),
            "numbers": isinstance(value, list) and all(is_kind(v, "number") for v in value),
            }[kind]


def leaves(node, path=()):
    """(path, kind) of every scalar of a parsed config."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    else:
        yield path, {bool: "bool", str: "string"}.get(type(node), "number")


PRESET = {**strong_raw(), "out_dir": "out"}
VALUES_SPEC = {"parameter": "operation.F_out", "values": [2000.0, 3008.0], "objective": "P_m"}
RANGE_SPEC = {"parameter": "operation.F_out", "range": {"start": 2e3, "stop": 3e3, "num": 3}}
FUZZED = ([("config", PRESET, path, kind) for path, kind in leaves(PRESET)]
          + [("sweep", VALUES_SPEC, ("parameter",), "string"),
             ("sweep", VALUES_SPEC, ("values",), "numbers"),
             ("sweep", VALUES_SPEC, ("values", 1), "number"),
             ("sweep", VALUES_SPEC, ("objective",), "string")]
          + [("sweep", RANGE_SPEC, ("range", key), kind)
             for key, kind in (("start", "number"), ("stop", "number"), ("num", "whole"))])


def no_simulation(*args, **kwargs):
    raise AssertionError("a malformed input reached a simulation")


@contextlib.contextmanager
def simulations_forbidden():
    """Both bindings a command calls ``simulate_cycle`` through raise:
    ``simulate`` calls ``cli``'s, ``sweep`` and ``convergence`` the runner's
    in ``cycle``."""
    with mock.patch.object(cli, "simulate_cycle", no_simulation), \
            mock.patch.object(cycle, "simulate_cycle", no_simulation):
        yield


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(leaf=st.sampled_from(FUZZED), data=st.data())
def test_config_fuzzing_exits_2_before_simulating(tmp_path_factory, leaf, data):
    # One leaf of the strong_wind preset (with out_dir) or of a sweep spec
    # takes a value of the wrong kind: run_command must exit 2 at parse
    # time, raising nothing and running no cycle.
    command, base, path, kind = leaf
    value = data.draw(JSON_VALUES.filter(lambda v: not is_kind(v, kind)), label="value")
    raw = copy.deepcopy(base)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    config, spec = work / "config.json", work / "sweep.json"
    if command == "config":
        config.write_text(json.dumps(raw))
        argv = ["simulate", "--config", str(config)]
    else:
        config.write_text(json.dumps({**PRESET, "out_dir": str(work / "out")}))
        spec.write_text(json.dumps(raw))
        argv = ["sweep", "--config", str(config), "--spec", str(spec)]
    with simulations_forbidden():
        assert run_command(argv) == 2


def test_parse_error_exit_code(tmp_path, capsys):
    raw = strong_raw()
    raw["unexpected"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code = run_command(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "ParseError" in capsys.readouterr().err


def test_solver_error_exit_code(tmp_path, capsys):
    raw = strong_raw()
    raw["operation"]["F_in"] = 1.0e8
    raw["operation"]["F_out"] = 2.0e8
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code = run_command(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "Error" in err


def test_unreachable_set_point_message_is_short(tmp_path, capsys):
    # A set-point and its reeling factor are printed to six significant
    # figures, not spelt out.  The massless inversion has the gravity
    # inversion's bound f >= -3; without it the traction phase reeled in
    # at f = -8e97 and failed later, in the wind law.
    for F_out, flags, message in (
            (1e200, [], "force 1e+200 N at the ground: its square overflows"),
            (1e100, [], "force 1e+100 N at the ground: f = -8.1021e+47 is below -3.0"),
            (1e200, ["--no-gravity"], "force 1e+200 N: f = -8.1021e+97 is below -3.0")):
        raw = strong_raw()
        raw["operation"]["F_out"] = F_out
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert run_command(["simulate", "--config", str(bad), "--out", str(tmp_path / "o"),
                            *flags]) == 3
        err = capsys.readouterr().err
        assert err.startswith("SetpointUnreachableError: traction at t = "), err
        assert err.endswith(f"deg: {message}\n"), err
        assert all(len(line) < 200 for line in err.splitlines())


def test_unknown_arguments_exit_code(capsys):
    assert run_command(["simulate"]) == 2
    assert run_command(["explode", "--config", "strong_wind"]) == 2


def test_malformed_dt_list_exit_code(tmp_path, capsys):
    # Used to escape as an uncaught ValueError.
    code = run_command(["convergence", "--config", "strong_wind", "--dt-list", "0.01", "abc",
                        "--out", str(tmp_path / "o")])
    assert code == 2
    assert "invalid float value: 'abc'" in capsys.readouterr().err


def test_time_step_below_the_floor_exits_2_before_simulating(tmp_path, capsys):
    raw = strong_raw()
    raw["operation"]["dT"] = 1e-300
    config, out = tmp_path / "cfg.json", tmp_path / "o"
    config.write_text(json.dumps(raw))
    message = "ValidationError: nondimensional time step must be in [1e-05, 1], got 1e-300"
    with simulations_forbidden():
        for argv in (["simulate", "--config", str(config)],
                     ["convergence", "--config", "strong_wind", "--dt-list", "0.01", "1e-300"]):
            assert run_command([*argv, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_output_directory_that_is_a_file_exit_code(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_command(["simulate", "--config", "strong_wind", "--out", str(taken)]) == 2
    assert "FileExistsError" in capsys.readouterr().err


def test_telemetry_out_in_missing_directory_exit_code(tmp_path, capsys):
    code = run_command(["simulate", "--config", "strong_wind", "--out", str(tmp_path / "o"),
                        "--telemetry-out", str(tmp_path / "no_such_dir" / "t.csv")])
    assert code == 2
    assert "FileNotFoundError" in capsys.readouterr().err
    # The export is written first, so its failure leaves no partial outputs.
    assert list((tmp_path / "o").iterdir()) == []


@pytest.mark.parametrize("section,key,value,flags,message", [
    # d_t**2 used to raise OverflowError in TetherParams.mass.
    ("tether", "d_t", 1e200, [], "tether mass per metre must be finite"),
    ("tether", "d_t", 1e200, ["--no-gravity"], "tether mass per metre must be finite"),
    # C_D overflowed to inf, so log(LD) used to raise ValueError.
    ("kite", "S", 1e-320, [], "effective coefficients must be finite"),
    # z_ref/z0 overflowed to inf, so every wind speed was NaN.
    ("environment", "z0", 5e-324, [], "log(z_ref/z0) must be finite and > 0, got z_ref=6.0, "
                                      "z0=5e-324"),
    ("environment", "z0", 5e-324, ["--no-gravity"], "log(z_ref/z0) must be finite and > 0, "
                                                    "got z_ref=6.0, z0=5e-324"),
])
def test_finite_config_values_beyond_the_model_exit_2(tmp_path, capsys, section, key, value,
                                                       flags, message):
    raw = strong_raw()
    raw[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code = run_command(["simulate", "--config", str(bad), "--out", str(tmp_path / "o"), *flags])
    assert code == 2
    # A step kernel's error names the phase and state; the others fail at load.
    where = "retraction at t = 0 s, r = 720 m, beta = 27 deg: " if section == "kite" else ""
    assert f"ValidationError: {where}{message}" in capsys.readouterr().err


def test_a_json_integer_is_checked_as_its_float(tmp_path, capsys):
    # d_t as the JSON integer 10**200 used to reach TetherParams.mass as an
    # int, whose float() raised OverflowError: a traceback and exit 1.
    for value in (10**200, 1e200):
        raw = strong_raw()
        raw["tether"]["d_t"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = run_command(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert ("ValidationError: tether mass per metre must be finite"
                in capsys.readouterr().err), value


def test_every_config_number_as_a_huge_json_integer_ends_in_an_exit_code(tmp_path, capsys):
    # The same run from the float 1e200 reads the same exit code and error.
    def leaves(node):
        for key, value in node.items():
            if isinstance(value, dict):
                yield from leaves(value)
            elif isinstance(value, float):
                yield node, key

    raw = strong_raw()
    found = list(leaves(raw))
    assert len(found) == 20
    for node, key in found:
        kept, ends = node[key], []
        for value in (10**200, 1e200):
            node[key] = value
            path = tmp_path / "big.json"
            path.write_text(json.dumps(raw))
            ends.append((run_command(["simulate", "--config", str(path),
                                      "--out", str(tmp_path / key)]),
                         capsys.readouterr().err))
        node[key] = kept
        assert ends[0] == ends[1] and ends[0][0] in (0, 2, 3), (key, ends)


@pytest.mark.parametrize("flags", [[], ["--no-gravity"]], ids=["gravity", "massless"])
@pytest.mark.parametrize("v_w_ref", [1e-300, 5e-324, 1e300])
def test_reference_wind_beyond_the_float_range_exits_3(tmp_path, capsys, v_w_ref, flags):
    # q*S*C_R underflows to 0, or v_w**2 overflows: the first step used to
    # raise ZeroDivisionError or OverflowError, a traceback and exit 1.
    raw = strong_raw()
    raw["environment"]["v_w_ref"] = v_w_ref
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code = run_command(["simulate", "--config", str(bad), "--out", str(tmp_path / "o"), *flags])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("SteadyStateError: retraction at t = 0 s, r = 720 m"), err
    assert " m/s is beyond float arithmetic: " in err, err


@pytest.mark.parametrize("v_w_ref, expected", [(1e-110, 3), (1e-108, 3), (1e-100, 0)])
def test_wind_power_density_that_underflows_exits_3(tmp_path, capsys, v_w_ref, expected):
    # With the forces scaled by the wind's square every massless step
    # solves, but the wind power density at z_mt underflows: to 0 at 1e-110,
    # which raised ZeroDivisionError, a traceback and exit 1; to a subnormal
    # at 1e-108, which wrote zeta_m = 0.1 from P_m = 5e-324.
    raw = strong_raw()
    raw["environment"]["v_w_ref"] = v_w_ref
    for key in ("F_out", "F_in"):
        raw["operation"][key] *= (v_w_ref / 9.9) ** 2
    weak = tmp_path / "weak.json"
    weak.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert run_command(["simulate", "--config", str(weak), "--out", str(out),
                        "--no-gravity"]) == expected
    if expected == 3:
        err = capsys.readouterr().err
        assert err.startswith("SteadyStateError: wind speed "), err
        assert " m/s at z_mt = 251.965 m is beyond float arithmetic: " in err, err
        assert not out.exists()
        return
    assert run_command(["simulate", "--config", "strong_wind", "--out", str(tmp_path / "ref"),
                        "--no-gravity"]) == 0
    zeta_m, reference = (json.loads((path / "cycle_summary.json").read_text())["zeta_m"]
                         for path in (out, tmp_path / "ref"))
    assert zeta_m == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_simulate_prints_its_summary_in_six_significant_digits(tmp_path, capsys):
    # At a tiny wind the line used to print P_m as 0.0 and the duration with
    # all 104 of its digits before the point.
    raw = strong_raw()
    raw["environment"]["v_w_ref"] = 1e-100
    for key in ("F_out", "F_in"):
        raw["operation"][key] *= (1e-100 / 9.9) ** 2
    weak = tmp_path / "weak.json"
    weak.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert run_command(["simulate", "--config", str(weak), "--out", str(out), "--no-gravity"]) == 0
    summary = json.loads((out / "cycle_summary.json").read_text())
    line = capsys.readouterr().out
    assert line == (f"P_m = {summary['P_m']:.6g} W over {summary['duration']:.6g} s "
                    f"(zeta_m = {summary['zeta_m']:.4f}); outputs in {out}\n")
    assert line.startswith("P_m = 4.66401e-300 W over 1.63684e+103 s "), line


def test_lift_to_drag_ratio_that_underflows_exits_2(tmp_path, capsys):
    # A tiny C_L over a tether drag of 1e300 gives C_L/C_D = 0, whose log
    # raised ValueError, a traceback and exit 1, with gravity.  The error
    # names the phase and state, as a solver error does.
    raw = strong_raw()
    raw["kite"]["aero_retraction"]["C_L"] = 5e-324
    raw["tether"]["C_D_c"] = 1e300
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run_command(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("ValidationError: retraction at t = 0 s, r = 720 m, "
                                       "beta = 27 deg: effective lift-to-drag ratio must be "
                                       "finite and > 0, got 0.0\n")


# Steps a stalled strong_wind cycle takes before it ends; measured 1072-1126.
STALLED_STEPS = 1_500


@pytest.mark.parametrize("key,value", [("v_w_ref", 5.5), ("v_w_ref", 5.7), ("z_ref", 180.0),
                                       ("z0", 1e-300)])
def test_run_that_never_ends_exits_3(tmp_path, capsys, monkeypatch, key, value):
    # Traction nears a tether length short of r_max at which F_out holds
    # with f falling to 0 but staying positive: the tether length kept
    # increasing, ever more slowly, and the run never ended.  Each step
    # looks up the wind once; a run past the bound fails instead of hanging.
    steps = []
    bind_wind = cycle.bind_wind

    def counted_binder(env):
        wind_at = bind_wind(env)

        def counted(z):
            steps.append(z)
            assert len(steps) <= STALLED_STEPS, "the run did not end"
            return wind_at(z)
        return counted

    monkeypatch.setattr(cycle, "bind_wind", counted_binder)
    raw = strong_raw()
    raw["environment"][key] = value
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    assert run_command(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("PhaseError: traction at t = "), err
    assert "tether length failed to increase for 1001 consecutive steps: at " in err, err
    assert " the end 720 m is more than " in err, err


# Finite config numbers at the edges of the float range.
EXTREMES = (1e-300, 5e-324, 1e300)
NUMBER_LEAVES = [path for path, kind in leaves(strong_raw()) if kind == "number"]
MARK = "\x00mark"


def key_paths(node, path=()):
    """The path of every key of a parsed JSON object, at any depth."""
    for key, value in node.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, path + (key,))


def restructured(raw, path, how):
    """``raw`` as JSON text, with the key at ``path`` dropped, written twice,
    its value wrapped in a list, or nested under itself 100 000 deep."""
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node[key]
    if how == "drop":
        del node[path[-1]]
        return json.dumps(raw)
    key, value = json.dumps(path[-1]), json.dumps(node[path[-1]])
    node[path[-1]] = MARK
    fragment = {"duplicate": f"{value}, {key}: {value}", "list": f"[{value}]",
                "nest": f"{{{key}: " * 100_000 + value + "}" * 100_000}[how]
    return json.dumps(raw).replace(json.dumps(MARK), fragment)


# A key of the preset or of a sweep spec (None), and the change to its structure.
STRUCTURES = st.tuples(
    st.sampled_from([(None, path) for path in key_paths(strong_raw())]
                    + [(spec, path) for spec in (VALUES_SPEC, RANGE_SPEC)
                       for path in key_paths(spec)]),
    st.sampled_from(["drop", "duplicate", "list", "nest"]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(preset=st.sampled_from(["strong_wind", "moderate_wind"]), gravity=st.booleans(),
       changes=st.dictionaries(st.sampled_from(NUMBER_LEAVES), st.sampled_from(EXTREMES),
                               max_size=3),
       structure=st.none() | STRUCTURES)
def test_simulate_ends_with_a_definite_exit_code(tmp_path_factory, preset, gravity, changes,
                                                 structure):
    # Each config number is its preset value or a float-range extreme, and
    # one key of the config, or of a sweep spec, may change its structure:
    # a simulate or sweep run exits 0, 2 or 3 and raises nothing.
    raw = {**json.loads(preset_path(preset).read_text()), "gravity": gravity}
    for (section, *rest), value in changes.items():
        node = raw[section]
        for key in rest[:-1]:
            node = node[key]
        node[rest[-1]] = value
    work = tmp_path_factory.getbasetemp() / "extremes"
    work.mkdir(exist_ok=True)
    config, spec = work / "config.json", work / "sweep.json"
    config.write_text(json.dumps(raw))
    argv = ["simulate", "--config", str(config)]
    if structure is not None:
        (sweep, path), how = structure
        if sweep is None:
            config.write_text(restructured(raw, path, how))
        else:
            spec.write_text(restructured(sweep, path, how))
            argv = ["sweep", "--config", str(config), "--spec", str(spec)]
    assert run_command([*argv, "--out", str(work / "o")]) in (0, 2, 3)


@pytest.mark.parametrize("field", ["F_tg", "r"])
def test_overflowing_telemetry_sample_is_invalid(tmp_path, strong_telemetry, field):
    # F_tg**2 or the sag term used to raise OverflowError; the sample now
    # fails the sag radicand, and the other samples are unchanged.
    clean, bad = tmp_path / "clean.csv", tmp_path / "bad.csv"
    write_telemetry_csv(clean, strong_telemetry)
    series = list(strong_telemetry)
    series[100] = series[100]._replace(**{field: 1e308})
    write_telemetry_csv(bad, series)
    for log in (clean, bad):
        assert run_command(["estimate", "--config", "strong_wind", "--log", str(log),
                            "--out", str(tmp_path / log.stem)]) == 0
    rows = {name: (tmp_path / name / "estimates.csv").read_text().splitlines()
            for name in ("clean", "bad")}
    t, phase, C_R, LD_sys, LD_k, *_, valid = rows["bad"][101].split(",")
    assert (C_R, LD_sys, LD_k, valid) == ("nan", "nan", "nan", "0")
    assert rows["bad"][:101] + rows["bad"][102:] == rows["clean"][:101] + rows["clean"][102:]


def not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("case", ["infinite_apparent_wind", "ratio_too_large_to_square"])
def test_kite_velocity_too_large_to_square_is_invalid(tmp_path, strong_config, strong_telemetry,
                                                      case):
    # A kite velocity whose apparent wind overflows to inf used to pass as a
    # valid sample with NaN ratios, and NaN averages in phase_averages.json;
    # one whose apparent wind over the wind's radial share cannot be squared
    # used to raise OverflowError.  Both are invalid samples.
    cfg, series = strong_config, list(strong_telemetry)
    if case == "infinite_apparent_wind":
        rows = [i for i, rec in enumerate(series) if rec.phase == "retraction"][10:20]
        for i in rows:
            series[i] = series[i]._replace(vk_x=1e200)
    else:
        rows = [next(i for i, rec in enumerate(series) if rec.phase == "traction")]
        rec = series[rows[0]]
        # The angles as the reader gives them back, where b_f is 1e-9.
        theta, phi = (math.radians(float(f"{math.degrees(a)!s}")) for a in (rec.theta, rec.phi))
        v_w = bind_wind(cfg.environment)(rec.r * math.cos(theta), rec.v_w_ref)[0]
        series[rows[0]] = rec._replace(vk_x=1e150, vk_y=0.0, vk_z=0.0,
                                       v_t=v_w * (math.sin(theta) * math.cos(phi) - 1e-9))
    log, out = tmp_path / "telemetry.csv", tmp_path / "out"
    write_telemetry_csv(log, series)
    assert run_command(["estimate", "--config", "strong_wind", "--log", str(log),
                        "--out", str(out)]) == 0
    averages = json.loads((out / "phase_averages.json").read_text(), parse_constant=not_json)
    assert all(math.isfinite(averages[name]) for name in ("C_R_o", "C_R_i", "LD_k_o", "LD_k_i"))
    estimates = (out / "estimates.csv").read_text().splitlines()
    for i in rows:
        *_, kappa, _, valid = estimates[i + 1].split(",")
        assert (kappa, valid) == ("nan", "0")
    phase = series[rows[0]].phase
    clean = segment_and_average(strong_telemetry, cfg.kite, cfg.tether, cfg.environment).counts
    assert averages["samples"][phase]["invalid"] == clean[phase]["invalid"] + len(rows)


@pytest.mark.parametrize("case", ["density_underflow", "ratio_underflow"])
def test_underflowing_divisor_is_an_invalid_sample(tmp_path, strong_config, strong_telemetry,
                                                   case):
    # A sample 10^4 km up, where the air density underflows to 0, or one
    # whose wind's radial share underflows to 0 used to raise
    # ZeroDivisionError out of the command.  Both are invalid samples.
    series = list(strong_telemetry)
    i = next(i for i, rec in enumerate(series) if rec.phase == "traction")
    if case == "density_underflow":
        series[i] = series[i]._replace(F_tg=3000.0, r=1e7, theta=0.0, phi=0.0, chi=1.0,
                                       vk_x=-20.0, vk_y=0.0, vk_z=0.0, v_t=-5.0, v_w_ref=10.0)
    else:
        series[i] = series[i]._replace(F_tg=3000.0, r=0.0700000001, theta=1e-300, phi=0.0,
                                       chi=1.0, vk_x=-20.0, vk_y=0.0, vk_z=0.0, v_t=0.0,
                                       v_w_ref=1e-20)
    log, out = tmp_path / "telemetry.csv", tmp_path / "out"
    write_telemetry_csv(log, series)
    assert run_command(["estimate", "--config", "strong_wind", "--log", str(log),
                        "--out", str(out)]) == 0
    averages = json.loads((out / "phase_averages.json").read_text(), parse_constant=not_json)
    assert all(math.isfinite(averages[name]) for name in ("C_R_o", "C_R_i", "LD_k_o", "LD_k_i"))
    t, phase, C_R, *_, valid = (out / "estimates.csv").read_text().splitlines()[i + 1].split(",")
    assert (C_R, valid) == ("nan", "0")
    cfg = strong_config
    clean = segment_and_average(strong_telemetry, cfg.kite, cfg.tether, cfg.environment).counts
    assert averages["samples"]["traction"]["invalid"] == clean["traction"]["invalid"] + 1


def test_failed_sweep_point_names_its_value(tmp_path, capsys):
    # An invalid point is a ValidationError (exit 2), a failed solve
    # keeps its solver class (exit 3); both name the parameter value.
    spec = tmp_path / "sweep.json"
    for parameter, values, code, prefix in (
            ("operation.F_in", [1.0e8], 2, "ValidationError: operation.F_in = 100000000.0: "),
            ("operation.F_out", [2.0e8], 3,
             "SetpointUnreachableError: operation.F_out = 200000000.0: traction at t = "),
            # The point that fails after a feasible one: not the one before it.
            ("operation.F_out", [3008.0, 2.0e8], 3,
             "SetpointUnreachableError: operation.F_out = 200000000.0: traction at t = ")):
        spec.write_text(json.dumps({"parameter": parameter, "values": values}))
        assert run_command(["sweep", "--config", "strong_wind", "--spec", str(spec),
                            "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("preset,flags,message", [
    ("strong_wind", [], r"PhaseError: traction at t = 231\.583 s, r = -2\.33604 m, .*: tether "
                        r"length fell to zero, from a reeling factor of -0\.291 at the phase "
                        r"start"),
    ("strong_wind", ["--no-gravity"], r"PhaseError: traction at t = 294\.016 s, r = -1\.53215 "
                                      r"m, .*: tether length fell to zero, from a reeling factor "
                                      r"of -0\.222 at the phase start"),
    # The moderate preset's traction ends before the tether length reaches
    # zero: with gravity at r = 7.7 mm, whose altitude is below the roughness
    # length, a PhaseError from the wind law's DomainError, and without it in
    # a stall.
    ("moderate_wind", [], r"PhaseError: traction at t = 325\.748 s, r = 0\.00772574 m, .*: "
                          r"altitude .* is below the roughness length .*, from a reeling "
                          r"factor of -0\.072 at the phase start"),
    ("moderate_wind", ["--no-gravity"], r"PhaseError: traction at t = 428\.047 s, .*: tether "
                                        r"length failed to increase for 1001 consecutive steps"),
], ids=["strong-gravity", "strong-massless", "moderate-gravity", "moderate-massless"])
def test_traction_that_reels_in_at_low_wind_names_why_it_ends(tmp_path, capsys, preset, flags,
                                                              message):
    # At 4 m/s traction's force set-point reels in from its first step.  A
    # step that takes the tether length to r <= 0 is a PhaseError: the wind
    # law's DomainError, at a negative altitude, used to end the run.
    raw = json.loads(preset_path(preset).read_text())
    raw["environment"]["v_w_ref"] = 4.0
    config = tmp_path / "low_wind.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "o"
    assert run_command(["simulate", "--config", str(config), "--out", str(out), *flags]) == 3
    err = capsys.readouterr().err
    assert re.match(message, err), err
    assert not out.exists()


@pytest.mark.parametrize("spec,message", [
    # Each of the first five used to raise a TypeError or resolve a field
    # of the parsed objects; the range used to sweep NaN masses (exit 3).
    ({"parameter": "kite.m.real", "values": [1.0]},
     "ValidationError: kite.m.real = 1.0: cannot set 'kite.m.real'"),
    ({"parameter": "operation.theta_o", "values": [1.0]},
     "ParseError: operation.theta_o = 1.0: operation: unknown key(s) ['theta_o']"),
    ({"parameter": "kite.aero_traction.C_D_k", "values": [0.2]},
     "ParseError: kite.aero_traction.C_D_k = 0.2: kite.aero_traction: unknown key(s)"),
    ({"parameter": "environment._log_z_ref", "values": [1.0]},
     "ParseError: environment._log_z_ref = 1.0: environment: unknown key(s)"),
    ({"parameter": "operation.beta_o", "values": [0.5]},
     "ParseError: operation.beta_o = 0.5: operation: unknown key(s) ['beta_o']"),
    ({"parameter": "kite.m", "range": {"start": 1e308, "stop": -1e308, "num": 2}},
     "ParseError: sweep.range: "),
    # More points than the limit; 1e300 used to build values until memory ran out.
    ({"parameter": "kite.m", "range": {"start": 1, "stop": 2, "num": 1e300}},
     "ParseError: sweep.range.num: 1e+300 exceeds the limit of 10000"),
    ({"parameter": "kite.m", "values": [1.0] * 10_001},
     "ParseError: sweep.values: more than the limit of 10000 points"),
    # A step this small used to integrate until memory ran out.
    ({"parameter": "operation.dT", "values": [1e-300]},
     "ValidationError: operation.dT = 1e-300: nondimensional time step must be in [1e-05, 1]"),
    # A bad last point used to exit 2 only after the points before it had run.
    ({"parameter": "operation.dT", "values": [0.01, 0.01, 1e-300]},
     "ValidationError: operation.dT = 1e-300: nondimensional time step must be in [1e-05, 1]"),
])
def test_bad_sweep_parameter_exits_2_before_simulating(tmp_path, capsys, spec, message):
    path, out = tmp_path / "sweep.json", tmp_path / "o"
    path.write_text(json.dumps(spec))
    with simulations_forbidden():
        assert run_command(["sweep", "--config", "strong_wind", "--spec", str(path),
                            "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_sweep_holds_one_cycle_at_a_time(tmp_path):
    # A sweep keeps each point's P_m and zeta_m, not its step series; it used
    # to hold one point's cycle while the next one ran.
    def peak(points, dT=5e-4):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"parameter": "operation.dT", "values": [dT] * points}))
        tracemalloc.start()
        try:
            assert run_command(["sweep", "--config", "strong_wind", "--spec", str(spec),
                                "--no-gravity", "--out", str(tmp_path / "o")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    peak(1, dT=0.05)  # the first command also builds what later ones reuse, such as the parser
    one = peak(1)
    assert peak(3) < 1.5 * one


def test_sweep_parameter_is_a_file_key_in_file_units(tmp_path):
    # A sweep point runs the cycle of the file with its value written in:
    # operation.beta_deg in degrees, with --no-gravity applied as well.
    raw = strong_raw()
    raw["operation"]["beta_deg"] = 30.0
    config, spec = tmp_path / "cfg.json", tmp_path / "sweep.json"
    config.write_text(json.dumps(raw))
    spec.write_text(json.dumps({"parameter": "operation.beta_deg", "values": [30.0]}))
    assert run_command(["simulate", "--config", str(config), "--no-gravity",
                        "--out", str(tmp_path / "sim")]) == 0
    assert run_command(["sweep", "--config", "strong_wind", "--spec", str(spec),
                        "--no-gravity", "--out", str(tmp_path / "sweep")]) == 0
    summary = json.loads((tmp_path / "sim" / "cycle_summary.json").read_text())
    row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1].split(",")
    assert [float(x) for x in row] == [30.0, summary["P_m"], summary["zeta_m"]]


def test_cli_module_runs_from_a_checkout(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "kitecycle.cli", "simulate", "--out", str(tmp_path / "o")]
    done = subprocess.run(argv + ["--config", "strong_wind"], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "o" / "cycle_summary.json").exists()
    assert (tmp_path / "o" / "timeseries.csv").exists()
    done = subprocess.run(argv + ["--config", "no_such_preset"], env=env, capture_output=True)
    assert done.returncode == 2
    # A process that has not loaded the estimator exports a log, and another
    # estimates from it: each command imports what it runs.
    log = tmp_path / "telemetry.csv"
    done = subprocess.run(argv + ["--config", "strong_wind", "--telemetry-out", str(log)],
                          env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    done = subprocess.run([sys.executable, "-m", "kitecycle.cli", "estimate", "--config",
                           "strong_wind", "--log", str(log), "--out", str(tmp_path / "e")],
                          env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "e" / "estimates.csv").exists()


def test_main_exits_with_the_command_code(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing.json"
    monkeypatch.setattr(sys, "argv", ["kitecycle", "simulate", "--config", str(missing),
                                      "--out", str(tmp_path / "o")])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith(f"ParseError: {missing}: ")
    assert not (tmp_path / "o").exists()


def test_missing_telemetry_file_exit_code(tmp_path, capsys):
    code = run_command(["estimate", "--config", "strong_wind",
                        "--log", str(tmp_path / "nope.csv"),
                        "--out", str(tmp_path / "o")])
    assert code == 2
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["estimate", "--log", "nope.csv"],
    ["sweep", "--spec", "spec.json"],
])
def test_input_that_fails_to_parse_leaves_no_output_directory(tmp_path, capsys, command):
    (tmp_path / "spec.json").write_text('{"parameter": "operation.F_out", "values": [')
    command = [str(tmp_path / arg) if arg.endswith((".csv", ".json")) else arg
               for arg in command]
    out = tmp_path / "o"
    assert run_command(command + ["--config", "strong_wind", "--out", str(out)]) == 2
    assert "ParseError" in capsys.readouterr().err
    assert not out.exists()


def test_header_only_telemetry_exit_code(tmp_path, capsys):
    log = tmp_path / "empty.csv"
    log.write_text(",".join(TELEMETRY_COLUMNS) + "\n")
    code = run_command(["estimate", "--config", "strong_wind", "--log", str(log),
                        "--out", str(tmp_path / "o")])
    assert code == 2
    assert "ValidationError" in capsys.readouterr().err
    # A failed estimate writes no outputs.
    assert not (tmp_path / "o" / "estimates.csv").exists()


# One valid telemetry row, as text.
TELEMETRY_ROW = {"t": "0.0", "F_tg": "3000.0", "r": "400.0", "theta_deg": "60.0",
                 "phi_deg": "10.0", "chi_deg": "100.0", "vk_x": "-10.0", "vk_y": "20.0",
                 "vk_z": "5.0", "v_t": "2.0", "v_w_ref": "9.0", "phase": "traction"}


def test_non_finite_telemetry_rejected_at_parse(tmp_path, capsys):
    row = TELEMETRY_ROW
    for column, value in (("F_tg", "nan"), ("v_w_ref", "inf"), ("chi_deg", "-inf")):
        bad = {**row, "t": "0.1", column: value}
        log = tmp_path / "bad.csv"
        log.write_text("\n".join(",".join(r[c] for c in TELEMETRY_COLUMNS)
                                  for r in ({c: c for c in TELEMETRY_COLUMNS}, row, bad)) + "\n")
        code = run_command(["estimate", "--config", "strong_wind", "--log", str(log),
                            "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and "line 3" in err and column in err
    assert not (tmp_path / "o" / "estimates.csv").exists()


def test_invalid_telemetry_record_names_file_and_line(tmp_path, capsys):
    row = TELEMETRY_ROW
    for column, value, message in (("F_tg", "-5.0", "ground tether force"),
                                   ("r", "0.0", "tether length")):
        bad = {**row, "t": "0.1", column: value}
        log = tmp_path / "bad.csv"
        log.write_text("\n".join(",".join(r[c] for c in TELEMETRY_COLUMNS)
                                  for r in ({c: c for c in TELEMETRY_COLUMNS}, row, bad)) + "\n")
        code = run_command(["estimate", "--config", "strong_wind", "--log", str(log),
                            "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"ValidationError: {log}: line 3: {message}" in err


def test_telemetry_errors_name_the_file_line(tmp_path, capsys):
    # The blank line is file line 3, so the bad row is file line 4.
    header, row = ",".join(TELEMETRY_COLUMNS), ",".join(TELEMETRY_ROW.values())
    for column, value, error in (("F_tg", "nan", "ParseError: {log}: line 4: column F_tg"),
                                 ("F_tg", "-5.0", "ValidationError: {log}: line 4: ground"),
                                 ("r", "abc", "ParseError: {log}: line 4: column r")):
        bad = ",".join({**TELEMETRY_ROW, "t": "0.1", column: value}.values())
        log = tmp_path / "bad.csv"
        log.write_text(f"{header}\n{row}\n\n{bad}\n")
        code = run_command(["estimate", "--config", "strong_wind", "--log", str(log),
                            "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert error.format(log=log) in err, err


LONG = 100_000  # characters of an input that an error message would echo


def long_config(tmp_path, case):
    """The strong preset with one value made long, and the key its error names."""
    raw = strong_raw()
    if case == "integer 10**309":
        raw["kite"]["m"], key = 10**309, "kite.m"
    elif case == "integer 10**4000":
        raw["kite"]["m"], key = 10**4000, "kite.m"
    elif case == "string":
        raw["kite"]["S"], key = "x" * LONG, "kite.S"
    elif case == "unknown key":
        raw["kite"]["x" * LONG], key = 1.0, "kite: unknown key(s)"
    elif case == "repeated key":  # written into the text below: a dict holds a key once
        key = "duplicate key"
    else:  # a list where a string belongs
        raw["out_dir"], key = [0] * LONG, "config.out_dir"
    text = json.dumps(raw)
    if case == "repeated key":
        repeated = json.dumps("x" * LONG)
        text = f"{text[:-1]}, {repeated}: 1, {repeated}: 2}}"
    path = tmp_path / "long.json"
    path.write_text(text)
    return path, key


def long_sweep(tmp_path, case):
    """A sweep spec with one long value, and what its error names."""
    spec, names = {
        "objective": ({"parameter": "kite.m", "values": [1.0], "objective": "x" * LONG},
                      "objective must be"),
        # load_config names the key, and the sweep names the point with it.
        "parameter through a number": ({"parameter": "kite.m." + "x" * LONG, "values": [1.0]},
                                       "cannot set"),
        "unknown parameter": ({"parameter": "operation." + "x" * LONG, "values": [1.0]},
                              "operation: unknown key(s)"),
    }[case]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    return path, names


def long_log(tmp_path, case):
    """A telemetry log with one long field in its third line, and what its error names."""
    column, value = {"digits": ("vk_x", "1" * LONG), "text": ("vk_x", "a" * LONG),
                     "phase": ("phase", "p" * LONG)}[case]
    bad = ",".join({**TELEMETRY_ROW, "t": "0.1", column: value}.values())
    log = tmp_path / "long.csv"
    log.write_text("\n".join([",".join(TELEMETRY_COLUMNS), ",".join(TELEMETRY_ROW.values()),
                              bad]) + "\n")
    return log, ("unknown phase labels" if column == "phase" else "line 3: column vk_x")


@pytest.mark.parametrize("case", ["integer 10**309", "integer 10**4000", "string", "unknown key",
                                  "repeated key", "list", "digits", "text", "phase", "objective",
                                  "parameter through a number", "unknown parameter"])
def test_an_error_message_clips_a_long_input(tmp_path, capsys, case):
    # The message used to echo the whole value: 348 characters for 10**309,
    # and more than 100 000 for a long string, field, label, key, objective
    # or sweep parameter (200 087 for one that load_config names too).
    if case in ("digits", "text", "phase"):
        log, names = long_log(tmp_path, case)
        argv = ["estimate", "--config", "strong_wind", "--log", str(log)]
    elif case in ("objective", "parameter through a number", "unknown parameter"):
        spec, names = long_sweep(tmp_path, case)
        argv = ["sweep", "--config", "strong_wind", "--spec", str(spec)]
    else:
        config, names = long_config(tmp_path, case)
        argv = ["simulate", "--config", str(config)]
    assert run_command([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err) < 300 and names in err and " characters)" in err, err


@pytest.mark.parametrize("command", ["simulate", "convergence", "sweep", "estimate"])
def test_each_command_that_simulates_lists_the_massless_flag(capsys, command):
    # One parent parser declares the flag for the three; convergence and
    # sweep used to list it without help.
    assert run_command([command, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert ("--no-gravity use the massless model variant" in out) is (command != "estimate"), out


def telemetry_lines(rows):
    """The header and ``rows`` valid rows, 0.1 s apart, of a telemetry log."""
    return [",".join(TELEMETRY_COLUMNS)] + [",".join({**TELEMETRY_ROW, "t": f"{0.1 * i:.1f}"}
                                                     .values()) for i in range(rows)]


def test_telemetry_that_is_not_utf8_exits_2(tmp_path, capsys):
    # The bytes sit beyond the first chunk the reader decodes, so the line
    # is counted in the file, not in the chunk.
    lines = [line.encode() for line in telemetry_lines(400)]
    lines[350] += b"\xff\xfe"
    log = tmp_path / "bad.csv"
    log.write_bytes(b"\n".join(lines) + b"\n")
    out = tmp_path / "o"
    assert run_command(["estimate", "--config", "strong_wind", "--log", str(log),
                        "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"ParseError: {log}: line 351: 'utf-8' codec can't decode byte 0xff" in err, err
    assert not out.exists()


def test_telemetry_that_decodes_when_read_again_exits_2(tmp_path, capsys, monkeypatch):
    # The log fails to decode, then reads cleanly when it is read again to
    # find the line (it changed between the reads): the first error used to
    # escape run_command.
    lines = [line.encode() for line in telemetry_lines(3)]
    log = tmp_path / "changing.csv"
    log.write_bytes(b"\n".join(lines[:2] + [lines[2] + b"\xff"]) + b"\n")
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda path: (b"\n".join(lines) + b"\n"
                                                          if path == log else read_bytes(path)))
    out = tmp_path / "o"
    assert run_command(["estimate", "--config", "strong_wind", "--log", str(log),
                        "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ParseError: {log}: 'utf-8' codec can't decode byte 0xff"), err
    assert not out.exists()


def test_telemetry_field_over_the_csv_limit_exits_2(tmp_path, capsys):
    lines = telemetry_lines(3)
    lines[2] = lines[2].replace("traction", "x" * 131073)
    log = tmp_path / "bad.csv"
    log.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    assert run_command(["estimate", "--config", "strong_wind", "--log", str(log),
                        "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"ParseError: {log}: line 3: field larger than field limit (131072)" in err, err
    assert not out.exists()


def test_telemetry_rows_must_match_the_header_width(tmp_path, capsys):
    header, row = ",".join(TELEMETRY_COLUMNS), list(TELEMETRY_ROW.values())
    for fields in (row[:-1], row[:3], row + ["7.0"]):
        log = tmp_path / "bad.csv"
        log.write_text(f"{header}\n{','.join(row)}\n{','.join(fields)}\n")
        code = run_command(["estimate", "--config", "strong_wind", "--log", str(log),
                            "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert (f"ParseError: {log}: line 3: expected {len(TELEMETRY_COLUMNS)} fields, "
                f"got {len(fields)}") in err, err
    assert not (tmp_path / "o" / "estimates.csv").exists()


def test_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c",
                    "import kitecycle.cli, sys; assert 'scipy' not in sys.modules"],
                   env=env, check=True)


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # Importing them costs more start-up time than simulating a preset, and
    # only `estimate` and `simulate --telemetry-out` use the estimation
    # module, which holds the telemetry log; only a timeseries.csv split
    # between two processes uses tempfile and shutil.  -S keeps a site .pth
    # file from importing any of them before kitecycle does.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys\n"
            "import kitecycle.cli\n"
            "from kitecycle.config import load_config, preset_path\n"
            "load_config(preset_path('strong_wind'))\n"
            "print(sorted({'dataclasses', 'inspect', 'kitecycle.estimation',\n"
            "              'importlib.resources', 'tempfile', 'shutil'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout == "[]\n"


@pytest.fixture(scope="module")
def simulated_log(tmp_path_factory):
    """A telemetry log exported by `simulate --telemetry-out` on the strong preset."""
    work = tmp_path_factory.mktemp("simulated_log")
    assert run_command(["simulate", "--config", "strong_wind", "--out", str(work / "sim"),
                        "--telemetry-out", str(work / "telemetry.csv")]) == 0
    return work / "telemetry.csv"


@pytest.mark.parametrize("command, loads", [
    (["simulate", "--config", "strong_wind", "--no-gravity"], False),
    (["simulate", "--config", "strong_wind", "--no-gravity", "--telemetry-out", "{tmp}/t.csv"],
     True),
    (["convergence", "--config", "strong_wind", "--no-gravity", "--dt-list", "0.1", "0.05"],
     False),
    (["sweep", "--config", "strong_wind", "--no-gravity", "--spec", "{tmp}/spec.json"], False),
    (["estimate", "--config", "strong_wind", "--log", "{log}"], True),
], ids=["simulate", "simulate-telemetry-out", "convergence", "sweep", "estimate"])
def test_only_estimate_and_telemetry_out_load_the_telemetry_module(tmp_path, simulated_log,
                                                                  command, loads):
    (tmp_path / "spec.json").write_text(json.dumps({"parameter": "operation.F_out",
                                                    "values": [3008.0]}))
    argv = [arg.format(tmp=tmp_path, log=simulated_log) for arg in command]
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "from kitecycle.cli import run_command\n"
            "code = run_command(sys.argv[1:])\n"
            "print(code, 'kitecycle.estimation' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / "o")],
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True,
                          capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == f"0 {loads}"


def test_dataio_resolves_the_telemetry_names_to_the_telemetry_module():
    from kitecycle import dataio, estimation

    assert "read_telemetry_csv" in dataio.__all__
    assert dataio.read_telemetry_csv is estimation.read_telemetry_csv
    assert kitecycle.LogRecord is estimation.LogRecord
    with pytest.raises(AttributeError, match="no attribute '_parse_rows'"):
        dataio._parse_rows


def test_the_log_record_is_the_telemetry_row():
    # One module holds the log's columns and writer, and a record's fields
    # are the columns, angles in radians.
    from kitecycle import dataio, estimation

    assert ([col.removesuffix("_deg") for col in estimation.TELEMETRY_COLUMNS]
            == list(estimation.LogRecord._fields))
    assert not hasattr(dataio, "write_telemetry_csv")
    assert not hasattr(dataio, "TELEMETRY_COLUMNS")


def test_log_with_a_byte_order_mark_estimates_the_same(tmp_path, simulated_log):
    # Spreadsheets write "CSV UTF-8" with a BOM before the header.
    bom_log = tmp_path / "bom.csv"
    bom_log.write_bytes(b"\xef\xbb\xbf" + simulated_log.read_bytes())
    outs = {}
    for name, log in (("plain", simulated_log), ("bom", bom_log)):
        outs[name] = tmp_path / name
        assert run_command(["estimate", "--config", "strong_wind", "--log", str(log),
                            "--out", str(outs[name])]) == 0
    for name in ("estimates.csv", "phase_averages.json"):
        assert read(outs["bom"] / name) == read(outs["plain"] / name)


def test_no_private_names_imported_across_modules():
    # Each module reaches another only through its public names.
    package = Path(__file__).resolve().parents[1] / "src" / "kitecycle"
    private = []
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("kitecycle"))
            if sibling:
                private += [f"{module.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def test_exports_exist_and_package_imports_only_exports():
    # A deletion cannot leave a stale name in a module's __all__, nor a
    # package-level import of a name its module does not export.
    package = Path(__file__).resolve().parents[1] / "src" / "kitecycle"
    stale, unexported = [], []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"kitecycle.{path.stem}")
        stale += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    # The package's name -> module table, which its __getattr__ resolves.
    for module, names in kitecycle._EXPORTS.items():
        exported = importlib.import_module(f"kitecycle.{module}").__all__
        unexported += [f"{module}.{name}" for name in names if name not in exported]
    assert stale == []
    assert unexported == []
    assert all(hasattr(kitecycle, name) for name in kitecycle.__all__)


def test_convergence_command(tmp_path):
    out = tmp_path / "conv"
    code = run_command(["convergence", "--config", "strong_wind", "--no-gravity",
                        "--dt-list", "0.1", "0.05", "--out", str(out)])
    assert code == 0
    lines = (out / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "dT,zeta_m,steps,ratio_to_ref"
    assert len(lines) == 3


def test_sweep_command_and_determinism(tmp_path):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"parameter": "operation.F_out",
                                "values": [2000.0, 3008.0, 4000.0],
                                "objective": "P_m"}))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        code = run_command(["sweep", "--config", "strong_wind", "--spec", str(spec),
                            "--out", str(out)])
        assert code == 0
    rows = (out1 / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "operation.F_out,P_m,zeta_m"
    assert len(rows) == 4
    argmax = json.loads((out1 / "argmax.json").read_text())
    assert argmax["value"] in (2000.0, 3008.0, 4000.0)
    assert read(out1 / "sweep.csv") == read(out2 / "sweep.csv")
    assert read(out1 / "argmax.json") == read(out2 / "argmax.json")


def test_estimate_command_round_trip(tmp_path):
    telemetry = tmp_path / "telemetry.csv"
    out = tmp_path / "sim"
    assert run_command(["simulate", "--config", "strong_wind", "--out", str(out),
                        "--telemetry-out", str(telemetry)]) == 0
    est_out, rerun_out = tmp_path / "est", tmp_path / "est_rerun"
    for d in (est_out, rerun_out):
        assert run_command(["estimate", "--config", "strong_wind", "--log", str(telemetry),
                            "--out", str(d)]) == 0
    averages = json.loads((est_out / "phase_averages.json").read_text())
    assert abs(averages["C_R_o"] / 0.71 - 1.0) < 0.02
    # The CLI estimates each sample once and averages that list; the
    # library path must give the same file.
    cfg = load_config(preset_path("strong_wind"))
    records = read_telemetry_csv(telemetry)
    expected = tmp_path / "expected_averages.json"
    write_phase_averages(expected, segment_and_average(records, cfg.kite, cfg.tether,
                                                       cfg.environment))
    assert read(est_out / "phase_averages.json") == read(expected)
    for name in ("estimates.csv", "phase_averages.json"):
        assert read(est_out / name) == read(rerun_out / name)


def test_simulate_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_command(["simulate", "--config", "moderate_wind", "--out", str(out)]) == 0
    for name in ("cycle_summary.json", "timeseries.csv"):
        assert read(out1 / name) == read(out2 / name)


def test_one_parser_serves_every_command_of_a_process(tmp_path, capsys):
    # The parser is built once per process; no flag of one command may
    # carry over into the next, and a rejected argv leaves it usable.
    runs = {name: tmp_path / name for name in ("gravity", "massless", "gravity_again")}
    assert run_command(["simulate", "--config", "strong_wind", "--out",
                        str(runs["gravity"])]) == 0
    assert run_command(["simulate", "--config", "strong_wind", "--no-gravity", "--out",
                        str(runs["massless"])]) == 0
    assert run_command(["simulate", "--config", "strong_wind", "--out",
                        str(runs["gravity_again"])]) == 0
    for name in ("cycle_summary.json", "timeseries.csv"):
        assert read(runs["gravity_again"] / name) == read(runs["gravity"] / name)
        assert read(runs["massless"] / name) != read(runs["gravity"] / name)
    assert run_command(["simulate", "--config", "strong_wind", "--no-such-flag"]) == 2
    assert run_command(["simulate", "--config", "strong_wind", "--out",
                        str(tmp_path / "after_error")]) == 0
    assert read(tmp_path / "after_error" / "cycle_summary.json") == read(
        runs["gravity"] / "cycle_summary.json")
    assert cli._parser() is cli._parser()
