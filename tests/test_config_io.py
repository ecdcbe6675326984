import csv
import json
import math
import re

import numpy as np
import pytest

from kitecycle import (
    dataio,
    estimation,
    load_config,
    load_sweep_spec,
    preset_path,
    replace,
    segment_and_average,
    simulate_cycle,
)
from kitecycle.config import PRESET_NAMES
from kitecycle.cycle import StepRecord
from kitecycle.dataio import (
    TELEMETRY_COLUMNS,
    TIMESERIES_COLUMNS,
    read_telemetry_csv,
    write_telemetry_csv,
    write_timeseries_csv,
)
from kitecycle.errors import ParseError, ValidationError
from kitecycle.estimation import LogRecord, cycle_to_log_records


def strong_raw() -> dict:
    """The strong_wind preset file, parsed."""
    return json.loads(preset_path("strong_wind").read_text())


class TestLoadConfig:
    def test_strong_preset_values(self, strong_config):
        cfg = strong_config
        assert cfg.operation.F_out == 3008.0
        assert cfg.operation.r_max == 720.0
        assert cfg.operation.beta_o == pytest.approx(math.radians(27.0), rel=1e-12)
        assert cfg.environment.v_w_ref == 9.9
        assert cfg.kite.S == 10.2
        assert cfg.kite.aero_retraction.LD_k == 3.1
        assert cfg.tether.rho_t == 724.0

    def test_moderate_preset_values(self, moderate_config):
        cfg = moderate_config
        assert cfg.operation.F_out == 3069.0
        assert cfg.operation.r_min == 234.0
        assert cfg.kite.S == 19.8
        assert cfg.kite.m == 19.6

    def test_unknown_key_rejected(self, tmp_path):
        raw = strong_raw()
        raw["foo"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ParseError):
            load_config(path)

    def test_nested_unknown_key_rejected(self, tmp_path):
        raw = strong_raw()
        raw["operation"]["spindle"] = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ParseError):
            load_config(path)

    def test_invariant_violation(self, tmp_path):
        raw = strong_raw()
        raw["operation"]["r_min"] = 900.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError):
            load_config(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda raw: raw.update(kite=5.0), "kite: expected an object, got float"),
        (lambda raw: raw["tether"].pop("rho_t"), "tether: missing key(s) ['rho_t']"),
        (lambda raw: raw.pop("operation"), "config: missing key(s) ['operation']"),
    ])
    def test_section_of_the_wrong_shape(self, tmp_path, edit, message):
        raw = strong_raw()
        edit(raw)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ParseError, match=re.escape(message)):
            load_config(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "nope.json")

    def test_byte_order_mark_is_skipped(self, tmp_path, strong_config):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + preset_path("strong_wind").read_bytes())
        assert load_config(path) == strong_config

    def test_json_integers_read_as_their_floats(self, tmp_path, strong_config):
        def as_integers(node):
            for key, value in node.items():
                if isinstance(value, dict):
                    as_integers(value)
                elif isinstance(value, float) and value.is_integer():
                    node[key] = int(value)

        raw = strong_raw()
        as_integers(raw)
        assert [raw["operation"][k] for k in ("r_min", "r_max", "F_out", "F_in")] == [
            390, 720, 3008, 749]
        path = tmp_path / "integers.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        assert cfg == strong_config

        def numbers(obj, where):
            for name in obj._fields:
                value = getattr(obj, name)
                if hasattr(value, "_fields"):
                    yield from numbers(value, f"{where}.{name}")
                elif not isinstance(value, (bool, str)):
                    yield f"{where}.{name}", value

        fields = dict(numbers(cfg.environment, "environment"))
        for section in ("kite", "tether", "operation"):
            fields.update(numbers(getattr(cfg, section), section))
        assert len(fields) == 22
        assert {key for key, value in fields.items() if type(value) is not float} == set()

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            preset_path("gale")

    def test_overrides_set_file_values(self, strong_config):
        path = preset_path("strong_wind")
        varied = load_config(path, {"operation.F_out": 2500.0, "kite.aero_traction.C_L": 0.75,
                                    "operation.beta_deg": 30.0, "gravity": False})
        assert varied.operation.F_out == 2500.0
        assert varied.kite.aero_traction.C_L == 0.75
        assert varied.operation.beta_o == math.radians(30.0)
        assert varied.operation.gravity is False
        assert load_config(path) == strong_config

    BAD_OVERRIDES = [
        ("operation.nope", 1.0, ParseError, "operation: unknown key(s) ['nope']"),
        # Names of the parsed objects are not keys of the file.
        ("operation.beta_o", 0.5, ParseError, "operation: unknown key(s) ['beta_o']"),
        ("operation.theta_o", 1.0, ParseError, "operation: unknown key(s) ['theta_o']"),
        ("kite.aero_traction.C_D_k", 0.2, ParseError,
         "kite.aero_traction: unknown key(s) ['C_D_k']"),
        ("environment._log_z_ref", 1.0, ParseError,
         "environment: unknown key(s) ['_log_z_ref']"),
        ("F_out", 1.0, ParseError, "config: unknown key(s) ['F_out']"),
        ("kite.aero_traction", 1.0, ParseError,
         "kite.aero_traction: expected an object, got float"),
        ("kite.m", math.nan, ParseError, "kite.m: expected a finite number, got nan"),
        ("operation.r_min", 900.0, ValidationError, "requires 0 < r_min < r_max"),
        ("kite.m.real", 1.0, ValidationError, "cannot set 'kite.m.real'"),
    ]

    @pytest.mark.parametrize("key,value,error,message", BAD_OVERRIDES,
                             ids=[case[0] for case in BAD_OVERRIDES])
    def test_overrides_reject_bad_keys(self, key, value, error, message):
        with pytest.raises(error, match=re.escape(message)):
            load_config(preset_path("strong_wind"), {key: value})

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_every_key_of_the_file_overrides(self, tmp_path, preset):
        # Each leaf set to its own file value parses to the plain load, and
        # an optional key the file omits takes its default the same way.
        raw = json.loads(preset_path(preset).read_text())

        def leaves(node, path=()):
            for key, value in node.items():
                if isinstance(value, dict):
                    yield from leaves(value, path + (key,))
                else:
                    yield ".".join(path + (key,)), value

        plain = load_config(preset_path(preset))
        keys = dict(leaves(raw))
        assert len(keys) == 22
        for key, value in keys.items():
            assert load_config(preset_path(preset), {key: value}) == plain, key
        defaults = {"operation.dT": 0.01, "environment.rho0": 1.225,
                    "environment.H_rho": 8550.0, "tether.C_D_c": 1.1}
        for key in defaults:
            section, name = key.split(".")
            raw[section].pop(name, None)
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(raw))
        plain = load_config(bare)
        for key, value in defaults.items():
            assert load_config(bare, {key: value}) == plain, key
            assert load_config(bare, {key: 2.0 * value}) != plain, key


class TestSweepSpec:
    def test_values_list(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"parameter": "operation.F_out",
                                    "values": [2000, 3008, 4000]}))
        spec = load_sweep_spec(path)
        assert spec.values == (2000.0, 3008.0, 4000.0)
        assert spec.objective == "P_m"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # a BOM is skipped
        assert load_sweep_spec(path) == spec

    def test_range_expansion(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"parameter": "operation.F_out",
                                    "range": {"start": 1000, "stop": 2000, "num": 5},
                                    "objective": "zeta_m"}))
        spec = load_sweep_spec(path)
        assert spec.values == (1000.0, 1250.0, 1500.0, 1750.0, 2000.0)

    @pytest.mark.parametrize("spec,message", [
        ({"values": []}, "sweep requires at least one value"),
        ({"range": {"start": 1000, "stop": 2000, "num": 1}}, "sweep range needs num >= 2"),
    ])
    def test_empty_sweep_rejected(self, tmp_path, spec, message):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"parameter": "operation.F_out", **spec}))
        with pytest.raises(ValidationError, match=message):
            load_sweep_spec(path)

    def test_values_and_range_exclusive(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"parameter": "p", "values": [1],
                                    "range": {"start": 0, "stop": 1, "num": 2}}))
        with pytest.raises(ParseError):
            load_sweep_spec(path)

    def test_non_numbers_rejected(self, tmp_path):
        for spec, where in (({"values": [1.0, float("nan")]}, "sweep.values[1]"),
                            ({"values": [True]}, "sweep.values[0]"),
                            ({"values": ["2000"]}, "sweep.values[0]"),
                            ({"range": {"start": 0, "stop": float("inf"), "num": 3}},
                             "sweep.range.stop")):
            path = tmp_path / "sweep.json"
            path.write_text(json.dumps({"parameter": "operation.F_out", **spec}))
            with pytest.raises(ParseError, match=re.escape(where)):
                load_sweep_spec(path)

    @pytest.mark.parametrize("start,stop,num", [
        (1e308, -1e308, 2), (-1e308, 1e308, 3), (-10**308, 10**308, 2)],
        ids=["down", "up", "whole_numbers"])
    def test_overflowing_range_rejected(self, tmp_path, start, stop, num):
        # Its span is not a float, so the range used to sweep NaN points.
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"parameter": "kite.m",
                                    "range": {"start": start, "stop": stop, "num": num}}))
        with pytest.raises(ParseError, match=r"^sweep\.range: "):
            load_sweep_spec(path)

    def test_sweep_size_limit(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"parameter": "kite.m", "values": [1.0] * 10_000}))
        assert len(load_sweep_spec(path).values) == 10_000
        # One over the limit; test_cli covers 1e300 and a long values list.
        path.write_text(json.dumps({"parameter": "kite.m",
                                    "range": {"start": 0, "stop": 1, "num": 10_001}}))
        with pytest.raises(ParseError, match=r"^sweep\.range\.num: 10001 exceeds the limit"):
            load_sweep_spec(path)

    def test_bad_objective(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"parameter": "operation.F_out",
                                    "values": [1.0], "objective": "profit"}))
        with pytest.raises(ValidationError):
            load_sweep_spec(path)


class TestTimeseriesCsv:
    def test_exact_column_set(self, tmp_path, strong_cycle):
        path = tmp_path / "timeseries.csv"
        write_timeseries_csv(path, strong_cycle)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == TIMESERIES_COLUMNS

    @pytest.mark.parametrize("gravity", [True, False], ids=["gravity", "massless"])
    def test_full_precision_round_trip(self, tmp_path, strong_config, strong_cycle, gravity):
        # Every row and column reads back its record's value exactly; the
        # degree columns are math.degrees of the record's elevation and of
        # its phase's angle pair.  Without gravity every record's F_tg is
        # its F_t_kite object.
        cfg = strong_config
        cycle = strong_cycle if gravity else simulate_cycle(
            cfg.environment, cfg.kite, cfg.tether, replace(cfg.operation, gravity=False))
        path = tmp_path / "timeseries.csv"
        write_timeseries_csv(path, cycle)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        records = [(phase, step) for phase in cycle.phases for step in phase.rows()]
        assert len(rows) == len(records)
        for row, (phase, step) in zip(rows, records):
            theta = step[2]
            expected = {**dict(zip(StepRecord._fields, step)), "phase": phase.phase,
                        "theta_deg": math.degrees(theta),
                        "beta_deg": math.degrees(0.5 * math.pi - theta),
                        "phi_deg": math.degrees(phase.phi), "chi_deg": math.degrees(phase.chi)}
            assert list(row) == TIMESERIES_COLUMNS
            for column, text in row.items():
                value = text if column == "phase" else float(text)
                assert value == expected[column], (column, row)


class TestEstimatesCsv:
    def test_full_precision_round_trip(self, tmp_path, strong_config, strong_telemetry):
        # Every row and column reads back its estimate exactly, NaN as NaN.
        cfg = strong_config
        estimates = segment_and_average(strong_telemetry, cfg.kite, cfg.tether,
                                        cfg.environment).estimates
        path = tmp_path / "estimates.csv"
        dataio.write_estimates_csv(path, estimates)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(estimates)
        for row, est in zip(rows, estimates):
            assert list(row) == ["t", "phase", "C_R", "LD_sys", "LD_k", "kappa", "v_a", "valid"]
            assert row.pop("phase") == (est.phase or "")
            assert row.pop("valid") == ("1" if est.valid else "0")
            for column, text in row.items():
                value, expected = float(text), getattr(est, column)
                assert value == expected or (math.isnan(value) and math.isnan(expected)), column


class TestTelemetryCsv:
    def test_write_read_round_trip(self, tmp_path, strong_config, strong_telemetry):
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(path, strong_telemetry)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == TELEMETRY_COLUMNS
        back = read_telemetry_csv(path)
        assert len(back) == len(strong_telemetry)
        for a, b in zip(back, strong_telemetry):
            assert a.t == b.t
            assert a.F_tg == b.F_tg
            assert a.r == b.r
            assert a.vk == b.vk
            assert a.phase == b.phase
            assert a.theta == pytest.approx(b.theta, rel=1e-14)

    def test_timestamps_strictly_increasing(self, strong_telemetry):
        ts = [rec.t for rec in strong_telemetry]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_non_increasing_time_rejected(self, tmp_path, strong_telemetry):
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(path, [strong_telemetry[0], strong_telemetry[0]])
        with pytest.raises(ValidationError):
            read_telemetry_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty file"):
            read_telemetry_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        path.write_text("t,F_tg\n0,1\n")
        with pytest.raises(ParseError):
            read_telemetry_csv(path)

    def test_repeated_column_rejected(self, tmp_path, strong_telemetry):
        # An extra trailing t column of 1s used to be read in place of the
        # first and fail as timestamps that do not increase.
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(path, strong_telemetry[:3])
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0] + ",t,phase", *(line + ",1,traction" for line in
                                                             lines[1:])]) + "\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=r"telemetry\.csv: repeated column\(s\) \['t', "
                                             r"'phase'\]$"):
            read_telemetry_csv(path)

    def test_parse_error_wins_over_an_earlier_invalid_row(self, tmp_path, strong_telemetry):
        # r = 0 on line 3 breaks an invariant; "abc" on line 5 does not parse.
        path = tmp_path / "telemetry.csv"
        records = list(strong_telemetry[:6])
        records[1] = records[1]._replace(r=0.0)
        write_telemetry_csv(path, records)
        with pytest.raises(ValidationError, match=r": line 3: tether length must be > 0, got 0.0$"):
            read_telemetry_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[4] = "abc" + lines[4][lines[4].index(","):]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r": line 5: column t: could not convert"):
            read_telemetry_csv(path)

    def test_missing_chi_derived_from_positions(self, tmp_path, strong_config, strong_cycle):
        records = cycle_to_log_records(strong_cycle, strong_config.environment.v_w_ref)
        blanked = [rec._replace(chi=None) for rec in records]
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(path, blanked)
        back = read_telemetry_csv(path)
        assert all(rec.chi is not None for rec in back)
        # Retraction flies upward: derived course angle near 180 deg.
        mid = (strong_cycle.retraction.steps + 1) // 2
        assert abs(math.remainder(back[mid].chi - math.pi, 2 * math.pi)) < math.radians(15)

    def test_finite_values_whose_sum_overflows_parse(self, tmp_path, strong_telemetry):
        # The row's check sum overflows to inf, so each column is checked
        # alone, the blank chi_deg among them: the row parses.
        path = tmp_path / "telemetry.csv"
        records = [rec._replace(chi=None) for rec in strong_telemetry[:3]]
        records[1] = records[1]._replace(F_tg=1e308, r=1e308)
        write_telemetry_csv(path, records)
        back = read_telemetry_csv(path)
        assert (back[1].F_tg, back[1].r) == (1e308, 1e308)
        assert all(rec.chi is not None for rec in back)

    def test_each_record_is_built_once(self, tmp_path, monkeypatch, strong_telemetry):
        # Course angles are derived before the records are built, so a
        # log with no course angles builds each record once, as does a log
        # with all of them.  _make (which _replace calls) skips __new__, so
        # it is counted too.
        built = []

        class CountedRecord(LogRecord):
            def __new__(cls, *args):
                built.append(args[0])
                return super().__new__(cls, *args)

            @classmethod
            def _make(cls, iterable):
                fields = tuple(iterable)
                built.append(fields[0])
                return super()._make(fields)

        # The reader builds records through the estimation module's binding.
        monkeypatch.setattr(estimation, "LogRecord", CountedRecord)
        for records in ([rec._replace(chi=None) for rec in strong_telemetry], strong_telemetry):
            path = tmp_path / "telemetry.csv"
            write_telemetry_csv(path, records)
            built.clear()
            back = read_telemetry_csv(path)
            assert all(rec.chi is not None for rec in back)
            assert built == [rec.t for rec in back]
            assert len(back) == len(strong_telemetry)

def numpy_floats(value):
    """``value`` with every float in it, at any depth, a ``numpy.float64``."""
    if type(value) is float:
        return np.float64(value)
    if isinstance(value, list):
        return [numpy_floats(item) for item in value]
    if isinstance(value, dict):
        return {key: numpy_floats(item) for key, item in value.items()}
    if isinstance(value, tuple):
        items = [numpy_floats(item) for item in value]
        return type(value)(*items) if hasattr(value, "_fields") else tuple(items)
    return value


def test_writers_write_numpy_floats_as_their_str(tmp_path, strong_config, strong_cycle,
                                                 strong_telemetry):
    # numpy 2 spells the repr of a float64 "np.float64(1.5)", its str "1.5":
    # a number is written as its str, so the bytes match those of Python floats.
    cfg = strong_config
    estimates = segment_and_average(strong_telemetry, cfg.kite, cfg.tether,
                                    cfg.environment).estimates
    rows = [{"dT": 0.01, "zeta_m": 0.1234567891234, "steps": 347, "ratio": 1.0000000000002,
             "value": 1e-05, "P_m": 5376.123456789},
            {"dT": 1e16, "zeta_m": math.nan, "steps": 0, "ratio": math.inf, "value": -0.0,
             "P_m": -math.inf}]
    writers = [
        (dataio.write_timeseries_csv, strong_cycle),
        (dataio.write_telemetry_csv, strong_telemetry),
        (dataio.write_estimates_csv, estimates),
        (dataio.write_convergence_csv, rows),
        (lambda path, rows: dataio.write_sweep_csv(path, "operation.F_out", rows), rows),
    ]
    for write, value in writers:
        write(tmp_path / "python.csv", value)
        write(tmp_path / "numpy.csv", numpy_floats(value))
        assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()


def test_read_telemetry_derives_course_angle_direction(tmp_path):
    # Two samples descending in elevation (theta increasing): chi ~ 0.
    base = dict(F_tg=100.0, r=400.0, phi=0.0, chi=None, vk=(0.0, 0.0, 0.0),
                v_t=0.0, v_w_ref=9.9)
    recs = [
        LogRecord(t=0.0, theta=math.radians(30), **base),
        LogRecord(t=1.0, theta=math.radians(35), **base),
    ]
    path = tmp_path / "telemetry.csv"
    write_telemetry_csv(path, recs)
    out = read_telemetry_csv(path)
    assert out[0].chi == pytest.approx(0.0, abs=1e-9)
    assert out[1].chi == out[0].chi
