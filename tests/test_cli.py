import json
from pathlib import Path

from kitecycle import load_config, preset_path, save_config, segment_and_average
from kitecycle.cli import run_command
from kitecycle.config import config_to_dict
from kitecycle.dataio import TELEMETRY_COLUMNS, read_telemetry_csv, write_phase_averages


def read(path: Path) -> bytes:
    return Path(path).read_bytes()


def test_simulate_writes_summary_and_timeseries(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_command(["simulate", "--config", "strong_wind", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "cycle_summary.json").read_text())
    assert abs(summary["P_m"] / 7590.0 - 1.0) < 0.15
    assert (out / "timeseries.csv").exists()
    assert set(summary["phases"]) == {"retraction", "transition", "traction"}


def test_simulate_accepts_config_path_and_no_gravity(tmp_path, strong_config):
    cfg_path = tmp_path / "cfg.json"
    save_config(strong_config, cfg_path)
    out = tmp_path / "run"
    code = run_command(["simulate", "--config", str(cfg_path), "--no-gravity",
                        "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "cycle_summary.json").read_text())
    # The massless model yields less cycle power than the gravity model
    # for this configuration.
    assert summary["P_m"] < 7590.0


def test_validation_error_exit_code(tmp_path, capsys, strong_config):
    long_r_min = config_to_dict(strong_config)
    long_r_min["operation"]["r_min"] = 5000.0
    # A string flag would be truthy and silently select the gravity model.
    string_gravity = {**config_to_dict(strong_config), "gravity": "false"}
    for raw in (long_r_min, string_gravity):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code = run_command(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "ValidationError" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys, strong_config):
    raw = config_to_dict(strong_config)
    raw["unexpected"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code = run_command(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "ParseError" in capsys.readouterr().err


def test_solver_error_exit_code(tmp_path, capsys, strong_config):
    raw = config_to_dict(strong_config)
    raw["operation"]["F_in"] = 1.0e8
    raw["operation"]["F_out"] = 2.0e8
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code = run_command(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "Error" in err


def test_unknown_arguments_exit_code(capsys):
    assert run_command(["simulate"]) == 2
    assert run_command(["explode", "--config", "strong_wind"]) == 2


def test_missing_telemetry_file_exit_code(tmp_path, capsys):
    code = run_command(["estimate", "--config", "strong_wind",
                        "--log", str(tmp_path / "nope.csv"),
                        "--out", str(tmp_path / "o")])
    assert code == 2
    assert "ParseError" in capsys.readouterr().err


def test_header_only_telemetry_exit_code(tmp_path, capsys):
    log = tmp_path / "empty.csv"
    log.write_text(",".join(TELEMETRY_COLUMNS) + "\n")
    code = run_command(["estimate", "--config", "strong_wind", "--log", str(log),
                        "--out", str(tmp_path / "o")])
    assert code == 2
    assert "ValidationError" in capsys.readouterr().err
    # A failed estimate writes no outputs.
    assert not (tmp_path / "o" / "estimates.csv").exists()


def test_non_finite_telemetry_rejected_at_parse(tmp_path, capsys):
    row = {"t": "0.0", "F_tg": "3000.0", "r": "400.0", "theta_deg": "60.0",
           "phi_deg": "10.0", "chi_deg": "100.0", "vk_x": "-10.0", "vk_y": "20.0",
           "vk_z": "5.0", "v_t": "2.0", "v_w_ref": "9.0", "phase": "traction"}
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
