"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criteria 2, 3 and 8 contain sub-checks that are not attainable
with the published model equations (verified against an independent
implementation of the same equations); those fail honestly and list the
offending sub-checks.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from kitecycle import (
    Environment,
    WindState,
    angle_trig,
    convergence_study,
    load_config,
    massless_state,
    preset_path,
    replace,
    segment_and_average,
    simulate_cycle,
    solve_kinematic_ratio,
    wind_state_at,
)
from kitecycle.cli import run_command
from kitecycle.dataio import read_telemetry_csv
from kitecycle.errors import SteadyStateError

import golden
from oracles import grid_scan_kappa


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_atmosphere_golden_values():
    strong = Environment(v_w_ref=9.9, z_ref=6.0, z0=0.07)
    moderate = Environment(v_w_ref=5.9, z_ref=6.0, z0=0.07)
    v_strong = wind_state_at(252.0, strong).v_w
    v_moderate = wind_state_at(139.0, moderate).v_w
    ok = abs(v_strong - 18.2) <= 0.05 and abs(v_moderate - 10.1) <= 0.05
    report(1, ok, f"wind at z_mt: strong {v_strong:.3f} m/s (18.2±0.05), "
                  f"moderate {v_moderate:.3f} m/s (10.1±0.05)")
    assert ok


def _table_failures(preset: str) -> list[str]:
    cfg = load_config(preset_path(preset))
    failures = []
    for gravity in (True, False):
        mode = "on" if gravity else "off"
        targets = golden.MODEL_TABLE[(preset, gravity)]
        op = replace(cfg.operation, gravity=gravity)
        t0 = time.perf_counter()
        cycle = simulate_cycle(cfg.environment, cfg.kite, cfg.tether, op)
        if time.perf_counter() - t0 > 1.0:
            failures.append(f"{mode}: cycle runtime above 1 s")
        got = {
            "retraction": (cycle.retraction.mean_power / 1e3, cycle.retraction.duration),
            "transition": (cycle.transition.mean_power / 1e3, cycle.transition.duration),
            "traction": (cycle.traction.mean_power / 1e3, cycle.traction.duration),
            "cycle": (cycle.P_m / 1e3, cycle.duration),
        }
        for phase, (P_ref, T_ref) in targets.items():
            P, T = got[phase]
            if phase == "transition":
                if abs(P / P_ref - 1.0) > golden.TRANSITION_POWER_TOL:
                    failures.append(f"{mode}:{phase}:power {P:.2f} vs {P_ref} kW")
                if abs(T - T_ref) > golden.TRANSITION_DURATION_TOL_S:
                    failures.append(f"{mode}:{phase}:duration {T:.1f} vs {T_ref} s")
                continue
            tol = golden.CYCLE_TOL if phase == "cycle" else golden.PHASE_TOL
            if abs(P / P_ref - 1.0) > tol:
                failures.append(f"{mode}:{phase}:power {P:.2f} vs {P_ref} kW")
            if abs(T / T_ref - 1.0) > tol:
                failures.append(f"{mode}:{phase}:duration {T:.1f} vs {T_ref} s")
    return failures


def test_criterion_2_strong_wind_table():
    failures = _table_failures("strong_wind")
    ok = not failures
    report(2, ok, "strong-wind phase/cycle reproduction"
           + ("" if ok else f"; out of tolerance: {failures}"))
    assert ok, f"out of tolerance: {failures}"


def test_criterion_3_moderate_wind_table():
    failures = _table_failures("moderate_wind")
    ok = not failures
    report(3, ok, "moderate-wind phase/cycle reproduction"
           + ("" if ok else f"; out of tolerance: {failures}"))
    assert ok, f"out of tolerance: {failures}"


def test_criterion_4_experiment_columns_are_reference_only():
    # The measured field data is shipped for documentation; it is present,
    # structurally complete, and deliberately never asserted against the
    # simulation.
    ok = set(golden.EXPERIMENT_TABLE) == {"strong_wind", "moderate_wind"} and all(
        set(v) == {"retraction", "transition", "traction", "cycle"}
        and all(len(pair) == 2 for pair in v.values())
        for v in golden.EXPERIMENT_TABLE.values()
    )
    report(4, ok, "experiment columns shipped as reference constants only")
    assert ok


def test_criterion_5_convergence():
    cfg = load_config(preset_path("strong_wind"))
    worst = 0.0
    ok = True
    for gravity in (True, False):
        op = replace(cfg.operation, gravity=gravity)
        rows = convergence_study(cfg.environment, cfg.kite, cfg.tether, op,
                                 [0.1, 0.05, 0.01, 0.001, 1e-4])
        for row in rows[:-1]:
            dev = abs(row["ratio"] - 1.0)
            worst = max(worst, dev)
            ok = ok and dev < 0.03
    report(5, ok, f"zeta_m deviation from dT=1e-4 reference below 3% "
                  f"(worst {100 * worst:.2f}%) for both gravity modes")
    assert ok


def test_criterion_6_massless_limit_equivalence():
    rng = np.random.default_rng(2024)
    wind = WindState(v_w=12.0, rho=1.2)
    checked = 0
    worst = 0.0
    while checked < 1000:
        theta = rng.uniform(math.radians(20), math.radians(85))
        phi = rng.uniform(-math.radians(30), math.radians(30))
        chi = rng.uniform(0.0, 2 * math.pi)
        b = math.sin(theta) * math.cos(phi)
        f = rng.uniform(-1.0, 0.9 * b)
        aero = (rng.uniform(0.3, 1.2), rng.uniform(0.05, 0.4))  # C_L, C_D
        rng.uniform(100.0, 800.0)  # a tether length, which no equilibrium reads
        st = (f, theta, angle_trig(phi, chi))
        try:
            ml = massless_state(*st, *aero, 10.2, *wind)
        except Exception:
            continue
        res = solve_kinematic_ratio(*st, *aero, 0.0, 0.0, 10.2, *wind)  # no tether or kite mass
        for field in ("kappa", "lam", "v_a", "F_a", "F_t_kite", "F_tg", "zeta", "P"):
            a, b_ = getattr(res, field), getattr(ml, field)
            scale = max(abs(b_), 1e-9)
            worst = max(worst, abs(a - b_) / scale)
        checked += 1
    ok = worst <= 1e-6
    report(6, ok, f"gravity-mode and massless-mode agree to 1e-6 over 1000 "
                  f"random states (worst {worst:.2e})")
    assert ok


def test_criterion_7_harvesting_factor_argmax():
    rng = np.random.default_rng(77)
    resolution = 1e-5
    worst = 0.0
    for _ in range(100):
        theta = rng.uniform(math.radians(25), math.radians(90))
        phi = rng.uniform(-math.radians(40), math.radians(40))
        b = math.sin(theta) * math.cos(phi)
        f_grid = np.arange(resolution, b, resolution)
        zeta = f_grid * (b - f_grid) ** 2  # positive prefactors do not move the argmax
        f_star = f_grid[int(np.argmax(zeta))]
        worst = max(worst, abs(f_star - b / 3.0))
    ok = worst <= 2e-5
    report(7, ok, f"brute-force argmax of the harvesting factor at b/3 "
                  f"(worst deviation {worst:.2e}) over 100 random states")
    assert ok


def test_criterion_8_kinematic_ratio_ordering():
    wind = WindState(v_w=7.0, rho=1.225)
    theta = math.radians(65.0)
    failures = []
    kappa_up, kappa_down = {}, {}
    for m in (10.0, 30.0, 50.0):
        for chi_deg, store in ((180.0, kappa_up), (0.0, kappa_down)):
            # f = 0.37, C_L = 1, C_D = 0.2, no tether, S = 16.7 m2
            problem = (0.37, theta, angle_trig(0.0, math.radians(chi_deg)), 1.0, 0.2, 0.0, m,
                       16.7, *wind)
            try:
                res = solve_kinematic_ratio(*problem)
            except SteadyStateError:
                failures.append(f"m={m:.0f}:chi={chi_deg:.0f}: no quasi-steady solution")
                continue
            store[m] = res.kappa
            scan, residual = grid_scan_kappa(*problem)
            if residual > 1e-3 or abs(res.kappa / scan - 1.0) > 1e-4:
                failures.append(f"m={m:.0f}:chi={chi_deg:.0f}: grid-scan mismatch")
            if chi_deg == 180.0 and not res.kappa < 5.0:
                failures.append(f"m={m:.0f}: kappa_up {res.kappa:.3f} not < 5")
            if chi_deg == 0.0 and not res.kappa > 5.0:
                failures.append(f"m={m:.0f}: kappa_down {res.kappa:.3f} not > 5")
    ups = [kappa_up.get(m) for m in (10.0, 30.0, 50.0)]
    downs = [kappa_down.get(m) for m in (10.0, 30.0, 50.0)]
    if None in ups or not ups[0] > ups[1] > ups[2]:
        failures.append(f"kappa(180) not strictly decreasing in m: {ups}")
    if None in downs or not downs[0] < downs[1] < downs[2]:
        failures.append(f"kappa(0) not strictly increasing in m: {downs}")
    ok = not failures
    report(8, ok, "kinematic-ratio ordering for m in {10, 30, 50} kg"
           + ("" if ok else f"; {failures}"))
    assert ok, failures


def test_criterion_9_estimation_round_trip(tmp_path):
    telemetry = tmp_path / "telemetry.csv"
    out = tmp_path / "sim"
    assert run_command(["simulate", "--config", "strong_wind", "--out", str(out),
                        "--telemetry-out", str(telemetry)]) == 0
    cfg = load_config(preset_path("strong_wind"))
    records = read_telemetry_csv(telemetry)
    avg = segment_and_average(records, cfg.kite, cfg.tether, cfg.environment)
    targets = {"C_R_o": 0.71, "C_R_i": 0.18, "LD_k_o": 4.0, "LD_k_i": 3.1}
    deviations = {k: abs(getattr(avg, k) / v - 1.0) for k, v in targets.items()}
    ok = all(d <= 0.02 for d in deviations.values())
    detail = ", ".join(f"{k}={getattr(avg, k):.4f} ({100 * d:.2f}%)"
                       for k, d in deviations.items())
    report(9, ok, f"recovered coefficients within 2%: {detail}")
    assert ok, deviations


def test_criterion_10_determinism(tmp_path):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"parameter": "operation.F_out",
                                "values": [2500.0, 3008.0], "objective": "zeta_m"}))
    products = []
    for tag in ("a", "b"):
        sim = tmp_path / f"sim_{tag}"
        telem = tmp_path / f"telem_{tag}.csv"
        est = tmp_path / f"est_{tag}"
        swp = tmp_path / f"swp_{tag}"
        assert run_command(["simulate", "--config", "strong_wind", "--out", str(sim),
                            "--telemetry-out", str(telem)]) == 0
        assert run_command(["estimate", "--config", "strong_wind", "--log", str(telem),
                            "--out", str(est)]) == 0
        assert run_command(["sweep", "--config", "moderate_wind", "--spec", str(spec),
                            "--out", str(swp)]) == 0
        products.append([
            (sim / "cycle_summary.json").read_bytes(),
            (sim / "timeseries.csv").read_bytes(),
            Path(telem).read_bytes(),
            (est / "estimates.csv").read_bytes(),
            (est / "phase_averages.json").read_bytes(),
            (swp / "sweep.csv").read_bytes(),
            (swp / "argmax.json").read_bytes(),
        ])
    ok = products[0] == products[1]
    report(10, ok, "byte-identical outputs across repeated simulate, estimate "
                   "and sweep runs")
    assert ok
