"""The benchmark's trace spans still find, and see, what they wrap.

``perfbench/spans.py`` wraps kitecycle functions at the module attributes
through which their callers look them up.  A renamed target only prints a
warning into a benchmark log, and a target bound early at import counts
nothing; both fail here instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

from kitecycle import cycle, estimation, load_config, preset_path, replace
from kitecycle.cli import run_command

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans
    return spans


def test_every_trace_target_is_found(spans):
    assert spans.Tracer().missing == []


# Each binding that resolves today, written out: a span that loses one of
# several bindings still counts through the others, so the name check above
# does not see it.
RESOLVED_BINDINGS = [
    ("kitecycle.cli", "run_command"),
    ("kitecycle.cli", "load_config"),
    ("kitecycle.config", "load_config"),
    ("kitecycle.cycle", "wind_state_at"),
    ("kitecycle.atmosphere", "wind_state_at"),
    ("kitecycle.steady_state", "tether_properties"),
    ("kitecycle.cycle", "solve_kinematic_ratio"),
    ("kitecycle.steady_state", "solve_kinematic_ratio"),
    ("kitecycle.cycle", "_solve_reel_factor"),
    ("kitecycle.cycle", "massless_state"),
    ("kitecycle.cli", "simulate_cycle"),
    ("kitecycle.cycle", "simulate_cycle"),
    ("kitecycle.cycle", "simulate_retraction"),
    ("kitecycle.cycle", "simulate_transition"),
    ("kitecycle.cycle", "simulate_traction"),
    ("kitecycle.estimation", "segment_phases"),
    ("kitecycle.estimation", "estimate_record"),
    ("kitecycle.estimation", "segment_and_average"),
    ("kitecycle.dataio", "read_telemetry_csv"),
    ("kitecycle.dataio", "write_cycle_summary"),
    ("kitecycle.dataio", "write_timeseries_csv"),
    ("kitecycle.dataio", "write_estimates_csv"),
    ("kitecycle.dataio", "write_phase_averages"),
]


def test_every_resolved_binding_still_resolves(spans):
    targets = {binding for bindings in spans.TARGETS.values() for binding in bindings}
    assert set(RESOLVED_BINDINGS) <= targets
    unresolved = [(module, attr) for module, attr in RESOLVED_BINDINGS
                  if getattr(importlib.import_module(module), attr, None) is None]
    assert unresolved == []


@pytest.mark.parametrize("gravity", [True, False], ids=["gravity", "massless"])
def test_cycle_spans_count_their_calls(spans, gravity):
    cfg = load_config(preset_path("strong_wind"))
    op = replace(cfg.operation, gravity=gravity)
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = cycle.simulate_cycle(cfg.environment, cfg.kite, cfg.tether, op)
    finally:
        tracer.uninstall()
    calls = {name: acc[0] for name, acc in tracer.per_op()[-1].items()}
    # A step evaluates its phase's bound wind law, which no span wraps; the
    # one call left is the mean traction altitude's, for zeta_m.
    assert calls["atmosphere.wind_state_at"] == 1
    for name in ("cycle.simulate_cycle", "cycle.retraction", "cycle.transition",
                 "cycle.traction"):
        assert calls[name] == 1, name
    if gravity:
        assert calls["steady_state.reel_inversion"] >= res.retraction.steps
        assert calls["steady_state.kinematic_solve"] > 0
    else:
        assert calls["steady_state.closed_form"] > 0


def test_estimate_spans_see_the_read_and_the_writes(spans, tmp_path, strong_telemetry):
    # The estimator reads a log through dataio's binding of the reader, the
    # one the dataio.read span wraps, not its own module's.
    log = tmp_path / "telemetry.csv"
    estimation.write_telemetry_csv(log, strong_telemetry)
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = run_command(["estimate", "--config", "strong_wind", "--log", str(log),
                            "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = {name: acc[0] for name, acc in tracer.per_op()[-1].items()}
    assert calls["dataio.read"] == 1
    assert calls["estimation.segment_phases"] == 1
    assert calls["dataio.write"] == 2


def test_sweep_spans_count_each_point(spans, tmp_path):
    # The sweep's runner looks up cycle.simulate_cycle as it runs, so the
    # span sees each point's cycle.
    spec = tmp_path / "sweep.json"
    spec.write_text('{"parameter": "operation.F_out", "values": [2500.0, 3008.0, 3500.0]}')
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = run_command(["sweep", "--config", "strong_wind", "--spec", str(spec),
                            "--no-gravity", "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = {name: acc[0] for name, acc in tracer.per_op()[-1].items()}
    assert calls.get("cycle.simulate_cycle", 0) == 3
