"""The benchmark's trace spans still find, and see, what they wrap.

``perfbench/spans.py`` wraps kitecycle functions at the module attributes
through which their callers look them up.  A renamed target only prints a
warning into a benchmark log, and a target bound early at import counts
nothing; both fail here instead.
"""

import sys
from pathlib import Path

import pytest

from kitecycle import cycle, load_config, preset_path, replace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans
    return spans


def test_every_trace_target_is_found(spans):
    assert spans.Tracer().missing == []


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
