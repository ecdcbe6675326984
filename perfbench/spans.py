"""Spans around the public functions of each kitecycle layer.

The wrappers are installed from outside the program: each target is a
function at the module attribute through which its caller binds it, so a
function imported by name into two modules is wrapped in both.  A span
records its name, start, end, parent span and op; spans stay in memory
and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

# Span name -> (module, attribute) bindings to wrap.  Names are layer
# names, never private symbols: a private target (cycle binding the
# steady_state reel-factor search) is only one of the places it is looked
# for.
TARGETS = {
    "cli.run_command": [("kitecycle.cli", "run_command")],
    "config.load_config": [("kitecycle.cli", "load_config"),
                           ("kitecycle.config", "load_config")],
    "atmosphere.wind_state_at": [("kitecycle.cycle", "wind_state_at"),
                                 ("kitecycle.atmosphere", "wind_state_at")],
    "steady_state.tether_properties": [("kitecycle.cycle", "tether_properties"),
                                       ("kitecycle.steady_state", "tether_properties")],
    "steady_state.kinematic_solve": [("kitecycle.cycle", "solve_kinematic_ratio"),
                                     ("kitecycle.steady_state", "solve_kinematic_ratio")],
    "steady_state.reel_inversion": [("kitecycle.cycle", "_solve_reel_factor"),
                                    ("kitecycle.cycle", "reel_factor_for_force_gravity")],
    "steady_state.closed_form": [("kitecycle.cycle", "massless_state"),
                                 ("kitecycle.cycle", "reel_factor_for_force_massless")],
    "cycle.simulate_cycle": [("kitecycle.cli", "simulate_cycle"),
                             ("kitecycle.cycle", "simulate_cycle")],
    "cycle.retraction": [("kitecycle.cycle", "simulate_retraction")],
    "cycle.transition": [("kitecycle.cycle", "simulate_transition")],
    "cycle.traction": [("kitecycle.cycle", "simulate_traction")],
    "estimation.segment_phases": [("kitecycle.cli", "segment_phases"),
                                  ("kitecycle.estimation", "segment_phases")],
    "estimation.estimate_record": [("kitecycle.cli", "estimate_record"),
                                   ("kitecycle.estimation", "estimate_record")],
    "estimation.segment_and_average": [("kitecycle.cli", "segment_and_average"),
                                       ("kitecycle.estimation", "segment_and_average")],
    "dataio.read": [("kitecycle.dataio", "read_telemetry_csv")],
    "dataio.write": [("kitecycle.dataio", name) for name in (
        "write_cycle_summary", "write_timeseries_csv",
        "write_estimates_csv", "write_phase_averages")],
}

# Per-span value taken from the wrapped call's result, summed per name.
_VALUES = {
    "steady_state.kinematic_solve": lambda res: getattr(res, "iterations", 0),
    "estimation.estimate_record": lambda res: int(getattr(res, "valid", 0)),
}

# Per-layer metrics that need a span name; they are absent when that
# span's targets are all missing.
NEEDS = {
    "cli.self_share": "cli.run_command",
    "config.load_ms": "config.load_config",
    "atmosphere.calls_per_step": "atmosphere.wind_state_at",
    "atmosphere.self_us_per_step": "atmosphere.wind_state_at",
    "steady_state.solves_per_step": "steady_state.kinematic_solve",
    "steady_state.iters_per_solve": "steady_state.kinematic_solve",
    "steady_state.solve_us": "steady_state.kinematic_solve",
    "steady_state.failed_solve_ratio": "steady_state.reel_inversion",
    "steady_state.inversions_per_step": "steady_state.reel_inversion",
    "steady_state.inversion_us": "steady_state.reel_inversion",
    "steady_state.closed_form_us": "steady_state.closed_form",
    "cycle.step_us.retraction": "cycle.retraction",
    "cycle.step_us.transition": "cycle.transition",
    "cycle.step_us.traction": "cycle.traction",
    "estimation.record_calls_per_sample": "estimation.estimate_record",
    "estimation.valid_ratio": "estimation.estimate_record",
    "estimation.segment_ms": "estimation.segment_phases",
    "dataio.read_ms": "dataio.read",
    "dataio.write_ms": "dataio.write",
}

NAMES = list(TARGETS)
_COLUMNS = ("id", "name", "start", "end", "parent", "op", "raised", "value")


class Tracer:
    """Span recorder.  ``install`` patches every target found and
    ``uninstall`` restores the originals, so traced and untraced ops can
    alternate in one process."""

    def __init__(self):
        self.cols = {c: array("q") for c in _COLUMNS}
        self.next_id = 0
        self.current = -1
        self.op = -1
        self.patches: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        wrappers: dict[tuple[str, int], object] = {}
        for name, bindings in TARGETS.items():
            found = False
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                found = True
                key = (name, id(original))
                if key not in wrappers:
                    wrappers[key] = self._wrap(NAMES.index(name), original,
                                               _VALUES.get(name))
                self.patches.append((module, attr, original, wrappers[key]))
            if not found:
                self.missing.append(name)
                tried = ", ".join(f"{m}.{a}" for m, a in bindings)
                print(f"perfbench: warning: trace target {name} not found "
                      f"(tried {tried}); its metrics are absent", file=sys.stderr)

    def _wrap(self, name_id: int, fn, value_of):
        cols = self.cols
        ids, names, starts, ends = cols["id"], cols["name"], cols["start"], cols["end"]
        parents, ops, raised_col, values = (cols["parent"], cols["op"],
                                            cols["raised"], cols["value"])

        def wrapper(*args, **kwargs):
            span = self.next_id
            self.next_id = span + 1
            parent = self.current
            self.current = span
            raised, value = 1, 0
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = 0
                if value_of is not None:
                    value = value_of(result)
                return result
            finally:
                end = perf_counter_ns()
                self.current = parent
                ids.append(span)
                names.append(name_id)
                starts.append(start)
                ends.append(end)
                parents.append(parent)
                ops.append(self.op)
                raised_col.append(raised)
                values.append(value)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self.patches:
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Spans as one int64 column after another, in native byte order
        and in the column order given in ``<path>.json``."""
        with open(path, "wb") as fh:
            for c in _COLUMNS:
                self.cols[c].tofile(fh)
        Path(f"{path}.json").write_text(json.dumps(
            {"columns": list(_COLUMNS), "rows": len(self.cols["id"]),
             "names": NAMES, "time_unit": "ns"}) + "\n", encoding="utf-8")

    def per_op(self) -> dict[int, dict[str, list[int]]]:
        """Per op and span name: [calls, duration, self time, value sum,
        raised calls, kinematic solves made inside a reel inversion,
        those of them that raised].  Times in ns."""
        c = self.cols
        n = len(c["id"])
        # Spans are stored as they close; ids run from 0 in opening order.
        row_of = array("q", bytes(8 * n))
        for row, span in enumerate(c["id"]):
            row_of[span] = row
        child = array("q", bytes(8 * n))
        for row in range(n):
            parent = c["parent"][row]
            if parent >= 0:
                child[row_of[parent]] += c["end"][row] - c["start"][row]
        solve = NAMES.index("steady_state.kinematic_solve")
        inversion = NAMES.index("steady_state.reel_inversion")
        out: dict[int, dict[str, list[int]]] = {}
        for row in range(n):
            name = NAMES[c["name"][row]]
            acc = out.setdefault(c["op"][row], {}).setdefault(name, [0] * 7)
            dur = c["end"][row] - c["start"][row]
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child[row]
            acc[3] += c["value"][row]
            acc[4] += c["raised"][row]
            parent = c["parent"][row]
            if (c["name"][row] == solve and parent >= 0
                    and c["name"][row_of[parent]] == inversion):
                acc[5] += 1
                acc[6] += c["raised"][row]
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(per_op: dict[int, dict[str, list[int]]], ops: list[dict],
                  first: set[int], missing: list[str]) -> dict[str, float]:
    """Per-layer metrics of the traced ops.

    ``ops[i]`` describes traced op ``i``: its ``steps`` and ``phase_steps``
    (cycle workloads), ``samples`` (estimate) and ``bytes``.  Counts come
    from the ops in ``first`` (the first traced run of each input), so they
    repeat exactly for a seed; times come from every traced op.  A layer
    with no work in a workload reads 0.
    """
    def total(name: str, field: int, which=None) -> int:
        return sum(per_op.get(i, {}).get(name, [0] * 7)[field]
                   for i in (range(len(ops)) if which is None else which))

    def layer_self(prefix: str) -> int:
        return sum(acc[2] for spans in per_op.values()
                   for name, acc in spans.items() if name.startswith(prefix))

    n_ops = len(ops)
    steps = sum(op.get("steps", 0) for op in ops)
    steps_first = sum(ops[i].get("steps", 0) for i in first)
    samples = sum(op.get("samples", 0) for op in ops)
    samples_first = sum(ops[i].get("samples", 0) for i in first)
    phase_steps = {p: sum(op.get("phase_steps", {}).get(p, 0) for op in ops)
                   for p in ("retraction", "transition", "traction")}
    root_ns = total("cli.run_command", 1)
    solve, inversion = "steady_state.kinematic_solve", "steady_state.reel_inversion"
    solves_ok_first = total(solve, 0, first) - total(solve, 4, first)
    est = "estimation.estimate_record"
    metrics = {
        "cli.self_share": _ratio(total("cli.run_command", 2), root_ns),
        "config.load_ms": _ratio(total("config.load_config", 1), n_ops) / 1e6,
        "atmosphere.calls_per_step": _ratio(total("atmosphere.wind_state_at", 0, first),
                                            steps_first),
        "atmosphere.self_us_per_step": _ratio(layer_self("atmosphere."), steps) / 1e3,
        "steady_state.solves_per_step": _ratio(total(solve, 0, first), steps_first),
        "steady_state.iters_per_solve": _ratio(total(solve, 3, first), solves_ok_first),
        "steady_state.solve_us": _ratio(total(solve, 1), total(solve, 0)) / 1e3,
        "steady_state.failed_solve_ratio": _ratio(total(inversion, 6, first),
                                                  total(inversion, 5, first)),
        "steady_state.inversions_per_step": _ratio(total(inversion, 0, first), steps_first),
        "steady_state.inversion_us": _ratio(total(inversion, 1), total(inversion, 0)) / 1e3,
        "steady_state.self_share": _ratio(layer_self("steady_state."), root_ns),
        "steady_state.closed_form_us": _ratio(total("steady_state.closed_form", 1),
                                              total("steady_state.closed_form", 0)) / 1e3,
        "cycle.steps_per_op": _ratio(steps_first, len(first)),
        **{f"cycle.step_us.{p}": _ratio(total(f"cycle.{p}", 1), phase_steps[p]) / 1e3
           for p in phase_steps},
        "cycle.self_us_per_step": _ratio(layer_self("cycle."), steps) / 1e3,
        "estimation.record_calls_per_sample": _ratio(total(est, 0, first), samples_first),
        "estimation.sample_us": _ratio(layer_self("estimation."), samples) / 1e3,
        "estimation.valid_ratio": _ratio(total(est, 3, first), total(est, 0, first)),
        "estimation.segment_ms": _ratio(total("estimation.segment_phases", 1), n_ops) / 1e6,
        "dataio.read_ms": _ratio(total("dataio.read", 1), n_ops) / 1e6,
        "dataio.write_ms": _ratio(total("dataio.write", 1), n_ops) / 1e6,
        "dataio.bytes_written": _ratio(sum(ops[i].get("bytes", 0) for i in first), len(first)),
    }
    return {k: v for k, v in metrics.items() if NEEDS.get(k) not in missing}
