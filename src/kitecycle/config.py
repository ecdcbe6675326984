"""Run configuration: strict JSON parsing, presets, sweep specifications.

Angles are degrees in files and radians internally.  Parsing is strict:
unknown keys raise ParseError so typos cannot silently fall back to
defaults.  A number may be written as a JSON integer or with a decimal
point: both read as the same float.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, NamedTuple, Optional

from .atmosphere import Environment
from .cycle import OperationSettings
from .errors import ParseError, ValidationError, clip
from .frozen import Frozen
from .steady_state import AeroSet, KiteParams, TetherParams

__all__ = [
    "RunConfig",
    "SweepSpec",
    "load_config",
    "load_sweep_spec",
    "preset_path",
    "PRESET_NAMES",
]

PRESET_NAMES = ("strong_wind", "moderate_wind")
_SWEEP_POINTS_MAX = 10_000  # each point simulates a whole cycle


class RunConfig(NamedTuple):
    """Validated bundle of everything a simulation run needs."""

    environment: Environment
    kite: KiteParams
    tether: TetherParams
    operation: OperationSettings
    out_dir: Optional[str] = None


def _number(value: Any, path: str) -> float:
    """A finite JSON number that fits a float; booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number, got {clip(json.dumps(value))}")
    # Compared, not converted: float() of a huge JSON integer overflows.
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ParseError(f"{path}: expected a finite number, got {clip(str(value))}")
    return float(value)


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string, got {clip(json.dumps(value))}")
    return value


def _take(mapping: dict, context: str, required: tuple[str, ...],
          optional: tuple[str, ...] = (), numbers: bool = True) -> dict:
    """Extract exactly the allowed keys from a parsed JSON object.

    With ``numbers``, every value must be a finite number (see
    :func:`_number`), and a new dict of those numbers as floats is returned.
    """
    if not isinstance(mapping, dict):
        raise ParseError(f"{context}: expected an object, got {type(mapping).__name__}")
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ParseError(f"{context}: unknown key(s) {clip(str(sorted(unknown)))}")
    missing = set(required) - set(mapping)
    if missing:
        raise ParseError(f"{context}: missing key(s) {sorted(missing)}")
    if numbers:
        return {key: _number(value, f"{context}.{key}") for key, value in mapping.items()}
    return mapping


def _config_from_dict(raw: dict) -> RunConfig:
    top = _take(raw, "config", ("environment", "kite", "tether", "operation"),
                ("gravity", "force_at", "out_dir"), numbers=False)

    e = _take(top["environment"], "environment", ("v_w_ref", "z_ref", "z0"),
              ("rho0", "H_rho"))
    environment = Environment(**e)

    k = _take(top["kite"], "kite", ("S", "m", "aero_traction", "aero_retraction"),
              numbers=False)
    aero_o = _take(k["aero_traction"], "kite.aero_traction", ("C_L", "LD_k"))
    aero_i = _take(k["aero_retraction"], "kite.aero_retraction", ("C_L", "LD_k"))
    kite = KiteParams(
        S=_number(k["S"], "kite.S"), m=_number(k["m"], "kite.m"),
        aero_traction=AeroSet(**aero_o),
        aero_retraction=AeroSet(**aero_i),
    )

    t = _take(top["tether"], "tether", ("d_t", "rho_t"), ("C_D_c",))
    tether = TetherParams(**t)

    o = _take(top["operation"], "operation",
              ("beta_deg", "phi_deg", "chi_deg", "r_min", "r_max", "F_out", "F_in"),
              ("dT",))
    operation = OperationSettings(  # o's other keys, gravity and force_at are its own names
        beta_o=math.radians(o.pop("beta_deg")),
        phi_o=math.radians(o.pop("phi_deg")),
        chi_o=math.radians(o.pop("chi_deg")),
        **o,
        **{key: top[key] for key in ("gravity", "force_at") if key in top},
    )
    return RunConfig(
        environment=environment,
        kite=kite,
        tether=tether,
        operation=operation,
        out_dir=_string(top["out_dir"], "config.out_dir") if "out_dir" in top else None,
    )


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict, once no key repeats in it."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        twice = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ValueError(f"duplicate key {clip(repr(twice))}")
    return dict(pairs)


def _read_json(path: Path) -> Any:
    try:  # a BOM is skipped
        return json.loads(path.read_text(encoding="utf-8-sig"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, too many digits, a key twice
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path}: nested too deep") from None


def load_config(path: str | Path, overrides: Optional[dict] = None) -> RunConfig:
    """Parse and validate a run configuration file.

    ``overrides`` maps dotted keys of the file, such as ``operation.F_out``
    or ``gravity``, to values written into it before it is parsed.

    Raises:
        ParseError: on malformed JSON, unknown or missing keys, or a value
            of the wrong kind, naming its key path.
        ValidationError: on invariant violations, naming the invariant,
            or on an override key through a value that is not an object.
    """
    raw = _read_json(Path(path))
    for key, value in (overrides or {}).items():
        node, (*parents, leaf) = raw, key.split(".")
        for name in parents:
            node = node.setdefault(name, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ValidationError(f"cannot set {clip(repr(key))}: a part of it is not an object")
        node[leaf] = value
    return _config_from_dict(raw)


def preset_path(name: str) -> Path:
    """Filesystem path of a bundled preset configuration."""
    if name not in PRESET_NAMES:
        raise ValidationError(f"unknown preset {name!r}; available: {PRESET_NAMES}")
    return Path(__file__).parent / "presets" / f"{name}.json"


class SweepSpec(Frozen):
    """A one-parameter sweep: which scalar to vary, over which values,
    judged by which cycle objective."""

    __slots__ = _fields = ("parameter", "values", "objective")

    def __init__(self, parameter: str, values: tuple[float, ...], objective: str = "P_m"):
        super().__init__(parameter, values, objective)
        if not values:
            raise ValidationError("sweep requires at least one value")
        if objective not in ("P_m", "zeta_m"):
            raise ValidationError("objective must be 'P_m' or 'zeta_m', got "
                                  + clip(repr(objective)))


def load_sweep_spec(path: str | Path) -> SweepSpec:
    path = Path(path)
    spec = _take(_read_json(path), "sweep", ("parameter",), ("values", "range", "objective"),
                 numbers=False)
    if ("values" in spec) == ("range" in spec):
        raise ParseError(f"{path}: exactly one of 'values' or 'range' is required")
    if "values" in spec:
        if not isinstance(spec["values"], list):
            raise ParseError(f"{path}: sweep.values must be a list")
        if len(spec["values"]) > _SWEEP_POINTS_MAX:
            raise ParseError(f"sweep.values: more than the limit of {_SWEEP_POINTS_MAX} points")
        values = tuple(_number(v, f"sweep.values[{i}]") for i, v in enumerate(spec["values"]))
    else:
        rng = _take(spec["range"], "sweep.range", ("start", "stop", "num"))
        num = int(rng["num"])
        if num != rng["num"]:
            raise ParseError(f"sweep.range.num: expected a whole number, got {rng['num']}")
        if num < 2:
            raise ValidationError("sweep range needs num >= 2")
        if num > _SWEEP_POINTS_MAX:
            raise ParseError(f"sweep.range.num: {num:.6g} exceeds the limit of {_SWEEP_POINTS_MAX}")
        start, stop = rng["start"], rng["stop"]
        step = (stop - start) / (num - 1)
        values = tuple(start + i * step for i in range(num))
        if not all(map(math.isfinite, values)):
            raise ParseError(f"sweep.range: {num} values from {start} to {stop} include "
                             "one that is not finite")
    return SweepSpec(parameter=_string(spec["parameter"], "sweep.parameter"), values=values,
                     **({"objective": spec["objective"]} if "objective" in spec else {}))

