"""Size the differences between two output trees of ``output_digests.py``.

Usage, from the repository root:

    python3 tools/output_diff.py A B

A and B are the OUT_DIR arguments of two ``tools/output_digests.py`` runs,
for example on two checkouts.  For every file under ``runs/`` whose bytes
differ, one line gives the file, the largest relative difference
|a - b| / max(|a|, |b|) over all numbers in it (CSV cells, JSON numbers,
or the numbers in a text file) and the count of differences that are not
numeric: other text, a missing key or a row count.  For a CSV file it
also gives the largest |a - b| over the largest magnitude in that
column, which stays small where a value passes through zero.  The line
ends with what differs: for a CSV file the header names of the columns
with a differing cell, for a JSON file the key paths with a differing
value, such as ``phases.traction.energy`` (``[i]`` for a list index).  A
file that exists on one side only is reported as such.  The exit code is
0 when every file is identical and 1 otherwise.  Standard library only.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from pathlib import Path

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class Diff:
    """Largest relative numeric difference, count of other differences and
    the names (CSV columns or JSON key paths) whose values differ."""

    def __init__(self):
        self.rel = 0.0
        self.column_rel = None
        self.other = 0
        self.names = {}  # insertion-ordered set

    def numbers(self, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        scale = max(abs(a), abs(b))
        self.rel = max(self.rel, abs(a - b) / scale if math.isfinite(scale) else math.inf)

    def other_at(self, name: str, count: int = 1) -> None:
        """Count ``count`` non-numeric differences at ``name``."""
        self.other += count
        if name:
            self.names[name] = None

    def values(self, a, b, name: str = "") -> None:
        """Compare two scalars: numbers by size, anything else by equality;
        ``name`` is recorded where they differ."""
        if _is_number(a) and _is_number(b):
            self.numbers(float(a), float(b))
            if a != b and name:
                self.names[name] = None
        elif a != b:
            self.other_at(name)


def _is_number(value) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return True
    try:
        float(value)
    except (TypeError, ValueError):
        return False
    return True


def _json(a, b, diff: Diff, path: str = "") -> None:
    """Compare two JSON values whose key path is ``path`` ("" at the top)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(key for key in b if key not in a)]:  # in file order
            name = f"{path}.{key}" if path else key
            if key in a and key in b:
                _json(a[key], b[key], diff, name)
            else:
                diff.other_at(name)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diff.other_at(path, abs(len(a) - len(b)))
        for i, (x, y) in enumerate(zip(a, b)):
            _json(x, y, diff, f"{path}[{i}]")
    elif isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
        diff.other_at(path)
    else:
        diff.values(a, b, path)


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _tokens(text: str) -> list[str]:
    """Numbers and the text between them, alternating."""
    return [token for token in re.split(f"({_NUMBER.pattern})", text) if token]


def _column_scaled(rows_a: list[list[str]], rows_b: list[list[str]]) -> float:
    """Largest |a - b| of a numeric cell over its column's largest magnitude."""
    scale, worst = {}, {}
    for row_a, row_b in zip(rows_a, rows_b):
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            gap = abs(float(x) - float(y)) if _is_number(x) and _is_number(y) else 0.0
            if gap > 0.0:  # so its column has a nonzero magnitude
                worst[j] = max(worst.get(j, 0.0), gap)
    for row in rows_a + rows_b:
        for j, x in enumerate(row):
            if j in worst and _is_number(x):
                scale[j] = max(scale.get(j, 0.0), abs(float(x)))
    return max((worst[j] / scale[j] for j in worst), default=0.0)


def compare(a: Path, b: Path) -> Diff:
    diff = Diff()
    if a.suffix == ".json":
        _json(json.loads(a.read_text(encoding="utf-8")),
              json.loads(b.read_text(encoding="utf-8")), diff)
        return diff
    header = []
    if a.suffix == ".csv":
        rows_a, rows_b = _rows(a), _rows(b)
        diff.column_rel = _column_scaled(rows_a, rows_b)
        header = rows_a[0] if rows_a else []
    else:
        rows_a = [_tokens(line) for line in a.read_text(encoding="utf-8").splitlines()]
        rows_b = [_tokens(line) for line in b.read_text(encoding="utf-8").splitlines()]
    diff.other += abs(len(rows_a) - len(rows_b))
    for row_a, row_b in zip(rows_a, rows_b):
        diff.other += abs(len(row_a) - len(row_b))
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            diff.values(x, y, header[j] if j < len(header) else "")
    diff.names = dict.fromkeys(name for name in header if name in diff.names)
    return diff


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/output_diff.py A B", file=sys.stderr)
        return 2
    runs = [Path(arg) / "runs" for arg in argv]
    for tree in runs:
        if not tree.is_dir():
            print(f"{tree} is not a directory", file=sys.stderr)
            return 2
    files = [{path.relative_to(tree).as_posix() for path in tree.rglob("*") if path.is_file()}
             for tree in runs]
    differing = 0
    for name in sorted(files[0] | files[1]):
        if name not in files[0] or name not in files[1]:
            side = argv[1] if name in files[1] else argv[0]
            print(f"{name}: only in {side}")
            differing += 1
            continue
        a, b = runs[0] / name, runs[1] / name
        if a.read_bytes() == b.read_bytes():
            continue
        diff = compare(a, b)
        differing += 1
        column = "" if diff.column_rel is None else f", column-scaled {diff.column_rel:.3g}"
        kind = "columns" if diff.column_rel is not None else "keys"
        names = f"; {kind} {', '.join(diff.names)}" if diff.names else ""
        print(f"{name}: max relative difference {diff.rel:.3g}{column}, "
              f"non-numeric differences {diff.other}{names}")
    print(f"{differing} of {len(files[0] | files[1])} files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
