import inspect
import re
from pathlib import Path

import kitecycle
from kitecycle.cycle import StepRecord
from kitecycle.dataio import TIMESERIES_COLUMNS
from kitecycle.estimation import TELEMETRY_COLUMNS, LogRecord

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SOURCE = ROOT / "src" / "kitecycle"
# The size the package is held to (ROADMAP's "small" aim): its modules in lines.
LINE_CAP = 2500


def library_section():
    text = README.read_text(encoding="utf-8")
    return text.split("## Library", 1)[1].split("### Conventions", 1)[0]


def test_readme_entry_points_are_importable():
    paragraph = library_section().split("Lower-level entry points:", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`([A-Za-z_]\w*)`", paragraph)
    assert len(names) >= 10
    missing = [name for name in names if not hasattr(kitecycle, name)]
    assert not missing, f"README names entry points kitecycle does not export: {missing}"


def test_every_exported_function_is_in_the_readme():
    # The other direction: an entry point added to the package cannot be
    # left out of README's Library section.  The package resolves its names
    # on first access, so they are read through __all__, not its namespace.
    named = set(re.findall(r"[A-Za-z_]\w*", library_section()))
    exported = [name for name in kitecycle.__all__
                if inspect.isfunction(getattr(kitecycle, name))]
    assert len(exported) >= 18
    missing = [name for name in exported if name not in named]
    assert not missing, f"README's Library section does not name: {missing}"


def test_readme_library_examples_run():
    # In order and in one namespace: the second example uses the first's cfg.
    blocks = re.findall(r"```python\n(.*?)```", library_section(), re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_gives_the_step_record_fields():
    fields = re.search(r"`StepRecord`'s\s+ten fields `([^`]*)`",
                       library_section()).group(1)
    assert fields.split(", ") == list(StepRecord._fields)


def test_readme_gives_the_log_record_fields():
    fields = re.search(r"`LogRecord`'s\s+twelve fields\s+`([^`]*)`",
                       library_section()).group(1)
    assert fields.split(", ") == list(LogRecord._fields)


def test_readme_column_lists_are_the_written_columns():
    text = README.read_text(encoding="utf-8")
    lists = {}
    for name in ("`timeseries.csv` columns:", "Telemetry CSV columns:"):
        lists[name] = re.search(re.escape(name) + r"\s*`([^`]*)`", text).group(1).split(",")
    assert lists["`timeseries.csv` columns:"] == TIMESERIES_COLUMNS
    assert lists["Telemetry CSV columns:"] == TELEMETRY_COLUMNS


def test_package_stays_within_the_line_cap():
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines())
             for path in SOURCE.glob("*.py")}
    assert len(lines) >= 10
    assert sum(lines.values()) <= LINE_CAP, lines
