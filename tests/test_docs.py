import re
from pathlib import Path

import kitecycle

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_entry_points_are_importable():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("Lower-level entry points:", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`([A-Za-z_]\w*)`", paragraph)
    assert len(names) >= 10
    missing = [name for name in names if not hasattr(kitecycle, name)]
    assert not missing, f"README names entry points kitecycle does not export: {missing}"
