"""The README describes the package as it is."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_layout_lists_every_module():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = set(re.findall(r"^\s+(\w+\.py)\s", block, flags=re.M))
    modules = {p.name for p in (ROOT / "src" / "umbilic").glob("*.py")}
    assert listed == modules - {"__init__.py"}
