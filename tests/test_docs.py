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


def test_package_exports_the_names_it_imports():
    import types

    import umbilic

    assert len(umbilic.__all__) == 62
    assert {"write_obj", "read_ply", "run_suite", "SUITE_NAMES"} <= set(umbilic.__all__)
    for name in umbilic.__all__:
        assert not isinstance(getattr(umbilic, name), types.ModuleType)
