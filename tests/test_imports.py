"""Module boundaries in src/dirp: no module imports another's private names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dirp"


def _private_imports(path: Path) -> list[str]:
    """`from .mod import _name` (or `from dirp.mod import _name`) lines in path;
    dunder names such as __version__ are public."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "dirp":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.endswith("__"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_a_module_boundary(path):
    assert _private_imports(path) == []


def test_checker_sees_relative_and_absolute_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .spectral import _sd, parseval_sums\n"
                     "from dirp.directions import _x\n"
                     "from . import __version__\n"
                     "from math import _private\n")
    assert _private_imports(probe) == ["probe.py:1 imports _sd", "probe.py:2 imports _x"]
