"""Module boundaries in src/dirp: no module imports another's private names,
and every error a module raises is one that cli.main maps to an exit code."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dirp.errors import DirpError, ParseError

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


# cli.main maps DirpError, ValueError and ZeroDivisionError to exit codes;
# TypeError reports library misuse
ALLOWED_BUILTINS = {"ValueError", "ZeroDivisionError", "TypeError"}


def _stray_raises(path: Path, namespace: dict) -> list[str]:
    """`raise` statements in path whose class, looked up by name in the
    module's namespace, is neither a DirpError subclass nor one of
    ALLOWED_BUILTINS; a bare re-raise names no class and is skipped."""
    stray = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        name = ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        cls = namespace.get(name)
        if name not in ALLOWED_BUILTINS and not (isinstance(cls, type)
                                                 and issubclass(cls, DirpError)):
            stray.append(f"{path.name}:{node.lineno} raises {name}")
    return stray


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_raise_names_an_error_cli_main_maps(path):
    module = importlib.import_module(f"dirp.{path.stem}" if path.stem != "__init__" else "dirp")
    assert _stray_raises(path, vars(module)) == []


def test_raise_checker_flags_other_classes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("raise ParseError('x')\n"
                     "raise RuntimeError('cap exceeded')\n"
                     "raise ValueError('v') from None\n"
                     "raise KeyError\n"
                     "raise\n")
    namespace = {"ParseError": ParseError}
    assert _stray_raises(probe, namespace) == ["probe.py:2 raises RuntimeError",
                                               "probe.py:4 raises KeyError"]


def test_import_starts_no_thread():
    # dirp runs on the calling thread: importing it starts no thread and
    # imports no concurrent.futures; dirp.cli imports every other module
    code = ("import sys, threading, dirp.cli\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "assert threading.active_count() == 1, threading.enumerate()\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_every_traced_name_exists():
    # perfbench/tracing.py rebinds each SPANNED name by getattr; a name
    # deleted from dirp would otherwise fail only a traced benchmark run
    path = SRC.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}" for module, names in tracing.SPANNED.items()
               for name in names if not hasattr(importlib.import_module(module), name)]
    assert missing == []
