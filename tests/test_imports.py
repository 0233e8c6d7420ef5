"""Module boundaries in src/dirp: no module imports another's private names,
every error a module raises is one that cli.main maps to an exit code, only
dirp.precision decides how a number argument becomes a Fraction, and only it
and dirp.quadratic test a value against a number type."""

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


def _raw_fraction_calls(path: Path) -> list[str]:
    """`Fraction(...)` calls in a public function or method of path that pass
    one of its own parameters as an argument.  A number argument is read by
    precision.read_number or to_fraction, which refuse floats and bound text;
    Fraction(x) would take a float and read text without the bound."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    scopes += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    found = []
    for name, fn in scopes:
        if fn.name.startswith("_") and not fn.name.endswith("__"):
            continue
        args = fn.args
        params = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg] if a is not None}
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("Fraction",
                                                                       "fractions.Fraction"):
                found += [f"{path.name}:{node.lineno} {name} passes {arg.id} to Fraction"
                          for arg in node.args if isinstance(arg, ast.Name) and arg.id in params]
    return found


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "precision.py"],
                         ids=lambda p: p.name)
def test_only_precision_reads_a_number_argument(path):
    assert _raw_fraction_calls(path) == []


def test_fraction_checker_flags_a_parameter_passed_to_fraction(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def scale(x, y=1):\n"
                     "    return Fraction(x) * Fraction(2, 3)\n"
                     "def _private(x):\n"
                     "    return Fraction(x)\n"
                     "class Box:\n"
                     "    def __init__(self, w):\n"
                     "        self.w = fractions.Fraction(1, w)\n"
                     "    def read(self, w):\n"
                     "        return to_fraction(w) + Fraction(len(w))\n"
                     "def outer(a):\n"
                     "    def inner(b):\n"
                     "        return Fraction(b)\n"
                     "    return inner(a)\n")
    assert _raw_fraction_calls(probe) == ["probe.py:2 scale passes x to Fraction",
                                          "probe.py:7 Box.__init__ passes w to Fraction"]


NUMBER_CLASSES = {"int", "float", "Fraction", "Decimal", "Number", "Complex", "Real",
                  "Rational", "Integral"}


def _number_isinstance_calls(path: Path) -> list[str]:
    """`isinstance` calls in path whose class, alone or in a tuple, is int,
    float, Fraction, Decimal or a numbers class, by bare or dotted name.
    QuadExact.of reads an operand and precision.read_number an argument;
    a module that tests number types itself makes a second policy."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                and len(node.args) == 2):
            continue
        classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        found += [f"{path.name}:{node.lineno} isinstance against {ast.unparse(c)}"
                  for c in classes if ast.unparse(c).split(".")[-1] in NUMBER_CLASSES]
    return found


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name not in ("precision.py", "quadratic.py")],
                         ids=lambda p: p.name)
def test_only_precision_and_quadratic_test_number_types(path):
    assert _number_isinstance_calls(path) == []


def test_number_type_checker_flags_each_number_class(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("isinstance(x, int)\n"
                     "isinstance(x, (str, fractions.Fraction))\n"
                     "isinstance(x, numbers.Rational)\n"
                     "if isinstance(x, CertifiedReal) or isinstance(x, (list, tuple)):\n"
                     "    pass\n"
                     "isinstance(x, (Decimal, float))\n"
                     "isinstance(x, Integral)\n"
                     "isinstance(x, bool)\n")
    assert _number_isinstance_calls(probe) == [
        "probe.py:1 isinstance against int",
        "probe.py:2 isinstance against fractions.Fraction",
        "probe.py:3 isinstance against numbers.Rational",
        "probe.py:6 isinstance against Decimal",
        "probe.py:6 isinstance against float",
        "probe.py:7 isinstance against Integral"]


# cli.main maps DirpError, ValueError and ArithmeticError (ZeroDivisionError
# and OverflowError among them) to exit codes; TypeError reports library misuse
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
