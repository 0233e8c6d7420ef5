"""The README's library tour, polynomial-file example, number examples and
random-variable examples run as written."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from dirp.certified import CertifiedReal
from dirp.cli import main
from dirp.constants import e_cr, log2_cr, pi_cr
from dirp.diffusion import parse_rv
from dirp.directions import liouville_constant, parse_entry
from dirp.errors import ParseError
from dirp.precision import read_ratio
from dirp.quadratic import GOLDEN_RATIO, SQRT2, QuadExact

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_executes():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope: dict = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["res"].argmin == (1, -1)
    assert scope["res"].minimum.exact == QuadExact(2, -1, 2)
    assert abs(float(scope["poincare_ratio"](scope["fam"].poly, scope["phi"], 1, 1))
               - 0.8506508) < 1e-6


def test_readme_polynomial_file_is_fib_10(tmp_path, capsys):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    path = tmp_path / "poly.json"
    path.write_text(blocks[0], encoding="utf-8")
    results = []
    for poly in ("@" + str(path), "fib:10"):
        assert main(["norms", poly, "--direction", "dir:[1, quad:(1+sqrt5)/2]"]) == 0
        results.append(json.loads(capsys.readouterr().out)["result"])
    assert results[0] == results[1]


def test_readme_random_variable_examples_parse():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Random variables (diffusion)"):].split("\n\n", 1)[0]
    specs = [s for s in re.findall(r"`([^`]+)`", paragraph)
             if s.split(":", 1)[0] in ("uniform", "atoms", "mix")]
    assert [s.split(":", 1)[0] for s in specs] == ["uniform", "atoms", "mix"]
    for spec in specs:
        parse_rv(spec)  # raises ParseError or ValueError on a spec it rejects


def test_readme_direction_grammar_tokens_parse_to_their_values():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| token | meaning |"):].split("\n\n", 1)[0]
    tokens = [t for row in table.splitlines()[2:]
              for t in re.findall(r"`([^`]+)`", row.split("|")[1])]
    expected = {
        "3": 3,
        "rat:355/113": Fraction(355, 113),
        "quad:sqrt2": SQRT2,
        "quad:(1+sqrt5)/2": GOLDEN_RATIO,
        "quad:-sqrt2": -SQRT2,
        "dec:2.71828": (Fraction("2.71827"), Fraction("2.71829")),
        "cf:[1,2,2,2]": Fraction(17, 12),
        "liouville:10": liouville_constant(10),
        "const:e": e_cr(),
        "const:pi": pi_cr(),
        "const:log2": log2_cr(),
    }
    assert tokens == list(expected)
    for token, value in expected.items():
        x = parse_entry(token)
        if isinstance(value, CertifiedReal):
            assert x.enclosure(60) == value.enclosure(60), token
        elif isinstance(value, tuple):
            assert x.enclosure(60) == value, token
        else:
            assert x.exact == value, token


def test_readme_number_examples_are_read_and_rejected_as_stated():
    text = README.read_text(encoding="utf-8")
    paragraph = text[text.index("Numbers: every rational"):].split("\n\n", 1)[0]
    read_part, _, rejected_part = paragraph.partition("Rejected")
    read = re.findall(r"`([^`]+)`", read_part.rpartition("Read:")[2])
    rejected = re.findall(r"`([^`]+)`", rejected_part)
    assert read == ["0.5", "-1.25E-3", "1/3", "2/4", "1_000", "1e4300"]
    assert rejected == ["1e4301", "1e-3000000", "1/0", "1.2.3", "0x10"]
    for number in read:
        f = Fraction(number)
        assert read_ratio(number) == (f.numerator, f.denominator), number
    for number in rejected:
        with pytest.raises((ValueError, ZeroDivisionError)):
            read_ratio(number)
    with pytest.raises(ParseError):
        parse_entry("dec:1/3")
