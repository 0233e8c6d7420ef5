"""The README's library tour and polynomial-file example run as written."""

import json
import re
from pathlib import Path

from dirp.cli import main
from dirp.quadratic import QuadExact

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
