"""The README's library tour runs as written."""

import re
from pathlib import Path

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
