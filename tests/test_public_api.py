"""Every public name of degenpop has a caller outside the tests."""

import ast
import re
import types
from pathlib import Path

import degenpop as dp

ROOT = Path(__file__).resolve().parents[1]

#: Public names that nothing in the package, the demos, the benchmark or the
#: README's code calls, each with the reason the API keeps it.
UNCALLED = {
    "TabulatedDispersion": "the only way to pass a general k",
    "TabulatedRate": "the only rate that varies in t, a and x at once",
}


def _called_names() -> set:
    """Names read in the package (its __init__ aside), the demos and the
    benchmark, and every word of the README's code blocks."""
    paths = [p for p in (ROOT / "src" / "degenpop").glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    for block in re.findall(r"```\w*\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S):
        names.update(re.findall(r"\w+", block))
    return names


def test_every_public_name_has_a_caller():
    public = {name for name in dp.__all__
              if not isinstance(getattr(dp, name), types.ModuleType)}
    uncalled = public - _called_names()
    assert uncalled == set(UNCALLED), "public names without a caller outside tests/"
