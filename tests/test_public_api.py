"""Every public name of degenpop, and every parameter of it that has a
default, has a caller outside the tests; and no public callable that takes a
weight family also takes the coefficients or the grid the family carries."""

import ast
import inspect
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

#: Public parameters with a default that no call outside the tests passes,
#: each with the reason the API keeps it.
UNPASSED = {
    "SeparableRate.time_factor": "the only way to give a rate a time factor without tabulating it",
    "SeparableRate.gene_factor": "the only way to give a rate a gene factor without tabulating it",
}


def _readme_blocks():
    """(language, code) of every fenced block of the README."""
    return re.findall(r"```(\w*)\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)


def _trees():
    """Syntax trees of the package (its __init__ aside), the demos, the
    benchmark and the README's python blocks."""
    paths = [p for p in (ROOT / "src" / "degenpop").glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    trees = [ast.parse(path.read_text(), str(path)) for path in paths]
    return trees + [ast.parse(code) for lang, code in _readme_blocks() if lang == "python"]


def _called_names() -> set:
    """Names read in the package (its __init__ aside), the demos and the
    benchmark, and every word of the README's code blocks."""
    names = set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    for _, code in _readme_blocks():
        names.update(re.findall(r"\w+", code))
    return names


def _callee(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _calls():
    """(callee name, positional argument nodes, keyword nodes) of every call
    in the trees of `_trees`, with functools.partial(f, ...) read as f(...)."""
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func, args = node.func, node.args
                if _callee(func) == "partial" and args:
                    func, args = args[0], args[1:]
                yield _callee(func), args, node.keywords


def _passed(signature, args, keywords) -> set:
    """Parameters of `signature` that a call with these arguments passes."""
    if any(kw.arg is None for kw in keywords):  # **mapping
        return set(signature.parameters)
    positional = [p.name for p in signature.parameters.values()
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    passed = {kw.arg for kw in keywords}
    for i, arg in enumerate(args):
        if isinstance(arg, ast.Starred):  # *sequence
            passed.update(positional[i:])
            break
        passed.update(positional[i:i + 1])
    return passed


def _public_signatures() -> dict:
    return {name: inspect.signature(getattr(dp, name)) for name in dp.__all__
            if callable(getattr(dp, name))}


def test_every_public_name_has_a_caller():
    public = {name for name in dp.__all__
              if not isinstance(getattr(dp, name), types.ModuleType)}
    uncalled = public - _called_names()
    assert uncalled == set(UNCALLED), "public names without a caller outside tests/"


def test_every_public_parameter_has_a_caller():
    signatures = _public_signatures()
    passed = {name: set() for name in signatures}
    for callee, args, keywords in _calls():
        if callee in signatures:
            passed[callee] |= _passed(signatures[callee], args, keywords)
    unpassed = {f"{name}.{param.name}"
                for name, signature in signatures.items()
                for param in signature.parameters.values()
                if param.default is not param.empty and param.name not in passed[name]}
    assert unpassed == set(UNPASSED), "public parameters no call outside tests/ passes"


def test_no_public_callable_takes_a_family_with_its_coeffs_or_grid():
    takes_family = {name: signature for name, signature in _public_signatures().items()
                    if any("WeightFamily" in str(param.annotation)
                           for param in signature.parameters.values())}
    assert {"run_carleman_main", "run_inequality_lab", "Draw", "ExperimentConfig"} <= \
        set(takes_family)
    both = {name for name, signature in takes_family.items()
            if {"coeffs", "grid"} & set(signature.parameters)}
    assert both == set(), "public callables that take a WeightFamily and its coeffs or grid"
