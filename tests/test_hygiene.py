"""Checks on the package source itself: no ``assert`` (``python -O`` strips
it, so invariants raise typed errors) and no floating point outside the
SVG renderer."""

import ast
import pathlib

import peritrope

MODULES = sorted(pathlib.Path(peritrope.__file__).parent.glob("*.py"))


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


def test_every_module_is_checked():
    assert {"graphs.py", "fixedlp.py", "render.py", "zonotopes.py"} <= {p.name for p in MODULES}


def test_no_assert_statements():
    found = [f"{p.name}:{n.lineno}" for p in MODULES for n in _nodes(p) if isinstance(n, ast.Assert)]
    assert found == []


def test_no_floating_point_outside_render():
    found = [
        f"{p.name}:{n.lineno}"
        for p in MODULES
        if p.name != "render.py"
        for n in _nodes(p)
        if (isinstance(n, ast.Name) and n.id == "float")
        or (isinstance(n, ast.Constant) and isinstance(n.value, float))
    ]
    assert found == []
