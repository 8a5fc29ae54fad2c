"""Checks on the package source itself: no ``assert`` (``python -O`` strips
it, so invariants raise typed errors), no floating point (the SVG
renderer rounds its decimals in integers too), no state that outlives a
call (a module-level container or a ``functools`` cache would grow with
its inputs across calls), and no indented ``json.dump``/``json.dumps``
(an indent selects the pure-Python encoder; ``cli._json_text`` writes
those bytes), no import upward from the polytrope layer (``polytropes``
and ``fixedlp``) into the modules built on it, no ``dataclasses``
import, no ``numpy``, ``scipy`` or ``networkx`` import (CI installs only
pytest and hypothesis, and every solver path stays in exact integers),
and no import the module does not read.  Every function that
``bench/tracer.py`` wraps by name is still there to wrap, and every
top-level function and class is reached by name from a command, an
acceptance criterion, an oracle or a traced target, or is kept on
purpose.

Each command is one process, so start-up is part of its cost.
``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and ``tokenize``,
which nothing else in a command needs, and every ``@dataclass`` compiles
and execs generated source for its methods: with no bytecode cache that
was about a third of ``import peritrope.cli``.  The records are
``collections.namedtuple`` subclasses instead, and the SVG renderer
loads only when a picture is drawn.  ``argparse`` (with ``gettext`` and
``locale``) stays unloaded too: the CLI reads argv by its own flag table."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import peritrope

MODULES = sorted(pathlib.Path(peritrope.__file__).parent.glob("*.py"))

CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
CACHES = {"cache", "lru_cache"}


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


def _import_time_statements(body):
    """Statements that run on import: the module body and the bodies of
    its classes and blocks, but not of its functions."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _import_time_statements(getattr(node, field, []))


def _is_container(value):
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in CONTAINERS
    return False


def state_across_calls(source):
    """Line numbers of module-level container bindings and of every use of
    ``functools.cache`` or ``functools.lru_cache``."""
    tree = ast.parse(source)
    found = [
        node.lineno
        for node in _import_time_statements(tree.body)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_container(node.value)
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name in CACHES]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            found.append(node.lineno)
    return sorted(found)


def test_every_module_is_checked():
    assert {"graphs.py", "fixedlp.py", "render.py", "zonotopes.py"} <= {p.name for p in MODULES}


def test_no_assert_statements():
    found = [f"{p.name}:{n.lineno}" for p in MODULES for n in _nodes(p) if isinstance(n, ast.Assert)]
    assert found == []


def test_no_floating_point():
    found = [
        f"{p.name}:{n.lineno}"
        for p in MODULES
        for n in _nodes(p)
        if (isinstance(n, ast.Name) and n.id == "float")
        or (isinstance(n, ast.Constant) and isinstance(n.value, float))
    ]
    assert found == []


def test_no_state_outlives_a_call():
    found = [
        f"{p.name}:{line}"
        for p in MODULES
        for line in state_across_calls(p.read_text(encoding="utf-8"))
    ]
    assert found == []


def indented_json_calls(source):
    """Line numbers of ``json.dump``/``json.dumps`` calls (by attribute or
    by imported name) that pass ``indent=``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("dump", "dumps") and any(k.arg == "indent" for k in node.keywords):
            found.append(node.lineno)
    return sorted(found)


def test_no_indented_json_dumps():
    found = [
        f"{p.name}:{line}"
        for p in MODULES
        for line in indented_json_calls(p.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_indented_json_calls_are_found():
    source = (
        "import json\nfrom json import dumps\n"
        "a = json.dumps(x)\nb = json.dumps(x, indent=2)\nc = dumps(x, indent=None)\n"
        "json.dump(x, handle, sort_keys=True, indent=1)\n"
    )
    assert indented_json_calls(source) == [4, 5, 6]


@pytest.mark.parametrize(
    "source",
    [
        "SEEN = {}",
        "SEEN: list = []",
        "SEEN = set()",
        "SEEN = collections.defaultdict(int)",
        "SEEN = {k: 0 for k in range(3)}",
        "class Solver:\n    seen = dict()",
        "try:\n    pass\nexcept ImportError:\n    SEEN = []",
        "import functools\n@functools.lru_cache(maxsize=None)\ndef f(x):\n    return x",
        "from functools import cache\n@cache\ndef f(x):\n    return x",
    ],
)
def test_state_across_calls_is_found(source):
    assert state_across_calls(source) != []


def test_constants_and_per_call_state_pass():
    source = (
        "CAP = 10\nPALETTE = ('#fff',)\n_parser = None\n"
        "def f(x):\n    seen = {}\n    return seen\n"
        "class Memo:\n    def __init__(self):\n        self.seen = {}\n"
    )
    assert state_across_calls(source) == []


def package_imports(source):
    """The package modules a module's source imports, by relative or
    absolute name: ``from .x import y``, ``from . import x``,
    ``from peritrope.x import y`` and ``import peritrope.x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "peritrope":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "peritrope" and rest:
                    found.add(rest.split(".")[0])
    return found


UPPER_LAYERS = {"zonotopes", "search", "exact", "render", "cli"}


@pytest.mark.parametrize("name", ["polytropes.py", "fixedlp.py"])
def test_the_polytrope_layer_imports_nothing_built_on_it(name):
    (path,) = [p for p in MODULES if p.name == name]
    assert package_imports(path.read_text(encoding="utf-8")) & UPPER_LAYERS == set()


def test_package_imports_are_found():
    source = (
        "import json\nfrom .graphs import x\nfrom . import zonotopes, cli\n"
        "from peritrope.search import y\nimport peritrope.exact\nfrom json import dumps\n"
        "def f():\n    from .render import g\n"
    )
    assert package_imports(source) == {"graphs", "zonotopes", "cli", "search", "exact", "render"}


def imports_of(source, modules):
    """Line numbers of every import of a module whose top-level name is in
    ``modules``, also inside functions; relative imports are the package's."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] in modules for name in names):
            found.append(node.lineno)
    return found


def dataclasses_imports(source):
    """Line numbers of every ``dataclasses`` import, also inside functions."""
    return imports_of(source, {"dataclasses"})


def test_no_dataclasses_import():
    found = [
        f"{p.name}:{line}"
        for p in MODULES
        for line in dataclasses_imports(p.read_text(encoding="utf-8"))
    ]
    assert found == []


NUMERICAL = {"numpy", "scipy", "networkx"}


def test_no_numpy_scipy_or_networkx_import():
    found = [
        f"{p.name}:{line}"
        for p in MODULES
        for line in imports_of(p.read_text(encoding="utf-8"), NUMERICAL)
    ]
    assert found == []


def test_numerical_imports_are_found():
    source = (
        "import numpy as np\nfrom scipy.optimize import milp\nimport json, networkx\n"
        "def f():\n    import scipy.sparse\n    from networkx.algorithms import tree\n"
    )
    assert imports_of(source, NUMERICAL) == [1, 2, 3, 5, 6]


def test_a_source_without_numerical_imports_passes():
    source = (
        "import numbers\nfrom .numpy_free import solve\nfrom . import scipy_like\n"
        "NOTE = 'import numpy'\ndef f(networkx):\n    return networkx.scipy\n"
    )
    assert imports_of(source, NUMERICAL) == []


def test_dataclasses_imports_are_found():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass\nimport json, dataclasses as dc\n"
        "from collections import namedtuple\nfrom .dataclasses import x\n"
        "def f():\n    from dataclasses import field\n"
    )
    assert sorted(dataclasses_imports(source)) == [1, 2, 3, 7]


_START_UP = """
import json, os, sys
before = set(sys.modules)
import peritrope.cli
status = peritrope.cli.main(["solve", sys.argv[1], "--out", os.devnull])
loaded = set(sys.modules) - before
import peritrope
renderer = peritrope.render_torus
print(json.dumps({
    "status": status,
    "loaded": sorted(loaded & {"argparse", "dataclasses", "gettext", "locale", "peritrope.render"}),
    "renderer": [renderer.__module__, renderer.__name__, "peritrope.render" in sys.modules],
}))
"""


def test_the_cli_starts_without_dataclasses_or_the_renderer():
    """A fresh interpreter that imports ``peritrope.cli`` and solves one
    instance loads neither ``dataclasses`` nor ``peritrope.render``, nor
    ``argparse`` and the ``gettext`` and ``locale`` it brings; the package
    still serves the renderers, loading them on first use."""
    src = str(pathlib.Path(peritrope.__file__).parent.parent)
    instance = pathlib.Path(__file__).parent / "golden" / "mu6.pesp"
    result = subprocess.run(
        [sys.executable, "-c", _START_UP, str(instance)],
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(result.stdout)
    assert report == {
        "status": 0,
        "loaded": [],
        "renderer": ["peritrope.render", "render_torus", True],
    }


def unused_imports(source, reexports=False):
    """(line, name) of each name an import binds that the module never
    reads, and of each ``__future__`` feature it does not use: on Python
    3.10+ only ``annotations`` changes anything, and only in a module with
    an annotation.  With ``reexports``, the module-level imports bind the
    package's names for its users and are not checked."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    annotated = any(
        getattr(n, "annotation", None) is not None or getattr(n, "returns", None) is not None
        for n in nodes
    )
    exempt = tree.body if reexports else []
    found = []
    for node in nodes:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or node in exempt:
            continue
        for alias in node.names:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                needed = alias.name == "annotations" and annotated
            else:
                needed = (alias.asname or alias.name.split(".")[0]) in read
            if not needed:
                found.append((node.lineno, alias.asname or alias.name))
    return found


def test_every_import_is_read():
    found = [
        f"{p.name}:{line} {name}"
        for p in MODULES
        for line, name in unused_imports(p.read_text(encoding="utf-8"), p.name == "__init__.py")
    ]
    assert found == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\nimport os.path\nimport json, re as regex\n"
        "from math import gcd, prod as product\nfrom . import render\n"
        "def f(x):\n    import sys\n    return os.path.join(json.dumps(x), product(x))\n"
    )
    found = [(1, "annotations"), (3, "regex"), (4, "gcd"), (5, "render"), (7, "sys")]
    assert unused_imports(source) == found


def test_an_import_is_read_by_name_and_annotations_need_an_annotation():
    source = "from __future__ import annotations\nimport os\ndef f(x: int):\n    return os.sep\n"
    assert unused_imports(source) == []
    assert unused_imports(source.replace("x: int", "x")) == [(1, "annotations")]
    reexport = "from .graphs import Digraph\ndef __getattr__(name):\n    from . import render\n"
    assert unused_imports(reexport, reexports=True) == [(3, "render")]


ROOT = pathlib.Path(__file__).parent.parent


def traced_targets():
    """The (module, name) pairs of ``bench/tracer.py``'s ``TARGETS``, read
    from the source, not imported."""
    tracer = ROOT / "bench" / "tracer.py"
    return next(
        ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    )


def test_every_traced_target_is_a_callable_of_the_package():
    """``bench/tracer.py`` looks up each (module, name) of its ``TARGETS``
    with ``getattr``, so a traced benchmark run fails on a name the
    package no longer has."""
    targets = traced_targets()
    assert ("graphs", "spanning_trees") in targets and ("search", "initial_solution") in targets
    missing = [
        f"{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"peritrope.{module}"), name, None))
    ]
    assert missing == []


def _module_names(source):
    """(bindings, imported, modules) of a module: its top-level functions,
    classes and assignment targets by name; each name bound by ``from .x
    import y`` as (x, y); each module bound by ``from . import x``."""
    tree = ast.parse(source)
    bindings, imported, modules = {}, {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bindings[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bindings.update((n.id, node) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
                else:
                    modules[alias.asname or alias.name] = alias.name
    return bindings, imported, modules


def unreached(sources, roots):
    """"module.name" of each top-level function and class in ``sources``
    ({module: source}) that no chain of references reaches from ``roots``,
    (module, name) pairs.  A definition refers to each name it reads that
    its module binds or imports from a sibling, and to ``x.name`` for a
    sibling module x.  Dunder functions, which the interpreter calls, are
    not checked."""
    graph = {module: _module_names(source) for module, source in sources.items()}

    def resolve(module, name):
        while name not in graph[module][0] and name in graph[module][1]:
            module, name = graph[module][1][name]
        return (module, name) if name in graph[module][0] else None

    def references(module, node):
        bindings, imported, modules = graph[module]
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and (n.id in bindings or n.id in imported):
                yield resolve(module, n.id)
            elif isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in modules:
                yield resolve(modules[n.value.id], n.attr)

    todo = [resolve(module, name) for module, name in roots]
    seen = set()
    while todo:
        key = todo.pop()
        if key is not None and key not in seen:
            seen.add(key)
            todo += references(key[0], graph[key[0]][0][key[1]])
    return sorted(
        f"{module}.{name}"
        for module, (bindings, _, _) in graph.items()
        for name, node in bindings.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not name.startswith("__")
        and (module, name) not in seen
    )


# Checkers and conversions that no command runs, kept on purpose.
KEEP = (
    ("exact", "verify_solution"),  # the Solution certificate check the oracle tests run
    ("graphs", "verify_kernel_property"),  # checks that a cycle basis spans the cycle space
    ("instances", "serialize_instance"),  # the inverse of parse_instance
    ("polytropes", "tension_to_timetable"),  # the inverse of timetable_to_tension
    ("errors", "NotATension"),  # what tension_to_timetable raises
    ("zonotopes", "structure_for_tree"),  # the structure a tree pins, for checking tiles
    ("zonotopes", "tile_contains_scaled"),  # a tile's membership test on its own frame
)


def reachability_roots():
    """``cli.main``, the names the acceptance tests import (the renderers
    through the package's lazy ``__getattr__``), the two oracles and the
    traced targets."""
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in acceptance.body
        if isinstance(node, ast.ImportFrom) and node.module == "peritrope"
        for alias in node.names
    ]
    roots = [("render" if name in peritrope._RENDERERS else "__init__", name) for name in imported]
    roots += [("cli", "main"), ("exact", "brute_force_timetable"), ("fixedlp", "brute_force_fixed_offset")]
    return roots + list(traced_targets())


def test_src_holds_only_what_a_root_reaches():
    """Every top-level function and class of the package is reached from
    a root, or kept on purpose; a kept one that a root reaches leaves
    ``KEEP``."""
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreached(sources, reachability_roots()) == sorted(f"{m}.{n}" for m, n in KEEP)


def test_unreached_definitions_are_found():
    sources = {
        "__init__": "from .a import f\n",
        "a": (
            "from . import b\nfrom .b import C as D\nLIMIT = b.g\n"
            "def f():\n    return D()\ndef unused():\n    return f()\n"
        ),
        "b": (
            "def g():\n    return h\ndef h():\n    pass\nclass C:\n    pass\n"
            "def __getattr__(name):\n    pass\n"
        ),
    }
    assert unreached(sources, [("__init__", "f")]) == ["a.unused", "b.g", "b.h"]
    assert unreached(sources, [("a", "LIMIT"), ("a", "unused")]) == []
