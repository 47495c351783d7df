"""Each path is one object: ``Path(...)`` is called in one function.

KGraph keys every path it hands out by its edges, or a vertex path by its
vertex, and builds it in one routine; so equal paths of one graph are one
object, and an id lookup hits by identity.  A second place that builds a
Path would hand out an equal copy, whose lookup ends in Path.__eq__.
"""

import ast
from pathlib import Path

import zsalg

SRC = Path(zsalg.__file__).parent


class _PathCalls(ast.NodeVisitor):
    """The enclosing scope of every call to a callable named Path."""

    def __init__(self, module):
        self.scope, self.found = [module], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "Path":
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def path_constructors(src=SRC):
    """The scopes, as module.Class.function, that call Path(...)."""
    out = set()
    for path in sorted(src.glob("*.py")):
        calls = _PathCalls(path.stem)
        calls.visit(ast.parse(path.read_text()))
        out.update(calls.found)
    return out


def test_the_guard_finds_every_constructor(tmp_path):
    (tmp_path / "mod.py").write_text(
        "P = Path((), 'v', 'v', ())\n"
        "class G:\n"
        "    def one(self):\n"
        "        return [Path(e, 'v', 'v', ()) for e in ()]\n"
        "    def two(self):\n"
        "        def inner():\n"
        "            return kgraph.Path((), 'v', 'v', ())\n"
        "        return inner\n"
        "def other():\n"
        "    return Pathlike()\n"
    )
    assert path_constructors(tmp_path) == {"mod", "mod.G.one", "mod.G.two.inner"}


def test_one_function_constructs_paths():
    sites = path_constructors()
    assert len(sites) == 1, sorted(sites)
