"""One routine does product reduction: in ``normalform``, ``meet`` and
``divisors_into`` are called from one function.

AlgebraModel reduces each term-pair core once and keeps its records, which
the product and the audit transcript both read.  A second caller of the
k-graph's meet or cofactors would be a second reduction, whose transcript
need not match the product.
"""

import ast
from pathlib import Path

import zsalg

NORMALFORM = Path(zsalg.__file__).parent / "normalform.py"
REDUCTION_CALLS = ("meet", "divisors_into")


class _Calls(ast.NodeVisitor):
    """The enclosing scope of every call to a callable with a given name."""

    def __init__(self, module, names):
        self.scope, self.names, self.found = [module], names, {}

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in self.names:
            self.found.setdefault(name, set()).add(".".join(self.scope))
        self.generic_visit(node)


def callers(path=NORMALFORM, names=REDUCTION_CALLS):
    """{name: the scopes, as module.Class.function, that call it}."""
    calls = _Calls(path.stem, names)
    calls.visit(ast.parse(path.read_text()))
    return calls.found


def test_the_guard_finds_every_caller(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "X = meet(1, 2)\n"
        "class M:\n"
        "    def one(self):\n"
        "        return self.D.meet(a, b, bound)[0]\n"
        "    def two(self):\n"
        "        def inner():\n"
        "            return [D.divisors_into(a, x, b) for x in ()]\n"
        "        return inner\n"
        "    def three(self):\n"
        "        return self.meets(a, b) or divisors\n"
    )
    assert callers(mod) == {
        "meet": {"mod", "mod.M.one"},
        "divisors_into": {"mod.M.two.inner"},
    }


def test_one_function_reduces_products():
    found = callers()
    assert set(found) == set(REDUCTION_CALLS)
    assert found["meet"] == found["divisors_into"] == {"normalform.AlgebraModel._reduce"}
