"""Two questions per category kind: ``divisors_into`` and ``meet``.

``SmallCategory`` derives ``divides`` from ``divisors_into`` and ``meets``
from ``meet``, so a category kind answers only those two.  The one other
definition is ``ZSCategory``'s path lift, which on a broken action agrees
with the principal ideal where its lifted divisor does not.  A further
``divides`` or ``meets`` would be a third place that answers the question.
"""

import ast
from pathlib import Path

import zsalg

SRC = Path(zsalg.__file__).parent

#: (module, class) of each allowed definition
ALLOWED = {("categories", "SmallCategory"), ("selfsim", "ZSCategory")}


def definitions(src=SRC):
    """(module, class, method) for every divides or meets defined in a
    class body, methods of nested classes included."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (path.stem, node.name, item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in ("divides", "meets")
                )
    return out


def test_the_guard_finds_every_definition(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def divides(a, b, cat, bound):\n"
        "    return cat.divides(a, b, bound)\n"
        "class Paths:\n"
        "    def meets(self, a, b, bound):\n"
        "        return True\n"
        "    class Inner:\n"
        "        def divides(self, a, b, bound):\n"
        "            return True\n"
        "    def meet(self, a, b, bound):\n"
        "        return (), 'none'\n"
    )
    assert sorted(definitions(tmp_path)) == [
        ("mod", "Inner", "divides"),
        ("mod", "Paths", "meets"),
    ]


def test_only_the_base_and_the_path_lift_define_divides_or_meets():
    assert {(module, cls) for module, cls, _ in definitions()} == ALLOWED
