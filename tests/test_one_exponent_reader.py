"""Pricing stays behind the family: only ``cocycle`` reads ``exponent``.

A layer that prices a pair reads the family's id table
(``CocycleFamily.exponents(cat)``), which asks the form once per id pair and
keeps the answer.  A call of an ``exponent`` method anywhere else, directly
or through an alias, would ask the form again, outside that table.
"""

import ast
from pathlib import Path

import zsalg

SRC = Path(zsalg.__file__).parent


class _ExponentReads(ast.NodeVisitor):
    """The line of every read of an attribute named exponent: a method
    call, or a bound method kept for a later call."""

    def __init__(self):
        self.found = []

    def visit_Attribute(self, node):
        if node.attr == "exponent":
            self.found.append(node.lineno)
        self.generic_visit(node)


def exponent_reads(src=SRC):
    """(module, line) of every ``x.exponent`` outside the cocycle module."""
    out = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "cocycle":
            continue
        reads = _ExponentReads()
        reads.visit(ast.parse(path.read_text()))
        out.extend((path.stem, line) for line in reads.found)
    return out


def test_the_guard_finds_every_exponent_read(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def price(family, a, b):\n"
        "    return family.exponent(a, b)\n"
        "def table(family, cat):\n"
        "    return family.exponents(cat)\n"
        "def nested(model, a, b):\n"
        "    e = model.family.form.exponent\n"
        "    return e(a, b) + exponent(a, b)\n"
    )
    (tmp_path / "cocycle.py").write_text("def f(q, a, b):\n    return q.exponent(a, b)\n")
    assert exponent_reads(tmp_path) == [("mod", 2), ("mod", 6)]


def test_only_the_cocycle_module_reads_exponent():
    assert exponent_reads() == []
