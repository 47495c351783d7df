"""No check's verdict is computed and thrown away.

A check is a module-level function of ``zsalg`` annotated ``-> Report``, or
``validate_kgraph`` / ``validate_groupoid``, which return ``(object,
Report)``.  Calling one as a bare statement, or binding its report to ``_``,
runs the check and drops the verdict: a structural verdict belongs in the
report of the command that computed it, or is not computed.
"""

import ast
from pathlib import Path

import zsalg

SRC = Path(zsalg.__file__).parent
PAIR_CHECKS = {"validate_kgraph", "validate_groupoid"}


def _is_underscore(node):
    return isinstance(node, ast.Name) and node.id == "_"


def _called(node):
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def dropped_verdicts(src=SRC):
    """(file, line, check) for every call whose report is discarded."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    checks = set(PAIR_CHECKS)
    for tree in trees.values():
        for node in tree.body:
            ret = getattr(node, "returns", None)
            if isinstance(node, ast.FunctionDef) and isinstance(ret, ast.Name):
                if ret.id == "Report":
                    checks.add(node.name)
    out = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr):
                check, dropped = _called(node.value), True
            elif isinstance(node, ast.Assign):
                check = _called(node.value)
                target = node.targets[-1]
                if check in PAIR_CHECKS and isinstance(target, ast.Tuple):
                    target = target.elts[-1]
                dropped = _is_underscore(target)
            else:
                continue
            if check in checks and dropped:
                out.append((name, node.lineno, check))
    return sorted(out)


def test_the_guard_finds_checks_and_drops(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def check_a(x) -> Report:\n"
        "    return x\n"
        "def use(pres):\n"
        "    check_a(1)\n"
        "    _ = check_a(2)\n"
        "    rep = check_a(3)\n"
        "    graph, _ = validate_kgraph(pres)\n"
        "    _, rep = validate_groupoid(pres)\n"
        "    return rep\n"
    )
    assert dropped_verdicts(tmp_path) == [
        ("mod.py", 4, "check_a"),
        ("mod.py", 5, "check_a"),
        ("mod.py", 7, "validate_kgraph"),
    ]


def test_no_check_verdict_is_dropped():
    assert dropped_verdicts() == []
