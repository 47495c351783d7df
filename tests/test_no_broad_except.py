"""No error is swallowed wholesale, and none is read as malformed input.

A bare ``except:``, an ``except Exception`` or an ``except BaseException``
in ``zsalg`` turns any internal bug into whatever the handler does next.
Every handler names the errors it expects, so a bug is never read as
malformed input or as a verdict.
"""

import ast
from pathlib import Path

import zsalg

SRC = Path(zsalg.__file__).parent
BROAD = {"Exception", "BaseException"}


def _names(node):
    """The exception names a handler's type expression lists."""
    if node is None:
        return [None]
    if isinstance(node, ast.Tuple):
        return [n for elt in node.elts for n in _names(elt)]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return [getattr(node, "id", None)]


def broad_handlers(src=SRC):
    """(file, line) of every bare, Exception or BaseException handler."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler):
                if node.type is None or BROAD.intersection(_names(node.type)):
                    out.append((path.name, node.lineno))
    return out


def test_the_guard_finds_broad_handlers(tmp_path):
    (tmp_path / "mod.py").write_text(
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept Exception:\n    pass\n"
        "try:\n    pass\nexcept (KeyError, builtins.BaseException) as exc:\n    pass\n"
        "try:\n    pass\nexcept (KeyError, ValueError):\n    pass\n"
    )
    assert broad_handlers(tmp_path) == [("mod.py", 3), ("mod.py", 7), ("mod.py", 11)]


def test_no_broad_handler_in_zsalg():
    assert broad_handlers() == []


def test_main_catches_only_input_errors():
    """cli.main's one handler names exactly the errors of malformed input,
    so an internal error (a KeyError or ValueError from a check) propagates
    with its traceback instead of reading as exit 2."""
    tree = ast.parse((SRC / "cli.py").read_text())
    [main] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    [handler] = [n for n in ast.walk(main) if isinstance(n, ast.ExceptHandler)]
    assert sorted(_names(handler.type)) == ["JSONDecodeError", "OSError", "ZsalgError"]
