"""Every name a library module imports is used in it or listed in its
``__all__``.  ``__init__.py`` imports only to re-export, so it is left out."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "p5house"


def unused_imports(source):
    """(line, name) for every name the source's imports bind that no
    expression reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        out += [(node.lineno, name) for name in names if name not in used]
    return out


def test_every_import_is_used_or_exported():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(files) > 10
    assert [(p.name, *u) for p in files for u in unused_imports(p.read_text())] == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "from bisect import bisect_left\n"
        "import enum\n"
        "from .graph import Graph, _lift\n"
        "__all__ = ['Graph']\n"
        "x = enum.Enum\n"
    )
    assert unused_imports(source) == [(2, "bisect_left"), (4, "_lift")]
