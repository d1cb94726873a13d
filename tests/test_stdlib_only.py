"""The library stays stdlib-only: pyproject.toml lists no dependencies, and
hypothesis and networkx are installed for the tests alone."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "p5house"


def test_library_imports_only_itself_and_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 10
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "p5house" or top in sys.stdlib_module_names, \
                    (path.name, node.lineno, name)
