import ast
from pathlib import Path

import shufflecheck

PACKAGE = Path(shufflecheck.__file__).parent


def _unused_imports(source: str) -> list:
    """Names bound by an import that nothing else in the module reads."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a string that parses as an expression, such as the quoted
            # annotation "PetriNet", reads the names in it
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_unused_imports():
    # __init__.py imports only to re-export
    found = {
        path.name: _unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: unused for name, unused in found.items() if unused} == {}


def test_unused_import_check_sees_through_aliases_and_annotations():
    source = "\n".join([
        "from __future__ import annotations",
        "import os.path",
        "import xml.etree.ElementTree as ET",
        "from typing import Any, Optional",
        "from .engine import CounterVector",
        "def f(x: Optional[int]) -> 'CounterVector':",
        "    return ET",
    ])
    assert _unused_imports(source) == [(2, "os"), (4, "Any")]
