"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "amsom"


def _unused_imports(source: str) -> list:
    """The names ``source`` imports (at any depth, ``from __future__``
    aside) that it never reads, in the order imported."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [name for name in imported if name not in used]


def test_every_imported_name_is_used():
    # __init__.py imports to re-export; the scan itself finds each form it looks for
    sample = (
        "from __future__ import annotations\n"
        "import os, os.path\nimport numpy as np\nfrom .errors import A, B as C\n"
        "def f():\n    import json\n    return np.zeros(1), A\n"
    )
    assert _unused_imports(sample) == ["os", "os", "C", "json"]
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}
