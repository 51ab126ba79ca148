"""The runtime depends on the standard library only."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = Path(__file__).parent.parent / "src" / "bpartitions"


def test_absolute_imports_are_stdlib():
    paths = sorted(SOURCES.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
