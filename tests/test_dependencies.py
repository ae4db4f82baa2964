"""The package runs on the standard library and numpy alone."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lkfs"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_imports_only_the_standard_library_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:  # relative: the package
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "numpy" and top not in sys.stdlib_module_names:
                outside.append(f"line {node.lineno}: {name}")
    assert outside == []


def test_every_module_is_checked():
    assert {path.stem for path in PACKAGE.glob("*.py")} >= {"__init__", "cli", "kernel", "mkl"}
