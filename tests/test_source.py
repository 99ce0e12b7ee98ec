"""Checks on the library source itself, with the standard library only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _unused_imports(path):
    """Names a module imports but never reads (names listed in __all__ count
    as read, since a package re-exports them)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(SRC)}:{line} {name}" for name, line in imported.items() if name not in read]


def test_src_has_no_unused_imports():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    assert [hit for path in paths for hit in _unused_imports(path)] == []
