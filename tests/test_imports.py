"""Every name a module of the package imports is read in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gbdsde"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with their lines; ``from
    __future__`` imports bind nothing."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read_names(tree: ast.Module) -> set[str]:
    """The names the module reads, including those inside quoted annotations."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read |= _read_names(ast.parse(ann.value, mode="eval"))
    return read


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    # __init__.py is skipped: its imports are the package's re-exports
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in read}
    assert not unused, f"{path.name}: imported but never read: {unused}"
