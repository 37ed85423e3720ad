"""Source hygiene of the library modules, checked with the standard library's `ast`."""

import ast
import pathlib

import pytest

import zenodense

_MODULES = sorted(p for p in pathlib.Path(zenodense.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, less those in its `__all__` and those
    imported on a `# noqa: F401` line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom .a import b, c  # noqa: F401\n"
              "from .d import e, f\n__all__ = ['e']\nnp.zeros(1)\n")
    assert unused_imports(source) == ["f (line 5)", "os (line 2)"]
