"""Every name a qlayout module imports is used in that module, and every
function, class, method and property it defines has a caller in qlayout or
is exported."""

import ast
from pathlib import Path

import pytest

import qlayout

MODULES = sorted(p for p in Path(qlayout.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that nothing else reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = "import math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == ["math (line 1)", "path (line 2)"]


def unreferenced_definitions(sources: dict, exported) -> list[str]:
    """The functions, classes, methods and properties defined in `sources`
    (module name -> text) that no source refers to by name and `exported`
    does not list. Dunder names are exempt."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in used and name not in exported:
                out.append(f"{module}: {name} (line {node.lineno})")
    return out


def test_every_definition_has_a_caller_or_is_exported():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unreferenced_definitions(sources, qlayout.__all__) == []


def test_unreferenced_definition_is_caught():
    source = (
        "def used():\n    return 1\n"
        "def unused():\n    return used()\n"
        "def exported():\n    pass\n"
        "class Box:\n"
        "    def __init__(self):\n        self.n = 0\n"
        "    @property\n    def size(self):\n        return self.n\n"
        "    def read(self):\n        return 2\n"
        "print(Box().read())\n"
    )
    assert unreferenced_definitions({"m": source}, ["exported"]) == [
        "m: unused (line 3)", "m: size (line 11)"]
