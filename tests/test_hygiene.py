"""Source hygiene: every name a module imports is used in it, and every
private module-level function or class is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "selberg3"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_modules_found():
    assert {"identities.py", "integrands.py", "lattice.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_import():
    source = "import math\nfrom os import path, sep\nprint(path, math.pi)\n"
    assert unused_imports(source) == ["sep (line 2)"]


def private_definitions(source: str) -> set[str]:
    """Module-level functions and classes whose names start with one '_'."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def names_read(source: str) -> set[str]:
    """Every bare name and attribute name the source reads."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_private_definition_is_read():
    sources = [path.read_text() for path in SRC.glob("*.py")]
    defined = set().union(*map(private_definitions, sources))
    read = set().union(*map(names_read, sources))
    assert len(defined) > 40
    assert sorted(defined - read) == []


def test_detector_flags_an_unread_private_helper():
    source = "def _used():\n    pass\n\n\ndef _left():\n    pass\n\n\nclass _Kept:\n    f = _used\n"
    assert private_definitions(source) == {"_used", "_left", "_Kept"}
    assert private_definitions(source) - names_read(source) == {"_left", "_Kept"}
