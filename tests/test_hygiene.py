"""Source hygiene: every name a module imports is used in it, every
private module-level function or class is read somewhere in the package,
and every public module-level name is read by package code or named in
README's library surface."""

import ast
import re
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


README = SRC.parent.parent / "README.md"


def public_definitions(source: str) -> set[str]:
    """Module-level functions, classes and assigned names without a
    leading '_'."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in out if not name.startswith("_")}


def names_loaded(source: str) -> set[str]:
    """Every bare name and attribute name the source reads, not counting
    the names it binds."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def library_surface(readme: str) -> set[str]:
    """Every identifier in README's "Library surface" section."""
    section = readme.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"[A-Za-z_]\w*", section))


def unreached_public_names(sources: dict, surface: set) -> list[str]:
    """module.name of every public module-level name that no package
    code reads (re-exports in ``__init__`` are not reads) and README's
    library surface does not name."""
    read = set().union(*(names_loaded(src) for mod, src in sources.items() if mod != "__init__"))
    return sorted(f"{mod}.{name}" for mod, src in sources.items()
                  for name in public_definitions(src) if name not in read | surface)


def test_every_public_name_is_reached():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert sum(len(public_definitions(src)) for src in sources.values()) > 100
    assert unreached_public_names(sources, library_surface(README.read_text())) == []


def test_detector_flags_an_unreached_public_name():
    sources = {"a": "LIMIT = 3\n\n\ndef used():\n    return LIMIT\n\n\ndef left():\n    pass\n",
               "b": "from .a import used\n\nX = used()\n\n\nclass Named:\n    pass\n",
               "__init__": "from .a import left\n"}
    assert unreached_public_names(sources, {"Named"}) == ["a.left", "b.X"]
