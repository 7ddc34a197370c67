"""The package surface: exported names resolve, no module keeps an import it
never uses, and no dataclass keeps a field that nothing reads (no linter ships
with the project, so these scans stand in)."""

import ast
import pathlib

import pytest

import cmereg

SRC = pathlib.Path(cmereg.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
READERS = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def test_all_names_resolve_once():
    assert len(cmereg.__all__) == len(set(cmereg.__all__))
    for name in cmereg.__all__:
        assert hasattr(cmereg, name), name


def unused_imports(source: str) -> list:
    """Names bound by import statements that nothing else in the module reads.

    A name listed in a module-level __all__ counts as read (a re-export).
    """
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
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_flags_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\n__all__ = ['tau']\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == ["os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dataclass_fields(source: str) -> list:
    """(class, field) for each annotated field of each @dataclass class in source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            out += [(node.name, item.target.id) for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return out


def attributes_read(source: str) -> set:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(sources, readers) -> list:
    """Dataclass fields declared in sources that no reader reads as an attribute."""
    read = set().union(*(attributes_read(r) for r in readers))
    return sorted(f"{cls}.{name}" for src in sources for cls, name in dataclass_fields(src)
                  if name not in read)


def test_scan_flags_an_unread_field():
    source = ("from dataclasses import dataclass\n@dataclass(frozen=True)\nclass P:\n"
              "    a: int\n    b: float = 0.0\n    c = 1\n\n@dataclass\nclass Q:\n    d: int\n"
              "class R:\n    e: int\n")
    reader = "def f(p, q):\n    p.b = 2\n    return p.a + q.d\n"
    assert unread_fields([source], [source, reader]) == ["P.b"]


def test_no_unread_dataclass_fields():
    assert unread_fields([p.read_text() for p in MODULES], [p.read_text() for p in READERS]) == []
