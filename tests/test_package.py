"""The package surface: exported names resolve, and no module keeps an import
it never uses (no linter ships with the project, so this scan stands in)."""

import ast
import pathlib

import pytest

import cmereg

SRC = pathlib.Path(cmereg.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


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
