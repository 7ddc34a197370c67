"""The package surface: exported names resolve, no module keeps an import it
never uses or imports another module's private name, no dataclass keeps a
field that nothing reads, no public name or field is read only by tests
without a stated reason, the modules on the fit -> score -> sparsify
path form no product on numpy's BLAS, only linalg imports scipy (and, in a
fresh process, only its three compiled modules), and the package raises only
the two errors the CLI maps to its exits (no linter ships with the project,
so these scans stand in)."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cmereg

SRC = pathlib.Path(cmereg.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
CLIBENCH = sorted((ROOT / "clibench").glob("*.py"))
READERS = MODULES + sorted((ROOT / "tests").glob("*.py")) + SCRIPTS


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


@pytest.mark.parametrize("path", READERS, ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list:
    """Underscore names imported from a cmereg module (a relative import, or one
    from cmereg): a private name is read only in the module that defines it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "cmereg"):
            found += [f"{a.name} (line {node.lineno})" for a in node.names
                      if a.name.startswith("_") and not a.name.startswith("__")]
    return found


def test_scan_flags_a_private_import():
    source = ("from __future__ import annotations\nfrom .kernels import _gaussian, cross_gram\n"
              "from cmereg.linalg import _shrink as shrink\nfrom os import _exit\n"
              "from . import __version__, _private\nfrom numpy.linalg import _umath_linalg\n")
    assert private_imports(source) == ["_gaussian (line 2)", "_shrink (line 3)", "_private (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


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


# Dataclass fields that only tests read, each with the reason it stays.
TEST_READ_FIELDS = {
    "IncompleteCholesky.factor": "criterion 8 checks that the full-rank factor reproduces K",
    "SparseSolution.objective": "criterion 2 compares it with the coordinate-descent oracle's objective",
}


def test_fields_read_outside_tests():
    readers = [p.read_text() for p in MODULES + SCRIPTS + CLIBENCH]
    assert unread_fields([p.read_text() for p in MODULES], readers) == sorted(TEST_READ_FIELDS)


def public_names(source: str) -> set:
    """Top-level functions, classes and assigned names of a module without a leading underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def names_read(source: str) -> set:
    """Every name a module reads, bare (x) or as an attribute (m.x)."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def unread_public_names(sources, readers) -> list:
    """Public top-level names of sources that no reader reads; a definition or an
    import does not count as a read, so an __init__ re-export is none either."""
    read = set().union(*(names_read(r) for r in readers))
    return sorted(set().union(*(public_names(s) for s in sources)) - read)


def test_scan_flags_an_unread_public_name():
    source = ("import os\nLIMIT = 3\n_CACHE = {}\n\ndef used(x):\n    return x + LIMIT\n\n"
              "def unused():\n    return used(1)\n\nclass Spec:\n    pass\n\nclass Other:\n    pass\n")
    reader = "from m import Spec, Other, used\nimport m\nm.unused\nprint(Spec)\n"
    assert unread_public_names([source], [source, reader]) == ["Other"]  # imported, never read
    assert unread_public_names([source], [source]) == ["Other", "Spec", "unused"]


# Public names that only tests read, each with the reason it stays.
TEST_ONLY = {
    "regularized_objective": "the loss the paper says the embedding minimises",
    "lasso_objective": "the objective TestFista checks fista_solve's reported objective against",
    "grad_smooth": "the gradient of criterion 2's optimality check and criterion 3's central differences",
    "duality_gap": "the gap of any M's own dual point, which certifies the oracle's lasso solutions and bounds "
                   "the best-dual gap that fista_solve reports",
}


def test_public_names_read_outside_tests():
    sources = [p.read_text() for p in MODULES if p.name != "__init__.py"]
    assert unread_public_names(sources, sources + [p.read_text() for p in SCRIPTS]) == sorted(TEST_ONLY)


# Modules whose products run on scipy's BLAS (linalg.matmul, linalg.blas);
# kernels and pendulum keep their numpy products (see README, Conventions).
ONE_POOL = ("embedding", "sparse", "ratecheck", "lowrank", "cli", "linalg")
NUMPY_PRODUCTS = {"dot", "vdot", "inner", "matmul", "linalg"}


def numpy_products(source: str) -> list:
    """Each `@`, np.dot/vdot/inner/matmul and np.linalg use in source, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ("np", "numpy") and node.attr in NUMPY_PRODUCTS):
            found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                      if node.module == "numpy.linalg" or a.name in NUMPY_PRODUCTS]
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_scan_flags_numpy_products():
    source = ("import numpy as np\nfrom numpy.linalg import norm\nfrom numpy import dot, sum\n"
              "a = b @ c\nb @= c\nnp.vdot(a, b)\nnp.linalg.eigvalsh(a)\n"
              "x = np.sum(a * b) + np.inner(a, b) + np.matmul(a, b)\nscipy.linalg.eigh(a)\n")
    assert numpy_products(source) == [
        "numpy.linalg.norm (line 2)", "numpy.dot (line 3)", "@ (line 4)", "@ (line 5)",
        "np.vdot (line 6)", "np.linalg (line 7)", "np.inner (line 8)", "np.matmul (line 8)",
    ]


@pytest.mark.parametrize("name", ONE_POOL)
def test_no_numpy_products(name):
    assert numpy_products((SRC / f"{name}.py").read_text()) == []


# The CLI turns InputError into exit 2 and NumericalError into exit 3.
MAPPED = {"InputError", "NumericalError"}
# (module, top-level function) that raise something else, each with the reason it stays.
OTHER_RAISES = {
    ("cli.py", name, "ValueError"): "a schema check: main turns the ValueError _fill passes on into InputError"
    for name in ("_is", "_real", "_list", "_fill")
} | {("cli.py", "read_dataset", "ValueError"): "a ragged row: read_dataset's own handler words it as InputError"}


def unmapped_raises(module: str, source: str, allowed) -> list:
    """Each `raise X(...)` or `raise X` (X a name, or m.X) whose X is neither mapped
    nor allowed in its top-level function; a bare `raise` re-raises what was caught."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else ast.unparse(exc)
                if name not in MAPPED and (module, where, name) not in allowed:
                    found.append((node.lineno, f"{name} in {where} (line {node.lineno})"))
    return [what for _, what in sorted(found)]


def test_scan_flags_an_unmapped_raise():
    source = ("def f(x):\n    if x:\n        raise KeyError(x)\n    raise InputError('x')\n\n"
              "def g():\n    try:\n        f(0)\n    except KeyError:\n        raise\n"
              "    raise NumericalError('y') from None\n\n"
              "def _is(v):\n    def check(v):\n        raise ValueError(v)\n    raise ValueError\n\n"
              "class Spec:\n    def __post_init__(self):\n        raise errors.InputError('z')\n"
              "        raise TypeError\n")
    allowed = {("m.py", "_is", "ValueError")}
    assert unmapped_raises("m.py", source, allowed) == ["KeyError in f (line 3)", "TypeError in Spec (line 21)"]
    assert unmapped_raises("n.py", source, allowed) == [  # allowed in m.py only
        "KeyError in f (line 3)", "ValueError in _is (line 15)", "ValueError in _is (line 16)",
        "TypeError in Spec (line 21)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_raises_only_mapped_errors(path):
    assert unmapped_raises(path.name, path.read_text(), OTHER_RAISES) == []


def scipy_imports(source: str) -> list:
    """Each import of scipy or a scipy module in source, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == "scipy":
            found.append((node.lineno, node.module))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_scan_flags_a_scipy_import():
    source = ("import numpy as np\nimport scipy\nfrom scipy.linalg import blas\nimport scipy.spatial as sp\n"
              "from . import linalg\nfrom .linalg import blas\nimport scipyx\n"
              "def f():\n    from scipy.spatial.distance import cdist\n")
    assert scipy_imports(source) == ["scipy (line 2)", "scipy.linalg (line 3)", "scipy.spatial (line 4)",
                                     "scipy.spatial.distance (line 9)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "linalg.py"], ids=lambda p: p.name)
def test_only_linalg_imports_scipy(path):
    assert scipy_imports(path.read_text()) == []


# In a fresh process: import scipy's packages first if argv[1] says so, then
# cmereg.cli; print what that import left in sys.modules and os.environ, and
# whether linalg's modules are the ones scipy's packages bind.
_IMPORT_CHILD = """
import json, os, sys
before = dict(os.environ)
if sys.argv[1] == "scipy-first":
    import scipy.linalg, scipy.spatial.distance
import cmereg.cli
from cmereg import linalg
after = dict(os.environ)
loaded = sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.spatial")))
import scipy.linalg, scipy.spatial.distance
print(json.dumps({"loaded": loaded, "environ_kept": after == before,
                  "timeout": after.get("OPENBLAS_THREAD_TIMEOUT"),
                  "same": [linalg.blas.dgemm is scipy.linalg.blas.dgemm,
                           linalg.lapack.dpotrf is scipy.linalg.lapack.dpotrf,
                           linalg.blas is scipy.linalg.blas._fblas, linalg.lapack is scipy.linalg.lapack._flapack,
                           linalg.distance is scipy.spatial.distance._distance_pybind]}))
"""
COMPILED = ["scipy.linalg._fblas", "scipy.linalg._flapack", "scipy.spatial._distance_pybind"]


@pytest.mark.parametrize("order,timeout", [("cmereg-first", None), ("cmereg-first", "7"), ("scipy-first", None)])
def test_cli_import_loads_only_the_compiled_modules(order, timeout):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    if timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout
    child = subprocess.run([sys.executable, "-c", _IMPORT_CHILD, order], capture_output=True, text=True,
                           env=env, check=True)
    seen = json.loads(child.stdout)
    if order == "cmereg-first":  # no scipy.linalg or scipy.spatial package, nor any module of theirs
        assert seen["loaded"] == COMPILED
    assert seen["environ_kept"] and seen["timeout"] == timeout
    assert seen["same"] == [True] * 5
