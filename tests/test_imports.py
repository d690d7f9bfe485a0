"""Every module of the package, of its tests and of the benchmark uses each
name it imports.

A stdlib-only stand-in for a linter's unused-import check.  A name counts
as used when it is read anywhere in the module, annotations included (also
inside a quoted annotation), or listed in ``__all__``.  ``from __future__``
imports are exempt, and so are the re-exports of the package's
``__init__.py``.  Likewise every top-level name of the package (a function,
class or constant) is read somewhere in the package outside its own
definition, unless it is public and listed in ``__all__``; and every public
method or property of a package class is read as an attribute somewhere in
``src``, ``bench`` or ``demos``, unless ``UNREAD_MEMBERS`` says why it stays.
A package module imports another module's private name (``_x``) only
where ``PRIVATE_IMPORTS`` names that import and says why.
Importing the package must not load numpy, which only
``oracle.grid_min_distance`` needs (that function's numpy import is the one
import of the package made inside a function), and ``bntune tune`` runs
with numpy blocked.  Only ``oracle`` calls
``Polynomial.evaluate_numeric``, the float Horner loop of its numpy grid,
and ``oracle`` imports nothing from the chain-based implementation
(``CHAIN_MODULES``) that its references cross-check.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "bntune"
MODULES = (
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    + sorted(TESTS.glob("*.py"))
    + sorted((ROOT / "bench").glob("*.py"))
)


def _annotations(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, (ast.AnnAssign, ast.arg)) and node.annotation is not None:
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
        return [node.returns]
    return []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        for annotation in _annotations(node):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_all_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = "\n".join([
        "from __future__ import annotations",
        "import os",
        "from typing import Mapping, Sequence",
        "from x import y, z",
        "__all__ = ['y']",
        "def f(a: 'Sequence[int]') -> None:",
        "    'Mapping is only mentioned here.'",
        "    return os.sep",
    ])
    assert unused_imports(source) == ["Mapping (line 3)", "z (line 4)"]


#: (module, function, imported module) of each import allowed inside a function.
LOCAL_IMPORTS = {("oracle", "grid_min_distance", "numpy")}


def local_imports(sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """(module, function, imported module) of each import made inside a function."""
    found = []
    for module, source in sources.items():
        for func in ast.walk(ast.parse(source)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    found += [(module, func.name, alias.name) for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    found.append((module, func.name, "." * node.level + (node.module or "")))
    return found


def test_the_package_imports_only_at_the_top():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert set(local_imports(sources)) <= LOCAL_IMPORTS


def test_the_check_finds_an_import_inside_a_function():
    source = "\n".join([
        "import os",
        "def f():",
        "    import numpy as np",
        "    return np",
        "class C:",
        "    def g(self):",
        "        from .errors import UnknownValue",
        "        return UnknownValue",
    ])
    assert local_imports({"m": source}) == [("m", "f", "numpy"), ("m", "g", ".errors")]


#: The chain-based implementation, which the oracle's brute-force references
#: cross-check and so must share no code with.
CHAIN_MODULES = {"pmc", "lifting", "refine", "tune"}


def imported_modules(source: str) -> set[str]:
    """Each module that ``source`` imports, one of the package by its bare name
    (``pmc`` for ``from .pmc import x``, ``from . import pmc`` or ``import bntune.pmc``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found.update([a.name for a in node.names] if module in (".", "bntune") else [module])
    return {name.lstrip(".").removeprefix("bntune.").split(".")[0] for name in found}


def test_the_oracle_shares_no_code_with_the_chain_implementation():
    assert imported_modules((SRC / "oracle.py").read_text()) & CHAIN_MODULES == set()


def test_the_check_finds_a_package_import():
    source = "\n".join([
        "import math",
        "from .bn import BayesNet",
        "from . import pmc, errors",
        "from bntune.tune import tune",
        "from bntune import refine",
        "import bntune.lifting",
    ])
    assert imported_modules(source) & CHAIN_MODULES == CHAIN_MODULES
    assert imported_modules(source) - CHAIN_MODULES == {"math", "bn", "errors"}


#: (importing module, imported module, private name) of each allowed private
#: import, with the reason it is shared rather than made public.
PRIVATE_IMPORTS = {
    ("bn", "poly", "_binary_fraction"): "instantiate reads a float instantiation "
    "at its exact binary value",
    ("lifting", "pmc", "_distribution"): "the relaxation checks a state's weights "
    "at each box corner by the point solver's own rule",
    ("pmc", "bn", "_check_comparison"): "ReachSpec checks its direction and "
    "threshold by Constraint's own comparison rule",
    ("pmc", "poly", "_binary_fraction"): "reach_prob reads a float instantiation "
    "at its exact binary value",
    ("pmc", "poly", "_exact_point"): "the closed form reads its point as "
    "Polynomial.evaluate does, floats at their exact binary value",
    ("tune", "poly", "_binary_fraction"): "box bounds computed in floats are kept "
    "at their exact binary value",
    ("tune", "refine", "_check_limits"): "Hyper checks and reads eta and guard "
    "by partition's own rule",
}


def private_imports(sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """(importing module, imported module, name) of each private name that a
    module of ``sources`` imports from another module of the package."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [
                    (module, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                ]
    return found


def test_private_imports_are_allowlisted():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sorted(private_imports(sources)) == sorted(PRIVATE_IMPORTS)


def test_the_check_finds_a_private_import():
    sources = {
        "a": "from .b import _helper, public\nfrom . import c\nfrom typing import _Final",
        "b": "from .a import __version__\nimport os\n_helper = os.sep\npublic = 1",
    }
    assert private_imports(sources) == [("a", "b", "_helper")]


def _read_names(node: ast.AST) -> set[str]:
    return {
        part.id for part in ast.walk(node)
        if isinstance(part, ast.Name) and isinstance(part.ctx, ast.Load)
    }


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def unread_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each top-level name that nothing reads outside its definition.

    A name defined in module ``m`` is read when another top-level statement
    of ``m`` reads it, or when another module imports it from ``m`` (which
    the unused-import check then makes that module read) or reads it as an
    attribute of ``m``.  The package's ``__init__`` does not count: it only
    re-exports, and its imports are exempt from the unused-import check.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.update((node.module.rpartition(".")[2], a.name) for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                imported.add((node.value.id, node.attr))
    unread = []
    for module, tree in trees.items():
        reads = [_read_names(node) for node in tree.body]
        for i, node in enumerate(tree.body):
            for name in _defined_names(node):
                if name.startswith("__"):
                    continue
                elsewhere = any(name in seen for j, seen in enumerate(reads) if j != i)
                if not elsewhere and (module, name) not in imported:
                    unread.append((module, name))
    return unread


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level names (``_x``) of ``sources`` that nothing reads."""
    return [f"{m}.{name}" for m, name in unread_names(sources) if name.startswith("_")]


def unused_public_names(sources: dict[str, str]) -> list[str]:
    """Public top-level names of ``sources`` that nothing reads and ``__all__`` omits.

    ``__all__`` is the one that ``sources["__init__"]`` assigns.
    """
    exported = set()
    for node in ast.parse(sources["__init__"]).body:
        if isinstance(node, ast.Assign) and "__all__" in _defined_names(node):
            exported.update(ast.literal_eval(node.value))
    return [
        f"{m}.{name}" for m, name in unread_names(sources)
        if not name.startswith("_") and name not in exported
    ]


def test_private_names_are_all_used():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_the_check_finds_an_unused_private_name():
    sources = {
        "a": "\n".join([
            "_USED = 1",
            "_UNUSED = 2",
            "def _recursive(n):",
            "    return _recursive(n - 1) if n else _USED",
            "def _called():",
            "    return 0",
        ]),
        "b": "from .a import _called\nclass _Lone:\n    pass\nvalue = _called()",
        "c": "def _USED():\n    return 1",
    }
    assert unused_private_names(sources) == ["a._UNUSED", "a._recursive", "b._Lone", "c._USED"]


def test_public_names_are_exported_or_used():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_public_names(sources) == []


def test_the_check_finds_an_unused_public_name():
    sources = {
        "__init__": "from . import b\nfrom .a import EXPORTED, reexported\n__all__ = ['EXPORTED', 'b']",
        "a": "\n".join([
            "EXPORTED = 1",
            "LIMIT = 2",
            "UNUSED = 3",
            "def reexported():",
            "    return LIMIT",
            "def via_module():",
            "    return 0",
            "class Lone:",
            "    pass",
        ]),
        "b": "from . import a\nvalue = a.via_module()",
    }
    assert unused_public_names(sources) == ["a.UNUSED", "a.reexported", "a.Lone", "b.value"]


#: Public methods and properties of package classes that nothing in ``src``,
#: ``bench`` or ``demos`` reads yet, each with the reason it stays.
UNREAD_MEMBERS = {
    "Region.center": "ROADMAP item 3's best-first search checks each inconclusive "
    "box's centre as a point box",
}


def unread_members(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``Class.name`` of each public method or property of a class in ``package``
    that no module of ``readers`` reads as an attribute (``x.name``)."""
    read = {
        node.attr
        for source in readers.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for source in package.values():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            unread += [
                f"{cls.name}.{node.name}"
                for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")
                and node.name not in read
            ]
    return unread


def test_public_members_are_read():
    package = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = {
        str(path): path.read_text()
        for folder in (SRC, ROOT / "bench", ROOT / "demos")
        for path in sorted(folder.glob("*.py"))
    }
    assert sorted(unread_members(package, readers)) == sorted(UNREAD_MEMBERS)


def test_the_check_finds_an_unread_member():
    package = {
        "a": "\n".join([
            "class Box:",
            "    def used(self):",
            "        return self.helper()",
            "    def helper(self):",
            "        return 0",
            "    @property",
            "    def unread(self):",
            "        return 1",
            "    def _private(self):",
            "        return 2",
            "    def assigned(self):",
            "        return 3",
        ]),
    }
    readers = dict(package, b="from a import Box\nBox().used()\nBox.assigned = None")
    assert unread_members(package, readers) == ["Box.unread", "Box.assigned"]


def attribute_readers(sources: dict[str, str], attr: str) -> list[str]:
    """Modules of ``sources`` that read ``attr`` as an attribute (``x.attr``)."""
    return sorted(
        module
        for module, source in sources.items()
        if any(
            isinstance(node, ast.Attribute) and node.attr == attr
            for node in ast.walk(ast.parse(source))
        )
    )


def test_only_the_oracle_evaluates_in_float_horner():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert attribute_readers(sources, "evaluate_numeric") == ["oracle"]


def test_the_check_finds_an_attribute_reader():
    sources = {
        "a": "def f(p, u):\n    return p.evaluate_numeric(u)",
        "b": "def evaluate_numeric(u):\n    return u\nvalue = evaluate_numeric(1)",
        "c": "class P:\n    def g(self, u):\n        return self.evaluate_numeric(u)",
    }
    assert attribute_readers(sources, "evaluate_numeric") == ["a", "c"]


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new process that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_importing_the_package_does_not_load_numpy():
    loaded = _run_python("-c", "import sys, bntune; print('numpy' in sys.modules)")
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.strip() == "False"


def test_tune_runs_without_numpy():
    # numpy is an optional extra (the oracle's grid): with it blocked, the
    # command line still tunes the demo network.
    files = ROOT / "demos" / "files"
    script = "import sys; sys.modules['numpy'] = None; from bntune.cli import main; sys.exit(main())"
    done = _run_python(
        "-c", script, "tune", str(files / "diagnostic.net"), "-p", str(files / "diagnostic.params"),
        "-c", "P(COVID-19=no | Antigen=pos & PCR=pos) <= 0.009",
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["status"] == "tuned"
