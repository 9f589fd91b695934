"""Every imported name is used, every module-level definition and private
method is referenced, and the package binds only its modules.

No linter ships with the toolchain, so the first checks are ast-only. Over
the package, the tests and the scripts, an imported name counts as used when
it appears as a name anywhere in its module or in a string annotation; the
package's ``__init__.py`` is left out, as its one import binds the package's
modules. In the package, a module-level function, class or assignment, or a
method, whose name has one leading underscore must be read somewhere in the
package, as a name, an attribute or an import: tests alone do not keep one
alive. A public module-level function, class or assignment must be read
somewhere in the package outside ``__init__.py``, or in the scripts. Every
exception class in ``errors.py`` must be raised somewhere in the package:
an ``except`` clause reads a type that nothing raises.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for pattern in ("src/roadside_eval/*.py", "tests/*.py", "scripts/*.py")
    for path in ROOT.glob(pattern)
    if path.name != "__init__.py"
)
PACKAGE = sorted(ROOT.glob("src/roadside_eval/*.py"))
SCRIPTS = sorted(ROOT.glob("scripts/*.py"))
LIBRARY_MODULES = ["core", "errors", "ingest", "latency", "matching", "metrics", "synth"]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a string annotation
            try:
                used |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = used_names(tree)
    unused = [f"line {line}: {name}" for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.relative_to(ROOT)} imports names it never uses: {unused}"


def test_finds_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Callable, Sequence\nx: 'Sequence[int]'\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "Callable"}


def top_level_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and assignments, with the line of each."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node.lineno
    return defs


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and assignments, and methods, whose
    names have one leading underscore, with the line of each."""
    defs = top_level_definitions(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[method.name] = method.lineno
    return {n: line for n, line in defs.items() if n.startswith("_") and not n.startswith("__")}


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and assignments whose names have no
    leading underscore, with the line of each."""
    return {n: line for n, line in top_level_definitions(tree).items() if not n.startswith("_")}


def read_names(tree: ast.Module) -> set[str]:
    """Names read as names or attributes, imported, or named in a string."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                read |= read_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return read


def test_no_unreferenced_private_definitions():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in PACKAGE}
    read = set().union(*map(read_names, trees.values()))
    unreferenced = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]
    assert not unreferenced, f"private definitions nothing in the package reads: {unreferenced}"


def test_finds_an_unreferenced_private_definition():
    tree = ast.parse(
        "_A = 1\n_B: int = 2\n_C = _A\n__all__ = ['_C']\n"
        "def _f(): pass\n"
        "class _K:\n    def _m(self): self._m2 = 1\n    def _n(self): return self._m()\n"
        "def __getattr__(name): return _K\n"
    )
    assert set(private_definitions(tree)) - read_names(tree) == {"_B", "_f", "_n"}


def test_no_unreferenced_public_definitions():
    """A public name must have a reader besides the tests; a re-export does
    not count, so ``__init__.py`` is left out."""
    package = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
               for path in PACKAGE if path.name != "__init__.py"}
    scripts = [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SCRIPTS]
    read = set().union(*map(read_names, [*package.values(), *scripts]))
    unreferenced = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, tree in package.items()
        for name, line in public_definitions(tree).items()
        if name not in read
    ]
    assert not unreferenced, (
        f"public definitions nothing in the package or the scripts reads: {unreferenced}"
    )


def test_finds_an_unreferenced_public_definition():
    tree = ast.parse(
        "A = 1\nB: int = 2\nC = A\n_D = C\n"
        "def f(): pass\n"
        "class K:\n    def m(self): return f\n"
    )
    assert set(public_definitions(tree)) - read_names(tree) == {"B", "K"}


def raised_names(tree: ast.Module) -> set[str]:
    """Names in the exception of a raise statement; its cause does not count."""
    return {
        name.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        for name in ast.walk(node.exc)
        if isinstance(name, ast.Name)
    }


def test_every_error_type_is_raised():
    path = ROOT / "src/roadside_eval/errors.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    raised = set().union(*(
        raised_names(ast.parse(p.read_text(encoding="utf-8"), str(p))) for p in PACKAGE
    ))
    unraised = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name not in raised
    ]
    assert not unraised, f"error types nothing in the package raises: {unraised}"


def test_finds_an_unraised_error_type():
    tree = ast.parse(
        "class A(Exception): pass\nclass B(A): pass\nclass C(A): pass\n"
        "class D(A): pass\n"
        "try:\n    raise B('x') from D\nexcept C:\n    raise\n"
    )
    assert raised_names(tree) == {"B"}


def test_package_binds_its_modules_and_version_only():
    """One library module loads all seven and not the cli, and the package
    binds nothing public but those modules."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = (
        "import json, sys, roadside_eval.synth, roadside_eval as pkg; print(json.dumps(["
        "sorted(m for m in sys.modules if m.startswith('roadside_eval.')), "
        "sorted(n for n in vars(pkg) if not n.startswith('_')), pkg.__version__]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    loaded, bound, version = json.loads(out.stdout)
    assert loaded == [f"roadside_eval.{m}" for m in LIBRARY_MODULES]
    assert bound == LIBRARY_MODULES
    assert isinstance(version, str) and version
