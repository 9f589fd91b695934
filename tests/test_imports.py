"""Every imported name is used, and every private definition is referenced.

No linter ships with the toolchain, so these are ast-only checks. Over the
package, the tests and the scripts, an imported name counts as used when it
appears as a name anywhere in its module, in a string annotation, or in
``__all__``; the package's ``__init__.py`` is left out, as its imports are
re-exports, and is checked instead to bind exactly the names ``__all__``
lists, each once. In the package, a module-level function, class or assignment,
or a method, whose name has one leading underscore must be read somewhere
in the package, as a name, an attribute or an import: tests alone do not
keep one alive.
"""

from __future__ import annotations

import ast
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
            # a string annotation, or an entry of __all__
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


def export_lists(tree: ast.Module) -> tuple[set[str], list[str]]:
    """The names a module's ``from .x import (...)`` statements bind, and
    its ``__all__`` entries in order, less ``__version__``."""
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    listed = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    return imported, [name for name in listed if name != "__version__"]


def test_all_lists_every_reexport_once():
    path = ROOT / "src/roadside_eval/__init__.py"
    imported, listed = export_lists(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    duplicates = sorted({name for name in listed if listed.count(name) > 1})
    assert not duplicates, f"__all__ lists these names more than once: {duplicates}"
    assert set(listed) == imported, (
        f"imported but not in __all__: {sorted(imported - set(listed))}; "
        f"in __all__ but not imported: {sorted(set(listed) - imported)}"
    )


def test_export_lists_reads_imports_and_all():
    tree = ast.parse(
        "__version__ = '0'\nfrom .m import A, B\nfrom .n import C as D\n"
        "__all__ = ['__version__', 'A', 'B', 'D']\n"
    )
    assert export_lists(tree) == ({"A", "B", "D"}, ["A", "B", "D"])
    tree = ast.parse("from .m import A\n__all__ = ['A', 'B', 'B']\n")
    assert export_lists(tree) == ({"A"}, ["A", "B", "B"])


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and assignments, and methods, whose
    names have one leading underscore, with the line of each."""
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
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[method.name] = method.lineno
    return {n: line for n, line in defs.items() if n.startswith("_") and not n.startswith("__")}


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
