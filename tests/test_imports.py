"""Every imported name is used in the module that imports it.

No linter ships with the toolchain, so this is an ast-only check over the
package, the tests and the scripts. A name counts as used when it appears
as a name anywhere in its module, in a string annotation, or in
``__all__``. The package's ``__init__.py`` is left out: its imports are
re-exports.
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
