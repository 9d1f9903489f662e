"""Every name imported under ``src/`` and ``tests/`` is used.

A binding made by ``import`` or ``from ... import`` passes when the same
file loads the bound name somewhere: a read of the name itself, or of an
attribute on it.  Three kinds of import are exempt by rule:

* anything in a package ``__init__``, whose imports are its re-exports;
* a name the file lists in ``__all__``;
* ``from __future__ import ...``, which binds compiler flags.

Any other import that binds a name nothing reads is listed in ``EXEMPT``
as ``"path:name"`` with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests")

EXEMPT: dict[str, str] = {}


def _all_names(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(e.value for e in node.value.elts
                         if isinstance(e, ast.Constant))
    return names


def _bindings(tree: ast.AST):
    """Yield the local name each import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _unused() -> set[str]:
    unused = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            loaded = {n.id for n in ast.walk(tree)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Load)}
            exported = _all_names(tree)
            rel = path.relative_to(ROOT).as_posix()
            unused.update(f"{rel}:{name}" for name in _bindings(tree)
                          if name not in loaded and name not in exported)
    return unused


def test_every_import_is_used():
    unused = _unused() - EXEMPT.keys()
    assert not unused, (
        f"imported names nothing reads: {sorted(unused)}; remove the "
        "imports or add each to EXEMPT with a reason")


def test_exemptions_are_current():
    stale = EXEMPT.keys() - _unused()
    assert not stale, f"EXEMPT entries that are now used: {sorted(stale)}"
