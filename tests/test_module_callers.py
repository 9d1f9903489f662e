"""Every module under ``src/repro`` has a production caller.

A module passes when some *other* file imports it: a non-``__init__``
module of the package, or a file under ``scripts/``, ``perfbench/`` or
``benchmarks/``.  ``from pkg import name`` is followed through one level
of ``__init__`` re-export, and a package ``__init__`` that binds the module
object itself (``from . import engines``) counts as an importer.  Tests and
examples do not count: code that only they reach goes, unless it is listed
in ``EXEMPT`` with a reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = ("scripts", "perfbench", "benchmarks")

EXEMPT = {
    "repro.mc.bronkerbosch": "test oracle",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path, package: str):
    """Yield ``(module, name)`` per imported binding; ``name`` is None
    for a plain ``import module``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) - node.level + 1]
                module = ".".join(parts + ([node.module] if node.module else []))
            else:
                module = node.module
            for alias in node.names:
                yield module, alias.name


def _package_of(path: Path) -> str:
    name = _module_name(path)
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def _uncalled() -> set[str]:
    sources = sorted(SRC.rglob("*.py"))
    modules = {_module_name(p) for p in sources}
    inits = [p for p in sources if p.name == "__init__.py"]

    reexports = {}
    for init in inits:
        pkg = _module_name(init)
        for module, name in _imports(init, pkg):
            if name is not None and module in modules:
                reexports[(pkg, name)] = module

    def targets(module: str, name: str | None) -> set[str]:
        if name is None:
            return {module}
        if f"{module}.{name}" in modules:
            return {f"{module}.{name}"}
        if (module, name) in reexports:
            return {reexports[(module, name)]}
        return {module}

    called = set()
    for init in inits:
        for module, name in _imports(init, _package_of(init)):
            if name is not None and f"{module}.{name}" in modules:
                called.add(f"{module}.{name}")
    callers = [p for p in sources if p.name != "__init__.py"]
    callers += [p for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    for path in callers:
        own = _module_name(path) if path.is_relative_to(SRC) else None
        package = _package_of(path) if own else ""
        for module, name in _imports(path, package):
            called |= targets(module, name) - {own}

    candidates = {_module_name(p) for p in sources
                  if p.name not in ("__init__.py", "__main__.py")}
    return candidates - called


def test_every_module_has_a_caller():
    uncalled = _uncalled() - EXEMPT.keys()
    assert not uncalled, (
        f"modules with no production caller: {sorted(uncalled)}; delete "
        "them or add each to EXEMPT with a reason")


def test_exemptions_are_current():
    stale = EXEMPT.keys() - _uncalled()
    assert not stale, f"EXEMPT entries that now have a caller: {sorted(stale)}"
