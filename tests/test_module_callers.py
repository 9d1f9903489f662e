"""Every module and public name under ``src/repro`` has a production caller.

A module passes when some *other* file imports it: a non-``__init__``
module of the package, or a file under ``scripts/``, ``perfbench/`` or
``benchmarks/``.  ``from pkg import name`` is followed through one level
of ``__init__`` re-export, and a package ``__init__`` that binds the module
object itself (``from . import engines``) counts as an importer.  Tests and
examples do not count: code that only they reach goes, unless it is listed
in ``EXEMPT`` with a reason.

A public name (a function or class defined at module level whose name has
no leading underscore: the set ``scripts/generate_api_docs.py`` documents)
passes when one of these reaches it:

* an import from another file under ``src/`` or a caller directory,
  followed through ``__init__`` re-exports; an alias counts for the
  original name, so ``kernelize_masks as kernelize`` counts for
  ``kernelize_masks``.  A package ``__init__``'s import counts only when
  the ``__init__``'s own code uses it: a re-export alone calls nothing;
* an attribute read ``mod.name`` where ``mod`` is bound to the module
  that defines the name (or to a package re-exporting it);
* an attribute read on a table lookup, ``table[key].name``, where a dict
  literal in production code holds the defining module as a value (the
  bench CLI's ``ARTIFACTS[target].render``);
* a reference from code in the defining module, outside the name's own
  definition.

Names only tests and examples reach go, unless ``EXEMPT_NAMES`` lists them
with a reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = ("scripts", "perfbench", "benchmarks")

EXEMPT = {
    "repro.mc.bronkerbosch": "test oracle",
}

EXEMPT_NAMES = {
    "repro.baselines.reference.brute_force_max_clique_graph": "test oracle",
    "repro.intersect.early_exit.intersect_exact": "test oracle",
    "repro.graph.complement.complement":
        "test oracle for complement_masks and the MVC duality property",
    "repro.graph.builders.complete_graph": "fixture constructor",
    "repro.graph.generators.barabasi_albert": "fixture constructor",
    "repro.graph.io.write_dimacs":
        "file-format writer, round-tripped by examples/file_io_roundtrip.py",
    "repro.graph.io.write_metis":
        "file-format writer, round-tripped by examples/file_io_roundtrip.py",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _absolute(node: ast.ImportFrom, package: str) -> str:
    if not node.level:
        return node.module
    parts = package.split(".")
    parts = parts[:len(parts) - node.level + 1]
    return ".".join(parts + ([node.module] if node.module else []))


def _imports(path: Path, package: str):
    """Yield ``(module, name)`` per imported binding; ``name`` is None
    for a plain ``import module``."""
    for module, name, _, _ in _import_bindings(ast.parse(path.read_text()),
                                               package):
        yield module, name


def _import_bindings(tree: ast.AST, package: str):
    """Yield ``(module, name, bound, value)`` per imported binding:
    ``bound`` is the local name the import binds and, for a plain
    ``import module``, ``value`` the module object it binds to it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    yield alias.name, None, alias.asname, alias.name
                else:
                    top = alias.name.partition(".")[0]
                    yield alias.name, None, top, top
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(node, package)
            for alias in node.names:
                yield module, alias.name, alias.asname or alias.name, None


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


def _public_definitions(tree: ast.Module):
    """The module-level functions and classes without a leading underscore."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not node.name.startswith("_")):
            yield node


def _dotted(node: ast.Attribute) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``, or None unless it starts at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def _uncalled_names() -> set[str]:
    sources = {_module_name(p): p for p in sorted(SRC.rglob("*.py"))}
    trees = {m: ast.parse(p.read_text()) for m, p in sources.items()}
    defined = {m: {d.name: d for d in _public_definitions(t)}
               for m, t in trees.items()}

    # (package, bound name) -> (module, name) for every name an
    # __init__ imports; a submodule it binds is no re-exported name.
    reexports = {}
    for module, path in sources.items():
        if path.name == "__init__.py":
            for src, name, bound, _ in _import_bindings(trees[module],
                                                        module):
                if name is not None and f"{src}.{name}" not in sources:
                    reexports[(module, bound)] = (src, name)

    def resolve(module: str, name: str) -> str | None:
        """The defining ``module.name`` behind the binding ``module.name``."""
        for _ in range(len(sources)):
            if name in defined.get(module, ()):
                return f"{module}.{name}"
            if (module, name) not in reexports:
                return None
            module, name = reexports[(module, name)]
        return None

    called = set()
    tabled = set()  # modules held as values of a dict literal
    looked_up = set()  # ``name`` of every ``table[key].name`` read

    def visit(tree: ast.AST, package: str, init: bool) -> None:
        bound_modules = {}
        used = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for module, name, bound, value in _import_bindings(tree, package):
            target = resolve(module, name) if name else None
            if name is None:
                bound_modules[bound] = value
            elif target is None and f"{module}.{name}" in sources:
                bound_modules[bound] = f"{module}.{name}"
            elif target is not None and (not init or bound in used):
                called.add(target)
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                tabled.update(bound_modules[v.id] for v in node.values
                              if isinstance(v, ast.Name)
                              and v.id in bound_modules)
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                continue
            if isinstance(node.value, ast.Subscript):
                looked_up.add(node.attr)
            parts = _dotted(node)
            if parts is None or parts[0] not in bound_modules:
                continue
            module = bound_modules[parts[0]]
            for attr in parts[1:]:
                target = resolve(module, attr)
                if target is not None:
                    called.add(target)
                if target is not None or f"{module}.{attr}" not in sources:
                    break
                module = f"{module}.{attr}"

    for module, path in sources.items():
        visit(trees[module], _package_of(path), path.name == "__init__.py")
        for name, definition in defined[module].items():
            inside = {id(n) for n in ast.walk(definition)}
            if any(isinstance(n, ast.Name) and n.id == name
                   and isinstance(n.ctx, ast.Load) and id(n) not in inside
                   for n in ast.walk(trees[module])):
                called.add(f"{module}.{name}")
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            visit(ast.parse(path.read_text()), "", False)
    called.update(f"{m}.{n}" for m in tabled for n in looked_up
                  if n in defined[m])

    everything = {f"{m}.{n}" for m, names in defined.items() for n in names}
    return everything - called


def test_every_module_has_a_caller():
    uncalled = _uncalled() - EXEMPT.keys()
    assert not uncalled, (
        f"modules with no production caller: {sorted(uncalled)}; delete "
        "them or add each to EXEMPT with a reason")


def test_exemptions_are_current():
    stale = EXEMPT.keys() - _uncalled()
    assert not stale, f"EXEMPT entries that now have a caller: {sorted(stale)}"


def test_every_public_name_has_a_caller():
    uncalled = {name for name in _uncalled_names() - EXEMPT_NAMES.keys()
                if name.rpartition(".")[0] not in EXEMPT}
    assert not uncalled, (
        f"public names with no production caller: {sorted(uncalled)}; "
        "delete them or add each to EXEMPT_NAMES with a reason")


def test_name_exemptions_are_current():
    stale = EXEMPT_NAMES.keys() - _uncalled_names()
    assert not stale, (
        f"EXEMPT_NAMES entries that now have a caller: {sorted(stale)}")
