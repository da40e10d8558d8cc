"""Nothing in ``src/repro`` without a user: every module is an entry point
or is imported by code that is not a test.

A user is a module under ``src/repro``, or any file under ``benchmarks/``,
``examples/`` or ``tools/``.  A package ``__init__`` is a user only of the
names its own code reads: a re-export is not a use.  A name imported from
a package is resolved to the module that defines it, so re-exporting a
module from a package does not keep it alive either."""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: run by name (``python -m`` or by path), imported by nobody
ENTRY_POINTS = {
    "repro.bench.__main__",
    "repro.testing.__main__",
    "repro.tools.inspect",
    "repro.obs.smoke",
}


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


#: dotted name -> path, packages under their own name
MODULES = {_module_name(path): path for path in sorted((SRC / "repro").rglob("*.py"))}


@lru_cache(maxsize=None)
def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _is_package(module):
    return MODULES[module].name == "__init__.py"


def _defining_module(module, name):
    """The module that defines ``name`` as ``from module import name``
    sees it: a submodule, else whatever a package's ``__init__`` imported
    it from, else ``module`` itself."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    if _is_package(module):
        for node in ast.walk(_tree(MODULES[module])):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    if (alias.asname or alias.name) == name and node.module in MODULES:
                        return _defining_module(node.module, alias.name)
    return module


def _used(path):
    """The ``repro`` modules ``path`` imports; for a package ``__init__``,
    only those its own code reads a name of."""
    tree = _tree(path)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    only_read = path.name == "__init__.py"
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES and (
                    not only_read or (alias.asname or alias.name.split(".")[0]) in read
                ):
                    used.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
            for alias in node.names:
                if not only_read or (alias.asname or alias.name) in read:
                    used.add(_defining_module(node.module, alias.name))
    return used


def _used_outside_tests():
    files = [*MODULES.values()]
    for folder in ("benchmarks", "examples", "tools"):
        files += sorted((ROOT / folder).rglob("*.py"))
    return set().union(*map(_used, files))


def test_every_module_has_a_user():
    assert ENTRY_POINTS <= set(MODULES), "a stale entry point"
    used = _used_outside_tests()
    orphans = [
        module
        for module in MODULES
        if not _is_package(module) and module not in ENTRY_POINTS | used
    ]
    assert not orphans, f"imported by tests only (or by nothing): {orphans}"
