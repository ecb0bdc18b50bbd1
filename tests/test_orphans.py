"""Every ``repro`` module has a caller outside the tests.

A module that only its own tests import is code the reproduction does
not run.  This guard parses ``src/repro`` with :mod:`ast` and asserts
that each module is imported from ``src/``, ``benchmarks/``,
``ctbench/`` or ``examples/``; importing a submodule counts for every
package above it.  A package re-exporting its own submodule is no
caller: the submodule counts only when a caller imports one of the
re-exported names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = ("src", "benchmarks", "ctbench", "examples")

ALLOWED = {
    "repro.__main__",  # run as ``python -m repro``, never imported
    # ROADMAP item 12 gives these their caller: the log validates each
    # submitted chain up to a root it accepts.
    "repro.x509.chain",
    "repro.x509.validation",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path):
    """``(module, [(name, bound_as), ...])`` per import in ``path``.

    The list holds the ``from`` names and is empty for ``import x.y``.
    The repository uses absolute imports only.
    """
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom):
            names = [(a.name, a.asname or a.name) for a in node.names]
            yield node.module or "", names


def _with_parents(name: str):
    parts = name.split(".")
    return {".".join(parts[:depth]) for depth in range(1, len(parts) + 1)}


def test_every_module_has_a_caller_outside_the_tests():
    modules = {_module_name(path) for path in (SRC / "repro").rglob("*.py")}
    # (package, re-exported name) -> (submodule, its name there)
    reexports = {}
    for path in (SRC / "repro").rglob("__init__.py"):
        package = _module_name(path)
        for module, names in _imports(path):
            if module.startswith(package + "."):
                for name, bound_as in names:
                    reexports[package, bound_as] = (module, name)

    imported = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            own = _module_name(path) if path.is_relative_to(SRC) else "-"
            for module, names in _imports(path):
                if path.name == "__init__.py" and module.startswith(own + "."):
                    continue  # a re-export, counted where it is imported
                imported |= _with_parents(module)
                for name, _ in names:
                    target = (module, name)
                    imported |= _with_parents(".".join(target))
                    while target in reexports:
                        target = reexports[target]
                        imported |= _with_parents(target[0])

    orphans = sorted(modules - imported - ALLOWED)
    assert not orphans, f"imported only by tests (or not at all): {orphans}"
    assert ALLOWED <= modules, "the allow-list names a module that is gone"
