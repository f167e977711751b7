"""No ``src/`` code is reached only from ``tests/``.

The deletion rule as a tier-1 invariant.  Imports are walked with ``ast``
(nothing is executed) from the repository's non-test entry points: the
``repro`` CLI and ``python -m repro``, every script under
``benchmarks/`` (the figure scripts and the perf harness), ``tools/``
and ``examples/``.  Two things fail:

* a ``repro`` module outside that import closure (a package
  ``__init__`` counts as importing what it imports);
* a name in a reached module's ``__all__`` that nothing outside
  ``tests/`` references: no root, no other reached module, and its own
  module only inside the name's own definition.  A reference is an
  identifier, an attribute, an import alias or a string literal (the perf
  harness wraps functions by name); re-exports in a package ``__init__``,
  ``__all__`` lists and docstrings are not references.

Code that only a test calls is deleted, not moved into ``examples/`` or
``tools/``.  ``ALLOWED`` exempts an entry only with a stated reason.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PACKAGE = "repro"

ROOT_FILES = ("src/repro/cli.py", "src/repro/__main__.py")
ROOT_DIRS = ("benchmarks", "tools", "examples")

#: Exempt modules or ``module.name`` entries, each with its reason.
ALLOWED = {
    "repro.data.prefetch.PrefetchLoader": (
        "ROADMAP item 8: kept only if it wins on the on-disk workload"
    ),
    "repro.elastic.ledger.reconstruct_ledger": (
        "the independent oracle the live replica ledger is checked "
        "against (a reference implementation tests compare to)"
    ),
    "repro.nn.gradcheck.gradcheck": (
        "the finite-difference oracle every autograd backward is checked "
        "against (a reference implementation tests compare to)"
    ),
}

#: A string literal naming code: ``"broadcast_model"``, ``"Scheduler.scheduling"``.
_DOTTED = re.compile(r"[A-Za-z_][\w]*(?:[.:][A-Za-z_][\w]*)*")


def _module_files() -> dict[str, Path]:
    out = {}
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = path
    return out


MODULES = _module_files()


def _roots() -> list[Path]:
    roots = [REPO / f for f in ROOT_FILES]
    for d in ROOT_DIRS:
        roots += sorted((REPO / d).rglob("*.py"))
    return roots


ROOTS = _roots()


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_of(path: Path) -> str:
    for name, p in MODULES.items():
        if p == path:
            return name if path.name == "__init__.py" else name.rpartition(".")[0]
    return ""


def _with_parents(name: str) -> set[str]:
    parts = name.split(".")
    return {".".join(parts[: i + 1]) for i in range(len(parts))} & MODULES.keys()


def imported_modules(path: Path) -> set[str]:
    """The ``repro`` modules that importing ``path`` executes."""
    found: set[str] = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found |= _with_parents(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                pkg = _package_of(path).split(".")
                pkg = pkg[: len(pkg) - node.level + 1]
                base = ".".join(pkg + ([base] if base else []))
            found |= _with_parents(base)
            for alias in node.names:
                found |= _with_parents(f"{base}.{alias.name}")
    return found


def reached_modules() -> set[str]:
    seen: set[str] = set()
    todo = [m for m, path in MODULES.items() if path in ROOTS]
    todo += [m for root in ROOTS for m in imported_modules(root)]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += imported_modules(MODULES[name])
    return seen


def _docstrings(tree: ast.Module) -> set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            ids.add(id(node.value))
    return ids


def _all_lists(tree: ast.Module) -> list[ast.AST]:
    return [
        node.value
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AugAssign))
        and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        )
    ]


def _defines(stmt: ast.stmt, name: str) -> bool:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name == name
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


@lru_cache(maxsize=None)
def _statement_refs(path: Path) -> tuple[tuple[ast.stmt, frozenset[str]], ...]:
    """Each top-level statement of ``path`` with the names it refers to.

    Re-exports of a package ``__init__``, ``__all__`` lists and docstrings
    are not references.
    """
    tree = _tree(path)
    skip = _docstrings(tree) | {
        id(n) for value in _all_lists(tree) for n in ast.walk(value)
    }
    reexports = path.name == "__init__.py"
    out = []
    for stmt in tree.body:
        refs: set[str] = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias) and not reexports:
                refs.update(node.name.split("."))
                if node.asname:
                    refs.add(node.asname)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in skip
                and _DOTTED.fullmatch(node.value)
            ):
                refs.update(re.split(r"[.:]", node.value))
        out.append((stmt, frozenset(refs)))
    return tuple(out)


def references(path: Path, without: str = "") -> set[str]:
    """Every name ``path`` refers to outside the definition of ``without``."""
    return set().union(
        *(refs for stmt, refs in _statement_refs(path)
          if not (without and _defines(stmt, without)))
    )


def public_names(path: Path) -> list[str]:
    names = []
    for value in _all_lists(_tree(path)):
        names += [
            n.value
            for n in ast.walk(value)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        ]
    return names


@lru_cache(maxsize=None)
def findings() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(unreached modules, unreferenced module.name entries)``, before
    ``ALLOWED`` is applied.

    A name counts as referenced when a root, another reached module or
    its own module outside its own definition refers to it.
    """
    reached = reached_modules()
    unreached = sorted(MODULES.keys() - reached)
    refs = {path: references(path) for path in ROOTS}
    refs.update({MODULES[m]: references(MODULES[m]) for m in reached})
    unreferenced = []
    for mod in sorted(reached):
        path = MODULES[mod]
        if path.name == "__init__.py":
            continue
        for name in public_names(path):
            if name in references(path, without=name):
                continue
            if not any(name in r for p, r in refs.items() if p != path):
                unreferenced.append(f"{mod}.{name}")
    return tuple(unreached), tuple(unreferenced)


def _not_allowed(entries):
    return [e for e in entries if e not in ALLOWED and e.rpartition(".")[0] not in ALLOWED]


def test_every_src_module_is_reached_from_an_entry_point():
    unreached = _not_allowed(findings()[0])
    assert not unreached, (
        "src/ modules that no CLI subcommand, benchmark, tool or example "
        f"imports (delete them, with their tests): {unreached}"
    )


def test_every_public_name_is_referenced_outside_tests():
    unreferenced = _not_allowed(findings()[1])
    assert not unreferenced, (
        "__all__ names that nothing outside tests/ references "
        f"(delete them, with their tests): {unreferenced}"
    )


def test_every_allow_list_entry_is_needed():
    """A stale exemption would hide the next deletion."""
    unreached, unreferenced = findings()
    assert set(ALLOWED) <= set(unreached) | set(unreferenced)


def test_the_closure_holds_the_hot_path_and_lazy_cli_imports():
    """``repro.analysis.protocol`` is imported inside a CLI function body."""
    reached = reached_modules()
    assert {"repro.shuffle.scheduler", "repro.mpi.world", "repro.analysis.protocol"} <= reached
