"""Executed reachability: fail on a ``src/repro`` def that no CI root runs.

``python tools/reached.py`` runs each command of ``tools/reached-roots.txt``
with a generated ``sitecustomize`` first on ``PYTHONPATH``; it calls
:func:`install`, a call-only recorder (``sys.settrace`` + ``threading.settrace``,
the tracer returns ``None``).  Forked ``procs`` ranks leave through
``os._exit``, wrapped to write the record first; ``sys.settrace(None)``
re-arms it (pytest-benchmark clears it around ``benchmark.pedantic``).  Exit
codes are printed, not gated: wall-time claims fail under a tracer, and CI
runs them untraced.  Exit 1 on a non-stub def no root ran that no entry of
``tools/reachability-allow.txt`` covers (an entry covers a name and all
defined in it), or on an entry that covers no such def.
"""

from __future__ import annotations

import ast, atexit, os, subprocess, sys, tempfile, threading, time  # noqa: E401
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ALLOW = REPO / "tools" / "reachability-allow.txt"
ROOTS = REPO / "tools" / "reached-roots.txt"


def install(out: str, prefix: str) -> None:
    """Record every code object under ``prefix`` that this process runs."""
    seen: set = set()

    def tracer(frame, event, arg):
        seen.add(frame.f_code)

    def dump() -> None:
        lines = {f"{c.co_filename}:{c.co_firstlineno}\n" for c in list(seen)
                 if c.co_filename.startswith(prefix)}
        with open(os.path.join(out, f"{os.getpid()}-{time.monotonic_ns()}"), "w") as fh:
            fh.writelines(lines)

    settrace, exit_ = sys.settrace, os._exit
    sys.settrace = lambda fn: settrace(fn or tracer)
    os._exit = lambda code: (dump(), exit_(code))
    atexit.register(dump)
    threading.settrace(tracer)
    settrace(tracer)


def _stub(fn: ast.AST) -> bool:
    return all(isinstance(s, ast.Pass) or getattr(getattr(s, "value", None), "value", 0) is Ellipsis
               or (isinstance(s, ast.Raise) and "NotImplementedError" in ast.unparse(s))
               for s in fn.body[ast.get_docstring(fn) is not None:])


def defs(src: Path) -> dict[tuple[str, int], str]:
    """Every non-stub def in package dir ``src``: (file, first line) -> dotted name."""
    out: dict[tuple[str, int], str] = {}

    def walk(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}.{getattr(child, 'name', '')}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _stub(child):
                out[(str(path), min([child.lineno] + [d.lineno for d in child.decorator_list]))] = name
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            walk(child, path, name if is_def else prefix)

    src = src.resolve()
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src.parent).with_suffix("").parts
        walk(ast.parse(path.read_text()), path, ".".join(p for p in parts if p != "__init__"))
    return out


def record(roots: list[str], src: Path, tmp: str, cwd: Path = REPO) -> set[tuple[str, int]]:
    """Run each root under the recorder; the (file, first line) of every code object run."""
    out, src = Path(tmp, "calls"), src.resolve()
    out.mkdir()
    Path(tmp, "sitecustomize.py").write_text(
        f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\nimport reached\n"
        f"sys.path.pop(0)\nreached.install({str(out)!r}, {str(src)!r})\n")
    path = [tmp, str(src.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for cmd in roots:
        t0 = time.perf_counter()
        code = subprocess.run(cmd.format(py=sys.executable, tmp=tmp), shell=True, cwd=cwd, env=env).returncode
        print(f"[exit {code}] {time.perf_counter() - t0:6.1f} s  {cmd}", flush=True)
    return {(str(Path(f).resolve()), int(n)) for p in out.iterdir()
            for f, _, n in (ln.rpartition(":") for ln in p.read_text().splitlines())}


def _lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if ln.strip() and ln[0] != "#"]


def allow_list(path: Path = ALLOW) -> dict[str, str]:
    """``name -> reason`` for each ``name  reason`` line of ``path``."""
    return {row[0]: row[1] if len(row) > 1 else "" for row in (ln.split(None, 1) for ln in _lines(path))}


def gate(never: set[str], allow: dict[str, str]) -> tuple[list[str], list[str]]:
    """(never-run defs no entry covers, entries that cover no never-run def)."""
    pairs = {(e, n) for e in allow for n in never if n == e or n.startswith(e + ".")}
    return (sorted(never - {n for _, n in pairs}), sorted(set(allow) - {e for e, _ in pairs}))


def main() -> int:
    src, t0 = REPO / "src" / "repro", time.perf_counter()
    roots = _lines(ROOTS)
    with tempfile.TemporaryDirectory() as tmp:
        ran = record(roots, src, tmp)
    every = defs(src)
    unrun = [n for k, n in every.items() if k not in ran]
    missing, stale = gate(set(unrun), allow_list())
    print(f"{len(every) - len(unrun)} of {len(every)} non-stub defs ran in {len(roots)} roots "
          f"({time.perf_counter() - t0:.0f} s); {len(unrun) - len(missing)} never ran and are allow-listed")
    problems = [f"never run, not allow-listed (delete it, or run it from a root): {n}" for n in missing]
    problems += [f"stale allow-list entry (it ran, or is gone): {e}" for e in stale]
    print("\n".join(problems) or "executed reachability: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
