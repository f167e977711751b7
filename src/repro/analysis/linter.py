"""Lint driver: files in, findings out.

Wraps the rule passes in :mod:`repro.analysis.rules` with file discovery,
parsing, inline suppression and report assembly.  Suppression is per
statement::

    req = comm.irecv()          # repro: noqa[SPMD002]
    anything_at_all()           # repro: noqa          (all rules)
    x = thing()                 # repro: noqa[SPMD002,SPMD004]

A noqa comment anywhere on a multi-line statement covers the whole
statement — rules anchor findings to the line of the offending *node*,
which for a wrapped call is often not the physical line carrying the
trailing comment.

Unparseable files are reported as a single ``PARSE`` finding rather than
crashing the run, so one broken file cannot hide findings in the rest.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .findings import Finding, Severity
from .rules import DEFAULT_RULES, FileContext

__all__ = ["LintReport", "lint_source", "lint_file", "lint_paths", "iter_python_files"]

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")

#: Directory names never descended into during discovery.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "venv", "node_modules"})


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files: list[str] = field(default_factory=list)
    #: Count of findings silenced by ``# repro: noqa`` comments.
    suppressed: int = 0


def _noqa_map(source: str) -> dict[int, set[str] | None]:
    """line number -> suppressed rule ids (None = all rules)."""
    out: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(line)
        if not m:
            continue
        rules = m.group("rules")
        if rules is None:
            out[lineno] = None
        else:
            out[lineno] = {r.strip().upper() for r in rules.split(",") if r.strip()}
    return out


def _expand_noqa(
    noqa: dict[int, set[str] | None], tree: ast.Module
) -> dict[int, set[str] | None]:
    """Widen each noqa line to its innermost enclosing statement's span.

    Findings anchor to the ``lineno`` of the offending node, which for a
    statement wrapped over several physical lines is usually not the line
    carrying the trailing ``# repro: noqa`` comment.  Expanding over the
    statement's ``[lineno, end_lineno]`` makes suppression behave per
    *statement*, matching how authors read the comment.
    """
    if not noqa:
        return noqa
    spans = [
        (node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and node.end_lineno is not None
    ]
    out: dict[int, set[str] | None] = {}

    def merge(line: int, rules: set[str] | None) -> None:
        if line in out and (out[line] is None or rules is None):
            out[line] = None
        elif line in out:
            out[line] = out[line] | rules
        else:
            out[line] = None if rules is None else set(rules)

    for line, rules in noqa.items():
        covering = [s for s in spans if s[0] <= line <= s[1]]
        if not covering:
            merge(line, rules)
            continue
        # Innermost statement = tightest covering span.
        lo, hi = min(covering, key=lambda s: s[1] - s[0])
        for covered in range(lo, hi + 1):
            merge(covered, rules)
    return out


def lint_source(source: str, path: str = "<string>") -> tuple[list[Finding], int]:
    """Lint one module's source text with every rule.

    Returns ``(findings, n_suppressed)``; ``path`` is used for exemption
    decisions (test files, ``utils/rng.py``) and finding locations.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                rule_id="PARSE",
                message=f"could not parse: {exc.msg}",
                severity=Severity.ERROR,
            )
        ], 0
    ctx = FileContext.for_path(path, tree, source)
    raw: list[Finding] = []
    for rule in DEFAULT_RULES:
        raw.extend(rule.check(ctx))
    noqa = _expand_noqa(_noqa_map(source), tree)
    findings: list[Finding] = []
    suppressed = 0
    for f in raw:
        silenced = noqa.get(f.line)
        if silenced is None and f.line in noqa:
            suppressed += 1  # bare noqa: all rules
        elif silenced is not None and f.rule_id in silenced:
            suppressed += 1
        else:
            findings.append(f)
    findings.sort()
    return findings, suppressed


def lint_file(path: str | Path) -> tuple[list[Finding], int]:
    """Lint one file on disk; see :func:`lint_source`."""
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [
            Finding(
                path=str(p), line=1, col=1, rule_id="PARSE",
                message=f"could not read: {exc}", severity=Severity.ERROR,
            )
        ], 0
    return lint_source(source, path=str(p))


def iter_python_files(root: str | Path) -> list[Path]:
    """All ``.py`` files under ``root`` (or ``root`` itself), sorted, with
    cache/VCS directories skipped."""
    root = Path(root)
    if root.is_file():
        return [root]
    return sorted(
        p for p in root.rglob("*.py")
        if not (_SKIP_DIRS & set(p.parts))
    )


def lint_paths(paths: Iterable[str | Path]) -> LintReport:
    """Lint every python file under each path; the ``repro lint`` backend."""
    report = LintReport()
    seen: set[Path] = set()
    for path in paths:
        root = Path(path)
        if not root.exists():
            report.findings.append(
                Finding(
                    path=str(root), line=1, col=1, rule_id="PARSE",
                    message="no such file or directory",
                    severity=Severity.ERROR,
                )
            )
            continue
        for file in iter_python_files(root):
            if file in seen:
                continue
            seen.add(file)
            findings, suppressed = lint_file(file)
            report.findings.extend(findings)
            report.suppressed += suppressed
            report.files.append(str(file))
    report.findings.sort()
    return report
