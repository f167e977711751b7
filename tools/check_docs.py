#!/usr/bin/env python
"""Docs CI checks: link integrity, docstrings, CLI <-> docs agreement,
EXPERIMENTS.md <-> results agreement.

Four independent checks, all fatal on failure:

1. **Links** — every relative markdown link in ``README.md``,
   ``EXPERIMENTS.md`` and ``docs/*.md`` must resolve to an existing file
   (anchors stripped; ``http(s)``/``mailto`` targets are not fetched).
   Bare inline-code path references like ``src/repro/cluster/presets.py``
   are verified too, so module paths in prose cannot go stale.

2. **Docstrings** — every public module, class, function and method in
   ``src/repro/mpi/`` and ``src/repro/shuffle/`` (the hot-path packages
   this guide documents) must carry a docstring.

3. **CLI coverage** — every ``repro <subcommand>`` mentioned in the docs
   (inside code spans or fenced blocks) must exist in ``src/repro/cli.py``,
   and every subcommand the CLI registers must be mentioned somewhere in
   the docs, so the command surface and its documentation cannot drift.

4. **Measured numbers** — every number in ``EXPERIMENTS.md`` must occur
   verbatim in a ``benchmarks/results/*.txt`` file its ``##`` section
   cites as a code span (thousands commas and the sign glyph aside).
   Numbers in *italics* are quoted from the paper and skipped; so are
   headings, code, and the number in a reference like ``Fig. 9``.

Usage: ``python tools/check_docs.py`` (exit 0 = clean).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

EXPERIMENTS = REPO / "EXPERIMENTS.md"
MARKDOWN = [REPO / "README.md", EXPERIMENTS, *sorted((REPO / "docs").glob("*.md"))]
DOCSTRING_PACKAGES = [REPO / "src/repro/mpi", REPO / "src/repro/shuffle"]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Inline code spans that look like in-repo file paths (contain a "/" and a
# known source/doc suffix).  `repro.mpi.codec` module dotted names are not
# file claims; `src/repro/mpi/codec.py` is.
_CODE_PATH = re.compile(r"`([A-Za-z0-9_./-]+/[A-Za-z0-9_.-]+\.(?:py|md|json|yml|txt))`")
_EXTERNAL = ("http://", "https://", "mailto:")


def check_links() -> list[str]:
    problems: list[str] = []
    for md in MARKDOWN:
        text = md.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for target in _LINK.findall(line):
                if target.startswith(_EXTERNAL) or target.startswith("#"):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue
                resolved = (md.parent / path).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{md.relative_to(REPO)}:{lineno}: broken link -> {target}"
                    )
            for path in _CODE_PATH.findall(line):
                # Relative to the repo root first (the common style), then
                # to the file's own directory.
                if not (REPO / path).exists() and not (md.parent / path).exists():
                    problems.append(
                        f"{md.relative_to(REPO)}:{lineno}: stale path reference "
                        f"-> `{path}`"
                    )
    return problems


def _public_defs(tree: ast.Module):
    """Yield (node, qualname) for public defs: module-level functions and
    classes, plus methods of public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield node, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        # Underscore methods and dunders are exempt —
                        # including __init__, whose parameters live in the
                        # class docstring (numpydoc style) in this repo.
                        if sub.name.startswith("_"):
                            continue
                        yield sub, f"{node.name}.{sub.name}"


def check_docstrings() -> list[str]:
    problems: list[str] = []
    for pkg in DOCSTRING_PACKAGES:
        for py in sorted(pkg.rglob("*.py")):
            tree = ast.parse(py.read_text(encoding="utf-8"), filename=str(py))
            rel = py.relative_to(REPO)
            if ast.get_docstring(tree) is None:
                problems.append(f"{rel}:1: module has no docstring")
            for node, qualname in _public_defs(tree):
                if ast.get_docstring(node) is None:
                    problems.append(
                        f"{rel}:{node.lineno}: public `{qualname}` has no docstring"
                    )
    return problems


def _cli_subcommands() -> set[str]:
    """Subcommand names registered in ``cli.py`` via ``add_parser("name")``."""
    tree = ast.parse((REPO / "src/repro/cli.py").read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            names.add(node.args[0].value)
    return names


# ``repro <sub>`` (optionally via ``python -m repro``) inside code spans or
# fenced blocks.  Only documentation *code* counts as a command claim;
# prose mentioning "repro toolkit" does not.
_CLI_MENTION = re.compile(r"(?:python -m )?\brepro ([a-z][a-z0-9-]+)")


def _documented_subcommands() -> dict[str, list[str]]:
    """Map subcommand name -> ``file:line`` locations where docs mention it."""
    mentions: dict[str, list[str]] = {}
    for md in MARKDOWN:
        in_fence = False
        for lineno, line in enumerate(
            md.read_text(encoding="utf-8").splitlines(), 1
        ):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            # Inside a fence the whole line is code; outside, only the
            # backtick code spans are.
            spans = [line] if in_fence else re.findall(r"`([^`]+)`", line)
            for span in spans:
                for name in _CLI_MENTION.findall(span):
                    mentions.setdefault(name, []).append(
                        f"{md.relative_to(REPO)}:{lineno}"
                    )
    return mentions


def check_cli_coverage() -> list[str]:
    """Fail on docs naming unknown subcommands, or CLI subcommands no doc
    ever mentions."""
    problems: list[str] = []
    registered = _cli_subcommands()
    documented = _documented_subcommands()
    for name, where in sorted(documented.items()):
        if name not in registered:
            problems.append(
                f"{where[0]}: docs mention `repro {name}` but cli.py "
                "registers no such subcommand"
            )
    for name in sorted(registered - set(documented)):
        problems.append(
            f"src/repro/cli.py: subcommand `repro {name}` is not mentioned "
            "in README.md or docs/ — document it or remove it"
        )
    return problems


# A number: optional sign, digits with optional thousands commas and
# decimals, not glued to a word, a decimal point or a hyphen on its left
# (so ``ResNet50``, ``CIFAR-100`` and ``partial-0.3`` hold none).
_NUMBER = re.compile(r"(?<![\w.\-−])[-−]?\d+(?:,\d{3})*(?:\.\d+)?")
_RESULTS = re.compile(r"`(benchmarks/results/[\w.-]+\.txt)`")
# What is not a measurement, blanked before numbers are read (newlines
# kept, so line numbers hold): fenced blocks, headings, code spans, paper
# quotes in single-asterisk *italics* (within one paragraph; ``**bold**``
# and list bullets are not quotes) and references such as ``Fig. 9``.
_NOT_MEASURED = re.compile(
    r"^```.*?^```|^#.*?$|`[^`]*`"
    r"|(?<![*\w])\*(?![\s*])(?:(?!\n\s*\n)[^*])*?(?<![\s*])\*(?![*\w])"
    r"|\b(?:Fig|Figure|Eq|Table)\.? ?\d+|§[\w-]+",
    re.M | re.S,
)


def _numbers(text: str) -> set[str]:
    return {
        n.replace(",", "").replace("−", "-").lstrip("-")
        for n in _NUMBER.findall(text)
    }


def check_experiments() -> list[str]:
    """Fail on an EXPERIMENTS.md number absent from the results files its
    ``##`` section cites."""
    problems: list[str] = []
    rel = EXPERIMENTS.relative_to(REPO)
    text = EXPERIMENTS.read_text(encoding="utf-8")
    blank = _NOT_MEASURED.sub(lambda m: " " + "\n" * m.group().count("\n"), text)
    lines = list(enumerate(zip(text.splitlines(), blank.splitlines()), 1))
    starts = [n for n, (line, _) in lines if line.startswith("## ")]
    for lo, hi in zip([1, *starts], [*starts, len(lines) + 1]):
        section = lines[lo - 1:hi - 1]
        cited = {p for _, (line, _) in section for p in _RESULTS.findall(line)}
        missing = sorted(p for p in cited if not (REPO / p).exists())
        problems += [f"{rel}:{lo}: cites missing `{p}`" for p in missing]
        known: set[str] = set()
        for p in cited - set(missing):
            known |= _numbers((REPO / p).read_text(encoding="utf-8"))
        for lineno, (_, prose) in section:
            problems += [
                f"{rel}:{lineno}: {n} is in no results file this section cites"
                for n in sorted(_numbers(prose) - known)
            ]
    return problems


def main() -> int:
    problems = (
        check_links() + check_docstrings() + check_cli_coverage()
        + check_experiments()
    )
    for p in problems:
        print(p)
    n_md = len(MARKDOWN)
    n_py = sum(len(list(p.rglob("*.py"))) for p in DOCSTRING_PACKAGES)
    if problems:
        print(f"\n{len(problems)} problem(s) across {n_md} markdown / {n_py} python files")
        return 1
    n_cmd = len(_cli_subcommands())
    print(
        f"docs OK: {n_md} markdown files linked, {n_py} python files "
        f"documented, {n_cmd} CLI subcommands covered, EXPERIMENTS.md "
        "numbers found in their results files"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
