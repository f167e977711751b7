"""Structured lint findings and their rendering.

A :class:`Finding` is one rule violation at one source location.  Findings
are plain frozen dataclasses so the CLI can render them as text or JSON and
the tests can compare them structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Severity", "Finding"]


class Severity(str, Enum):
    """How bad a finding is.

    ``ERROR`` findings are correctness hazards (deadlock, corruption,
    nondeterminism); ``WARNING`` findings are robustness smells (e.g. a
    bare ``assert`` stripped under ``-O``).  Both fail the lint run — the
    distinction is for human triage only.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # render as "error", not "Severity.ERROR"
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation: where, which rule, and why it matters."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: Severity = Severity.ERROR

    def render(self) -> str:
        """The one-line ``file:line:col: RULE severity: message`` form."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.severity}: {self.message}"
        )

    def render_github(self) -> str:
        """GitHub Actions workflow-command form.

        Emitting ``::error file=...,line=...`` from a CI step makes the
        finding surface as an inline annotation on the PR diff.
        """
        cmd = "error" if self.severity is Severity.ERROR else "warning"
        props = (
            f"file={_esc(self.path, prop=True)},"
            f"line={self.line},col={self.col},"
            f"title={_esc(self.rule_id, prop=True)}"
        )
        return f"::{cmd} {props}::{_esc(self.message)}"


def _esc(text: str, *, prop: bool = False) -> str:
    """Escape workflow-command data (and, for properties, ``,``/``:``)."""
    text = text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if prop:
        text = text.replace(":", "%3A").replace(",", "%2C")
    return text
