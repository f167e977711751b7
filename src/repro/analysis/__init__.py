"""SPMD correctness analysis: static lint + protocol model checking.

The shuffle/MPI stack rests on invariants no type checker can see: every
rank must enter the same collective sequence, the exchange permutation
must be bit-identical everywhere (Algorithm 1's precondition), requests
must be completed, and all randomness must flow through the seed tree.
This package enforces them two ways:

* **statically** — :func:`lint_paths` / ``python -m repro lint`` runs the
  AST rules in :mod:`repro.analysis.rules` over a source tree: the
  syntactic rules SPMD001-SPMD005 plus the interprocedural-dataflow
  rules SPMD006-SPMD009 built on :mod:`repro.analysis.summaries`
  (per-function communication/ownership summaries folded against the
  live tag registry), with ``# repro: noqa[...]`` suppression;
* **by model checking** — :func:`check_model` / ``python -m repro
  verify-protocol`` exhaustively explores the reliable-exchange round
  protocol (:mod:`repro.analysis.protocol`) under message faults and
  rank kills, proving deadlock/leak/stale-commit freedom on small
  worlds and re-detecting every seeded protocol mutation.
"""

from .findings import Finding, Severity
from .linter import LintReport, iter_python_files, lint_file, lint_paths, lint_source
from .protocol import (
    DEFAULT_CONFIGS,
    MUTATIONS,
    CheckConfig,
    CheckResult,
    Violation,
    check,
    check_model,
    format_trace,
    run_mutation_sweep,
)
from .rules import DEFAULT_RULES, FileContext, Rule
from .summaries import FunctionSummary, ModuleSummary, module_summary

__all__ = [
    "Finding",
    "Severity",
    "LintReport",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "Rule",
    "FileContext",
    "DEFAULT_RULES",
    "FunctionSummary",
    "ModuleSummary",
    "module_summary",
    "CheckConfig",
    "CheckResult",
    "Violation",
    "DEFAULT_CONFIGS",
    "MUTATIONS",
    "check",
    "check_model",
    "run_mutation_sweep",
    "format_trace",
]
