"""Linter driver: file discovery, reports — and the
self-lint regression that keeps ``src/`` clean."""

import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import LintReport, lint_paths, lint_source
from repro.analysis.linter import iter_python_files

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestLintSource:
    def test_syntax_error_yields_parse_finding(self):
        findings, _ = lint_source("def f(:\n", path="bad.py")
        assert [f.rule_id for f in findings] == ["PARSE"]
        assert findings[0].severity.value == "error"

    def test_findings_sorted_by_location(self):
        src = textwrap.dedent(
            """
            def g(comm):
                comm.isend(2, dest=0)

            def f(comm, x):
                assert x
            """
        )
        findings, _ = lint_source(src, path="src/m.py")
        assert [f.line for f in findings] == sorted(f.line for f in findings)


class TestMultiLineNoqa:
    """A noqa anywhere on a multi-line statement covers the whole
    statement — findings anchor to the node's first line, which is often
    not the physical line carrying the trailing comment."""

    def test_noqa_on_closing_line_suppresses(self):
        src = textwrap.dedent(
            """
            def f(comm, x):
                comm.isend(
                    x,
                    dest=0,
                )  # repro: noqa[SPMD002]
            """
        )
        findings, suppressed = lint_source(src, path="src/m.py")
        assert findings == []
        assert suppressed == 1

    def test_noqa_on_first_line_suppresses_too(self):
        src = textwrap.dedent(
            """
            def f(comm, x):
                comm.isend(  # repro: noqa[SPMD002]
                    x,
                    dest=0,
                )
            """
        )
        findings, suppressed = lint_source(src, path="src/m.py")
        assert findings == []
        assert suppressed == 1

    def test_noqa_does_not_leak_to_adjacent_statements(self):
        src = textwrap.dedent(
            """
            def f(comm, x):
                comm.isend(
                    x,
                    dest=0,
                )  # repro: noqa[SPMD002]
                comm.isend(x, dest=1)
            """
        )
        findings, suppressed = lint_source(src, path="src/m.py")
        assert [f.rule_id for f in findings] == ["SPMD002"]
        assert findings[0].line == 7
        assert suppressed == 1

    def test_wrong_rule_id_does_not_suppress(self):
        src = textwrap.dedent(
            """
            def f(comm, x):
                comm.isend(
                    x,
                    dest=0,
                )  # repro: noqa[SPMD005]
            """
        )
        findings, suppressed = lint_source(src, path="src/m.py")
        assert [f.rule_id for f in findings] == ["SPMD002"]
        assert suppressed == 0

    def test_bare_noqa_covers_all_rules_across_the_statement(self):
        src = textwrap.dedent(
            """
            def f(comm, x):
                comm.isend(
                    x,
                    dest=0,
                )  # repro: noqa
            """
        )
        findings, suppressed = lint_source(src, path="src/m.py")
        assert findings == []
        assert suppressed == 1


class TestLintPaths:
    def test_directory_walk_and_report(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "ok.py").write_text("X = 1\n")
        (pkg / "bad.py").write_text("def f(comm):\n    comm.isend(1, dest=0)\n")
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "skip.py").write_text("import random\n")

        report = lint_paths([pkg])
        assert isinstance(report, LintReport)
        assert len(report.files) == 2
        assert [f.rule_id for f in report.findings] == ["SPMD002"]
        assert report.findings

    def test_missing_path_reported_not_raised(self, tmp_path):
        report = lint_paths([tmp_path / "nope"])
        assert [f.rule_id for f in report.findings] == ["PARSE"]

    def test_iter_python_files_skips_junk_dirs(self, tmp_path):
        (tmp_path / "a.py").write_text("")
        (tmp_path / ".git").mkdir()
        (tmp_path / ".git" / "b.py").write_text("")
        (tmp_path / "node_modules").mkdir()
        (tmp_path / "node_modules" / "c.py").write_text("")
        found = list(iter_python_files(tmp_path))
        assert [p.name for p in found] == ["a.py"]


class TestSelfLint:
    def test_repo_source_tree_is_clean(self):
        """Regression: ``repro lint src/`` must report zero findings."""
        report = lint_paths([REPO_ROOT / "src"])
        assert len(report.files) > 0
        rendered = "\n".join(f.render() for f in report.findings)
        assert not report.findings, f"lint findings in src/:\n{rendered}"

    def test_no_noqa_suppressions_in_source_tree(self):
        """The source tree passes on merit, not via noqa comments."""
        report = lint_paths([REPO_ROOT / "src"])
        assert report.suppressed == 0


class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_lint_clean_file_exits_zero(self, tmp_path):
        f = tmp_path / "clean.py"
        f.write_text("X = 1\n")
        proc = self._run("lint", str(f))
        assert proc.returncode == 0, proc.stderr
        assert "0 finding(s)" in proc.stderr

    def test_lint_findings_exit_nonzero_text(self, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text("def f(comm):\n    comm.isend(1, dest=0)\n")
        proc = self._run("lint", str(f))
        assert proc.returncode == 1
        assert "SPMD002" in proc.stdout
        assert f"{f}:2:" in proc.stdout

    def test_lint_github_format_emits_annotations(self, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text("def f(comm):\n    comm.isend(1, dest=0)\n")
        proc = self._run("lint", str(f), "--format", "github")
        assert proc.returncode == 1
        line = proc.stdout.strip().splitlines()[0]
        assert line.startswith("::error ")
        assert f"file={f}" in line
        assert "line=2" in line
        assert "title=SPMD002" in line
        assert "::" in line.split(" ", 1)[1]

    def test_lint_github_format_escapes_newlines(self):
        from repro.analysis import Finding, Severity

        f = Finding(path="a,b.py", line=1, col=1, rule_id="SPMD001",
                    message="two\nlines with 100%", severity=Severity.WARNING)
        out = f.render_github()
        assert out.startswith("::warning ")
        assert "\n" not in out
        assert "%0A" in out
        assert "100%25" in out
        assert "file=a%2Cb.py" in out
