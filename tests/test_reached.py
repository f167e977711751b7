"""``tools/reached.py``: the call recorder sees every def a root runs.

A throwaway package with four defs, run by two roots: a script that calls
one and forks a child that calls another before ``os._exit``, and a
pytest-benchmark test that calls a third inside ``benchmark.pedantic``
(which switches tracing off around its target).  The fourth is never
called.
"""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

pytest.importorskip("pytest_benchmark")

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reached", REPO / "tools" / "reached.py")
reached = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reached)


@pytest.mark.skipif(sys.platform == "win32", reason="needs os.fork")
def test_the_recorder_reports_exactly_the_defs_that_ran(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(textwrap.dedent("""\
        def called():
            return 1

        def never():
            return 2

        def forked():
            return 3

        def timed():
            return 4
        """))
    (tmp_path / "script.py").write_text(textwrap.dedent("""\
        import os
        from pkg import mod

        mod.called()
        pid = os.fork()
        if pid == 0:
            mod.forked()
            os._exit(0)
        os.waitpid(pid, 0)
        """))
    (tmp_path / "test_timed.py").write_text(textwrap.dedent("""\
        from pkg import mod

        def test_timed(benchmark):
            benchmark.pedantic(mod.timed, rounds=1, iterations=1)
        """))
    roots = [
        "{py} script.py",
        "{py} -m pytest test_timed.py --benchmark-only -q -p no:cacheprovider",
    ]
    work = tmp_path / "work"
    work.mkdir()
    ran = reached.record(roots, pkg, str(work), cwd=tmp_path)
    defs = reached.defs(pkg)
    assert {name for key, name in defs.items() if key in ran} == {
        "pkg.mod.called", "pkg.mod.forked", "pkg.mod.timed",
    }


def test_stubs_are_not_defs(tmp_path):
    (tmp_path / "mod.py").write_text(textwrap.dedent('''\
        class Base:
            def hook(self):
                """Subclasses override."""
                raise NotImplementedError

            def body(self):
                return 1
        '''))
    assert set(reached.defs(tmp_path).values()) == {f"{tmp_path.name}.mod.Base.body"}


def test_the_gate_names_uncovered_defs_and_stale_entries():
    never = {"repro.a.f", "repro.b.C.m", "repro.b.C.n"}
    allow = {"repro.b.C": "an oracle", "repro.a.g": "gone"}
    assert reached.gate(never, allow) == (["repro.a.f"], ["repro.a.g"])

