"""CLI subcommands (python -m repro ...)."""

import json

import pytest

from repro.cli import _HANDLERS, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.workers == 8
        assert args.partition == "class_sorted"

    def test_invalid_partition_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--partition", "by-vibes"])

    def test_subcommand_set_is_the_five_that_remain(self, capsys):
        # Where a sixth command would be registered: the dispatch table
        # and the parser agree on exactly this set.  Paper tables have one
        # producer, the benchmarks/bench_*.py figure scripts; a run's
        # artifacts have one reader, ``repro trace``; the count gates are
        # tier-1 tests, not a command.
        expected = {"train", "trace", "chaos-train", "lint", "verify-protocol"}
        assert set(_HANDLERS) == expected
        (sub,) = [
            a for a in build_parser()._actions if hasattr(a, "choices") and a.choices
        ]
        assert set(sub.choices) == expected
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestCommands:
    def test_train_small(self, capsys):
        rc = main([
            "train", "--workers", "2", "--epochs", "2", "--samples", "128",
            "--classes", "4", "--features", "16",
            "--strategies", "local", "partial-0.5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "partial-0.5" in out
        assert "local" in out

    def test_train_groupnorm(self, capsys):
        rc = main([
            "train", "--workers", "2", "--epochs", "2", "--samples", "128",
            "--classes", "4", "--features", "16", "--norm", "group",
            "--strategies", "local",
        ])
        assert rc == 0
        assert "norm=group" in capsys.readouterr().out


class TestTrace:
    TRAIN = [
        "train", "--workers", "2", "--epochs", "1", "--samples", "64",
        "--classes", "4", "--features", "8",
    ]

    def test_train_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        rc = main([*self.TRAIN, "--strategies", "partial-0.5",
                   "--trace", str(out)])
        assert rc == 0
        assert "wrote trace:" in capsys.readouterr().err
        rows = json.loads(out.read_text())
        assert isinstance(rows, list) and rows
        real = [r for r in rows if r["ph"] != "M"]
        assert {r["pid"] for r in real} == {0, 1}
        assert all({"name", "ph", "ts", "pid"} <= set(r) for r in real)
        assert any(r["ph"] == "X" and r.get("cat") == "phase" for r in real)

    def test_train_multi_strategy_trace_per_strategy(self, tmp_path):
        out = tmp_path / "run.json"
        rc = main([*self.TRAIN, "--strategies", "local", "partial-0.5",
                   "--trace", str(out)])
        assert rc == 0
        assert (tmp_path / "run-local.json").exists()
        assert (tmp_path / "run-partial-0.5.json").exists()

    def test_trace_summarizes_file(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        main([*self.TRAIN, "--strategies", "partial-0.5", "--trace", str(out)])
        capsys.readouterr()
        assert main(["trace", str(out)]) == 0
        text = capsys.readouterr().out
        assert "rank(s)" in text
        assert "exchange" in text
        assert "fw_bw" in text
        assert "top spans" in text

    def test_trace_missing_file_errors(self, tmp_path):
        assert main(["trace", str(tmp_path / "nope.json")]) == 1

    def test_trace_empty_file_errors(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        assert main(["trace", str(empty)]) == 1

    def test_trace_garbage_file_errors_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("this is not a trace\n")
        assert main(["trace", str(bad)]) == 1
        assert "not a trace file" in capsys.readouterr().err


HEAL = "kill:rank=1,epoch=1,point=mid_exchange;rejoin:rank=1,epoch=3;crash:epoch=2"


class TestLifecycleTrain:
    """The lifecycle schedule is spelled in ``chaos-train --chaos``."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos-train"])
        assert args.chaos == "" and args.snapshot_dir is None
        assert not args.compare_clean and args.tolerance == 0.0

    def test_chaos_train_flight_dir_flag(self):
        args = build_parser().parse_args(
            ["chaos-train", "--flight-dir", "/tmp/fl"]
        )
        assert args.flight_dir == "/tmp/fl"

    def test_parser_accepts_full_schedule(self):
        args = build_parser().parse_args([
            "chaos-train", "--chaos", HEAL, "--snapshot-dir", "/tmp/snap",
            "--compare-clean", "--flight-dir", "/tmp/fl",
        ])
        assert args.chaos == HEAL and args.snapshot_dir == "/tmp/snap"
        assert args.compare_clean and args.flight_dir == "/tmp/fl"

    @pytest.mark.parametrize("gone", ["elastic-train", "lifecycle-train"])
    def test_forked_commands_are_gone(self, gone):
        with pytest.raises(SystemExit):
            build_parser().parse_args([gone])

    @pytest.mark.parametrize("flag", ["--kill", "--rejoin", "--restart-after"])
    def test_no_schedule_shorthand_flags(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos-train", flag, "1@1"])

    def test_bad_schedule_exits_2(self, capsys):
        # A rejoin for a rank that was never killed is a schedule error,
        # caught before any training starts.
        rc = main(["chaos-train", "--chaos", "rejoin:rank=1,epoch=2"])
        assert rc == 2
        assert "bad --chaos spec" in capsys.readouterr().err

    def test_schedule_is_checked_when_the_spec_is_parsed(self, capsys):
        # The profile validates its own schedule: the run never starts.
        rc = main(["chaos-train", "--chaos", "rejoin:rank=1,epoch=3"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert "never killed" in err and out == ""

    @pytest.mark.parametrize("spec, why", [
        ("kill:rank=1,epoch=5", "only has 3 epochs"),
        ("kill:rank=7,epoch=1", "only has 2 workers"),
    ], ids=["epoch-past-the-run", "rank-not-in-the-run"])
    def test_schedule_that_does_not_fit_the_run_exits_2(self, spec, why, capsys):
        # An event past the last epoch, or a kill of a rank the run does not
        # have, is a spec error like any other: no rank starts training.
        rc = main([
            "chaos-train", "--epochs", "3", "--samples", "96", "--workers", "2",
            "--chaos", spec,
        ])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("bad --chaos spec") and why in err

    def test_crash_restart_run_verifies_and_compares_clean(
        self, tmp_path, capsys
    ):
        rc = main([
            "chaos-train", "--samples", "96", "--workers", "2",
            "--epochs", "3", "--chaos", "crash:epoch=2",
            "--snapshot-dir", str(tmp_path), "--compare-clean",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "2 segment(s), 1 restart(s)" in out
        assert "capacity_ok=True" in out
        assert "weights bit-identical: True" in out
        # The two-phase snapshots are on disk where --snapshot-dir said.
        assert any(p.name.endswith(".ok") for p in tmp_path.iterdir())

    def test_recovery_and_rejoin_lines_name_where_samples_came_from(self, capsys):
        rc = main([
            "chaos-train", "--samples", "96", "--workers", "3", "--epochs", "3",
            "--chaos", "kill:rank=1,epoch=1,point=mid_exchange;rejoin:rank=1,epoch=2",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        # Every sample a dead rank held is re-read from the source dataset:
        # no survivor keeps a copy of what it sent.
        assert "rank [1] died at epoch 1: recovered 26 samples from the source dataset" in out
        assert "samples migrated back (" in out
        assert "replica" not in out and "promoted" not in out

    def test_snapshot_dir_resumes_across_invocations(self, tmp_path, capsys):
        base = [
            "chaos-train", "--samples", "96", "--workers", "2",
            "--snapshot-dir", str(tmp_path),
        ]
        assert main(base + ["--epochs", "2"]) == 0
        capsys.readouterr()
        first = (tmp_path / "snap-0.ckpt").stat().st_mtime_ns
        assert main(base + ["--epochs", "4", "--compare-clean"]) == 0
        out = capsys.readouterr().out
        # Epochs 2-3 only were trained, on top of the first invocation's
        # snapshots, and the result is the uninterrupted 4-epoch run's.
        assert (tmp_path / "snap-0.ckpt").stat().st_mtime_ns == first
        assert sorted(p.name for p in tmp_path.glob("*.ok")) == [
            f"snap-{e}.ok" for e in range(4)
        ]
        assert "weights bit-identical: True" in out

    def test_owed_q_deficit_is_reported_not_failed(self, capsys):
        # The last epoch runs under a deadline with a straggler: the run
        # legitimately ends owing Q-deficit.
        rc = main([
            "chaos-train", "--samples", "128", "--workers", "2",
            "--epochs", "2", "--chaos", "slow:rank=1,x=40,epochs=1",
            "--exchange-deadline", "0.15", "--resend-timeout", "0.05",
        ])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "final q deficit: " in out
        assert "final q deficit: 0," not in out
