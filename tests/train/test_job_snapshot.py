"""Crash-consistent full-job snapshots: two-phase commit + schema gating."""

import pickle

import numpy as np
import pytest

from repro.train.checkpoint import (
    _JOB_KEYS,
    JOB_SNAPSHOT_SCHEMA,
    JOB_SNAPSHOT_VERSION,
    CheckpointError,
    latest_complete_snapshot,
    load_job_snapshot,
    save_job_snapshot,
)


def make_payload(epoch=1):
    """A minimal but complete job payload (every key in the schema)."""
    payload = {key: None for key in _JOB_KEYS}
    payload.update(
        epoch=epoch,
        model_state={"w": np.arange(4.0)},
        optimizer_velocity=[None],
        optimizer_lr=0.05,
        seed=0,
        total_workers=3,
        live_group=[0, 1, 2],
        ledger={0: 0, 1: 1},
        manifests={0: {"hot": [0]}},
        scheduler_states={},
    )
    return payload


class TestRoundtrip:
    def test_save_then_load(self, tmp_path):
        path = save_job_snapshot(tmp_path, make_payload(epoch=2))
        assert path.name == "snap-2.ckpt"
        loaded = load_job_snapshot(path)
        assert loaded["epoch"] == 2
        assert loaded["live_group"] == [0, 1, 2]
        assert np.array_equal(loaded["model_state"]["w"], np.arange(4.0))
        assert loaded["schema"] == JOB_SNAPSHOT_SCHEMA
        assert loaded["version"] == JOB_SNAPSHOT_VERSION

    def test_commit_marker_written_second(self, tmp_path):
        save_job_snapshot(tmp_path, make_payload(epoch=1))
        assert (tmp_path / "snap-1.ckpt").exists()
        assert (tmp_path / "snap-1.ok").exists()

    def test_caller_payload_not_mutated(self, tmp_path):
        payload = make_payload()
        save_job_snapshot(tmp_path, payload)
        assert "schema" not in payload


class TestSchemaGate:
    def test_missing_key_rejected_at_save(self, tmp_path):
        payload = make_payload()
        del payload["ledger"]
        with pytest.raises(CheckpointError, match="ledger"):
            save_job_snapshot(tmp_path, payload)
        assert not list(tmp_path.iterdir())  # nothing half-written

    def test_missing_key_rejected_at_load(self, tmp_path):
        path = save_job_snapshot(tmp_path, make_payload())
        payload = pickle.loads(path.read_bytes())
        del payload["manifests"]
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(CheckpointError, match="manifests"):
            load_job_snapshot(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = save_job_snapshot(tmp_path, make_payload())
        payload = pickle.loads(path.read_bytes())
        payload["schema"] = "repro.train.checkpoint"
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(CheckpointError, match="schema mismatch"):
            load_job_snapshot(path)

    def test_future_version_rejected(self, tmp_path):
        path = save_job_snapshot(tmp_path, make_payload())
        payload = pickle.loads(path.read_bytes())
        payload["version"] = JOB_SNAPSHOT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(CheckpointError, match="version mismatch"):
            load_job_snapshot(path)

    def test_not_a_dict_rejected(self, tmp_path):
        path = tmp_path / "snap-0.ckpt"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_job_snapshot(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_job_snapshot(tmp_path / "snap-9.ckpt")


class TestLatestComplete:
    def test_picks_highest_committed_epoch(self, tmp_path):
        save_job_snapshot(tmp_path, make_payload(epoch=1))
        save_job_snapshot(tmp_path, make_payload(epoch=3))
        save_job_snapshot(tmp_path, make_payload(epoch=2))
        best = latest_complete_snapshot(tmp_path)
        assert best is not None and best.name == "snap-3.ckpt"

    def test_torn_snapshot_is_ignored(self, tmp_path):
        save_job_snapshot(tmp_path, make_payload(epoch=1))
        # Simulate a crash between phase 1 (data) and phase 2 (marker).
        save_job_snapshot(tmp_path, make_payload(epoch=2))
        (tmp_path / "snap-2.ok").unlink()
        best = latest_complete_snapshot(tmp_path)
        assert best is not None and best.name == "snap-1.ckpt"

    def test_no_snapshots(self, tmp_path):
        assert latest_complete_snapshot(tmp_path) is None
        assert latest_complete_snapshot(tmp_path / "absent") is None

    def test_stray_files_not_matched(self, tmp_path):
        (tmp_path / "snap-1.ckpt.tmp").write_bytes(b"torn temp")
        (tmp_path / "notes.txt").write_text("hi")
        assert latest_complete_snapshot(tmp_path) is None
