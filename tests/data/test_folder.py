import numpy as np
import pytest

from repro.data import FolderDataset, materialize_folder_dataset


@pytest.fixture
def disk_ds(tmp_path):
    X = np.arange(12, dtype=np.float32).reshape(6, 2)
    y = [0, 0, 1, 1, 2, 2]
    return materialize_folder_dataset(tmp_path / "ds", X, y, num_classes=3)


class TestMaterialize:
    def test_roundtrip(self, disk_ds):
        assert len(disk_ds) == 6
        x, y = disk_ds[0]
        assert x.shape == (2,)
        assert y == 0

    def test_all_class_dirs_created(self, tmp_path):
        # num_classes > max label: empty dirs still created so every rank
        # agrees on class_to_idx (the paper's class_file role).
        ds = materialize_folder_dataset(
            tmp_path / "d", np.zeros((2, 2)), [0, 0], num_classes=5
        )
        assert len(ds.classes) == 5

    def test_labels_preserved(self, disk_ds):
        labels = sorted(disk_ds[i][1] for i in range(len(disk_ds)))
        assert labels == [0, 0, 1, 1, 2, 2]


class TestFolderDataset:
    def test_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FolderDataset(tmp_path / "nope")

    def test_empty_root(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError):
            FolderDataset(tmp_path / "empty")


class TestRobustIO:
    def test_atomic_save_leaves_no_temp_files(self, disk_ds):
        leftovers = [p for p in disk_ds.root.rglob("*") if ".tmp" in p.name]
        assert leftovers == []

    def test_read_retries_transient_failures(self, tmp_path):
        from repro.utils.retry import Retrier

        fails = {"left": 2}

        def flaky(op, path, attempt):
            if fails["left"] > 0:
                fails["left"] -= 1
                raise OSError("injected")

        retrier = Retrier(attempts=5, sleep=lambda _s: None)
        ds = materialize_folder_dataset(
            tmp_path / "flaky", np.arange(4.0).reshape(2, 2), [0, 1],
            retrier=retrier, fault_hook=flaky,
        )
        x, y = ds[0]
        assert y == 0
        assert fails["left"] == 0
        assert retrier.stats() == {"retries": 2, "giveups": 0}

    def test_read_gives_up_past_budget(self, tmp_path):
        from repro.utils.retry import Retrier

        def always_fail(op, path, attempt):
            raise OSError("permanently down")

        ds = materialize_folder_dataset(
            tmp_path / "down", np.zeros((1, 2)), [0],
            retrier=Retrier(attempts=2, sleep=lambda _s: None),
            fault_hook=always_fail,
        )
        with pytest.raises(OSError, match="permanently down"):
            ds[0]

    def test_fault_hook_sees_attempt_number(self, tmp_path):
        seen = []

        def spy(op, path, attempt):
            seen.append((op, attempt))
            if attempt == 0:
                raise OSError("once")

        from repro.utils.retry import Retrier

        ds = materialize_folder_dataset(
            tmp_path / "spy", np.zeros((1, 2)), [0],
            retrier=Retrier(attempts=3, sleep=lambda _s: None), fault_hook=spy,
        )
        ds[0]
        assert seen == [("read", 0), ("read", 1)]
