import numpy as np
import pytest

from repro.shuffle import DiskStorageArea, StorageArea


def sample(v=1.0, n=4):
    return np.full(n, v, dtype=np.float32)


class TestStorageArea:
    def test_add_get_roundtrip(self):
        st = StorageArea()
        sid = st.add(sample(3.0), label=2)
        s, lbl = st.get(sid)
        assert lbl == 2
        assert np.allclose(s, 3.0)

    def test_ids_stable_across_removal(self):
        st = StorageArea()
        ids = [st.add(sample(i), i) for i in range(5)]
        st.remove(ids[1])
        # remaining ids still resolve to their original samples
        s, lbl = st.get(ids[3])
        assert lbl == 3

    def test_remove_unknown_raises(self):
        st = StorageArea()
        with pytest.raises(KeyError):
            st.remove(99)

    def test_nbytes_accounting(self):
        st = StorageArea()
        sid = st.add(np.zeros(10, dtype=np.float64), 0)  # 80 bytes
        assert st.nbytes == 80
        st.remove(sid)
        assert st.nbytes == 0

    def test_peak_tracking(self):
        st = StorageArea()
        ids = [st.add(np.zeros(10, dtype=np.float64), 0) for _ in range(3)]
        for sid in ids:
            st.remove(sid)
        assert st.peak_nbytes == 240
        assert st.peak_count == 3
        assert st.nbytes == 0

    def test_labels(self):
        st = StorageArea()
        for lbl in [2, 0, 1]:
            st.add(sample(), lbl)
        assert [label for _, _, label in st.items()] == [2, 0, 1]

    def test_contains_and_len(self):
        st = StorageArea()
        sid = st.add(sample(), 0)
        assert sid in st.ids()
        assert len(st) == 1


class TestStorageDataset:
    def test_snapshot_view(self):
        st = StorageArea()
        ids = [st.add(sample(i), i) for i in range(4)]
        view = st.as_dataset()
        assert len(view) == 4
        assert view[2][1] == 2

    def test_snapshot_unaffected_by_later_adds(self):
        st = StorageArea()
        st.add(sample(), 0)
        view = st.as_dataset()
        st.add(sample(), 1)
        assert len(view) == 1


class TestDiskStorageArea:
    def test_files_created_and_removed(self, tmp_path):
        st = DiskStorageArea(tmp_path / "local")
        sid = st.add(sample(7.0), 3)
        files = list((tmp_path / "local").glob("*.npy"))
        assert len(files) == 1
        st.remove(sid)
        assert not list((tmp_path / "local").glob("*.npy"))

    def test_get_serves_from_memory(self, tmp_path):
        st = DiskStorageArea(tmp_path / "local")
        sid = st.add(sample(5.0), 0)
        s, lbl = st.get(sid)
        assert np.allclose(s, 5.0)


class TestDiskStorageRobustIO:
    def test_writes_are_atomic_no_temp_leftovers(self, tmp_path):
        st = DiskStorageArea(tmp_path / "local")
        for i in range(4):
            st.add(sample(float(i)), label=i)
        leftovers = [p for p in (tmp_path / "local").rglob("*") if ".tmp" in p.name]
        assert leftovers == []

