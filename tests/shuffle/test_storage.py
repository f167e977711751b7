import numpy as np
import pytest

from repro.shuffle import DiskStorageArea, StorageArea, StorageFullError


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

    def test_capacity_enforced(self):
        st = StorageArea(capacity_bytes=100)
        st.add(np.zeros(10, dtype=np.float64), 0)  # 80 B
        with pytest.raises(StorageFullError):
            st.add(np.zeros(10, dtype=np.float64), 0)

    def test_capacity_freed_by_remove(self):
        st = StorageArea(capacity_bytes=100)
        sid = st.add(np.zeros(10, dtype=np.float64), 0)
        st.remove(sid)
        st.add(np.zeros(10, dtype=np.float64), 1)  # fits again

    def test_peak_tracking(self):
        st = StorageArea()
        ids = [st.add(np.zeros(10, dtype=np.float64), 0) for _ in range(3)]
        for sid in ids:
            st.remove(sid)
        assert st.peak_nbytes == 240
        assert st.peak_count == 3
        assert st.nbytes == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            StorageArea(capacity_bytes=0)

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


class TestAddCold:
    """``add_cold`` installs replicas without disturbing the hot map.

    The snapshot-restore path depends on this: restoring a manifest whose
    gid is both hot *and* cold via ``add`` + ``demote`` would rebind
    ``sid_of(gid)`` to the throwaway entry and unbind the hot copy.
    """

    def test_cold_replica_visible_and_fetchable(self):
        st = StorageArea()
        assert st.add_cold(sample(7.0), label=3, gid=42)
        assert 42 in st.cold_gids() and st.sid_of(42) is None
        s, lbl = st.get_by_gid(42)
        assert lbl == 3 and s[0] == 7.0

    def test_does_not_rebind_hot_sid(self):
        st = StorageArea()
        sid = st.add(sample(1.0), label=0, gid=5)
        st.add_cold(sample(2.0), label=0, gid=5)
        assert st.sid_of(5) == sid  # hot map untouched
        assert 5 in st.cold_gids()  # gid is hot AND cold

    def test_dual_state_gid_survives_demote_of_hot_copy(self):
        # The exact restored-storage shape the rebalance donor relies on:
        # after restore, the donor demotes its hot copy via sid_of(gid) —
        # that must retire the *hot* entry, not a phantom.
        st = StorageArea()
        sid = st.add(sample(1.0), label=0, gid=5)
        st.add_cold(sample(1.0), label=0, gid=5)
        assert st.demote(sid)
        assert st.sid_of(5) is None
        assert 5 in st.cold_gids()

    def test_replaces_existing_cold_replica(self):
        st = StorageArea()
        st.add_cold(sample(1.0), label=0, gid=9)
        st.add_cold(sample(2.0), label=1, gid=9)
        assert st.cold_gids() == [9]
        s, lbl = st.get_by_gid(9)
        assert lbl == 1 and s[0] == 2.0

    def test_best_effort_when_hot_set_fills_budget(self):
        st = StorageArea(capacity_bytes=sample().nbytes)
        st.add(sample(), label=0, gid=0)
        assert not st.add_cold(sample(), label=0, gid=1)
        assert 1 not in st.cold_gids()

    def test_evicts_oldest_cold_to_fit(self):
        st = StorageArea(capacity_bytes=2 * sample().nbytes)
        st.add_cold(sample(1.0), label=0, gid=1)
        st.add_cold(sample(2.0), label=0, gid=2)
        assert st.add_cold(sample(3.0), label=0, gid=3)
        assert st.cold_gids() == [2, 3]  # gid 1 (oldest) evicted
