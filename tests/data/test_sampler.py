import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data import (
    DistributedSampler,
    RandomSampler,
    TensorDataset,
)


def make_ds(n):
    return TensorDataset(np.zeros((n, 2), dtype=np.float32), np.arange(n))


class TestRandomSampler:
    def test_is_permutation(self):
        s = RandomSampler(make_ds(20), seed=3)
        assert sorted(s) == list(range(20))

    def test_epoch_changes_order(self):
        s = RandomSampler(make_ds(50), seed=3)
        s.set_epoch(0)
        e0 = list(s)
        s.set_epoch(1)
        e1 = list(s)
        assert e0 != e1
        assert sorted(e0) == sorted(e1)

    def test_same_epoch_reproducible(self):
        a = RandomSampler(make_ds(30), seed=9)
        b = RandomSampler(make_ds(30), seed=9)
        a.set_epoch(4)
        b.set_epoch(4)
        assert list(a) == list(b)


class TestDistributedSampler:
    def test_disjoint_exhaustive_cover(self):
        ds = make_ds(16)
        shards = [
            list(DistributedSampler(ds, 4, r, shuffle=True, seed=1)) for r in range(4)
        ]
        flat = sorted(i for shard in shards for i in shard)
        assert flat == list(range(16))

    def test_padding_when_uneven(self):
        ds = make_ds(10)
        shards = [list(DistributedSampler(ds, 4, r, shuffle=False)) for r in range(4)]
        # ceil(10/4)=3 per rank, 12 total with 2 wrapped duplicates.
        assert all(len(s) == 3 for s in shards)
        flat = [i for s in shards for i in flat_or(s)]
        assert set(flat) == set(range(10))

    def test_drop_last_truncates(self):
        ds = make_ds(10)
        shards = [
            list(DistributedSampler(ds, 4, r, shuffle=False, drop_last=True))
            for r in range(4)
        ]
        assert all(len(s) == 2 for s in shards)
        flat = sorted(i for s in shards for i in s)
        assert flat == list(range(8))

    def test_epoch_synchronised_permutation(self):
        """All ranks must derive the same global permutation per epoch."""
        ds = make_ds(12)
        full_epoch1 = []
        for r in range(3):
            s = DistributedSampler(ds, 3, r, shuffle=True, seed=5)
            s.set_epoch(1)
            full_epoch1.append(list(s))
        # Reconstruct the global order by interleaving rank shards.
        n_per = len(full_epoch1[0])
        recon = [full_epoch1[i % 3][i // 3] for i in range(3 * n_per)]
        assert sorted(recon) == list(range(12))

    def test_shuffle_false_is_strided(self):
        ds = make_ds(8)
        assert list(DistributedSampler(ds, 2, 0, shuffle=False)) == [0, 2, 4, 6]
        assert list(DistributedSampler(ds, 2, 1, shuffle=False)) == [1, 3, 5, 7]

    def test_rank_validation(self):
        ds = make_ds(4)
        with pytest.raises(ValueError):
            DistributedSampler(ds, 2, 2)
        with pytest.raises(ValueError):
            DistributedSampler(ds, 0, 0)

    def test_len(self):
        ds = make_ds(10)
        assert len(DistributedSampler(ds, 4, 0)) == 3
        assert len(DistributedSampler(ds, 4, 0, drop_last=True)) == 2


def flat_or(s):
    return s


@given(
    n=st.integers(4, 200),
    m=st.integers(1, 16),
    epoch=st.integers(0, 5),
)
def test_distributed_sampler_cover_property(n, m, epoch):
    """For any (n, m, epoch): shards are balanced and cover the dataset."""
    if n < m:
        return
    ds = make_ds(n)
    shards = []
    for r in range(m):
        s = DistributedSampler(ds, m, r, shuffle=True, seed=0)
        s.set_epoch(epoch)
        shards.append(list(s))
    sizes = {len(s) for s in shards}
    assert len(sizes) == 1  # equal after padding
    covered = set(i for s in shards for i in s)
    assert covered == set(range(n))
