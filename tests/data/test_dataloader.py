import numpy as np
import pytest

from repro.data import DataLoader, DistributedSampler, TensorDataset


def make_ds(n=10, d=4):
    X = np.arange(n * d, dtype=np.float32).reshape(n, d)
    return TensorDataset(X, np.arange(n))


class TestDataLoader:
    def test_batch_shapes(self):
        dl = DataLoader(make_ds(10), batch_size=4)
        batches = list(dl)
        assert [b[0].shape for b in batches] == [(4, 4), (4, 4), (2, 4)]
        assert len(dl) == 3

    def test_drop_last(self):
        dl = DataLoader(make_ds(10), batch_size=4, drop_last=True)
        assert [b[0].shape[0] for b in dl] == [4, 4]
        assert len(dl) == 2

    def test_sequential_default_order(self):
        dl = DataLoader(make_ds(6), batch_size=3)
        labels = np.concatenate([y for _, y in dl])
        assert list(labels) == list(range(6))

    def test_shuffle_reorders_but_covers(self):
        dl = DataLoader(make_ds(20), batch_size=5, shuffle=True, seed=1)
        labels = np.concatenate([y for _, y in dl])
        assert sorted(labels.tolist()) == list(range(20))
        assert labels.tolist() != list(range(20))

    def test_set_epoch_changes_shuffle(self):
        dl = DataLoader(make_ds(20), batch_size=20, shuffle=True, seed=1)
        dl.sampler.set_epoch(0)
        (x0, y0), = list(dl)
        dl.sampler.set_epoch(1)
        (x1, y1), = list(dl)
        assert y0.tolist() != y1.tolist()

    def test_shuffle_and_sampler_conflict(self):
        ds = make_ds(4)
        with pytest.raises(ValueError):
            DataLoader(ds, shuffle=True, sampler=DistributedSampler(ds, 1, 0))

    def test_distributed_sampler_integration(self):
        ds = make_ds(8)
        seen = []
        for r in range(2):
            dl = DataLoader(ds, batch_size=2, sampler=DistributedSampler(ds, 2, r, shuffle=False))
            for _, y in dl:
                seen.extend(y.tolist())
        assert sorted(seen) == list(range(8))

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(make_ds(4), batch_size=0)

    def test_labels_dtype(self):
        dl = DataLoader(make_ds(4), batch_size=4)
        _, y = next(iter(dl))
        assert np.issubdtype(y.dtype, np.integer)
