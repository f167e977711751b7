"""Final edge-case sweep across subsystems."""

import numpy as np
import pytest

from repro.data import DataLoader, DistributedSampler, TensorDataset
from repro.mpi import ANY_SOURCE, ANY_TAG, run_spmd
from repro.nn import build_model
from repro.shuffle import StorageArea


class TestStorageStaleView:
    def test_snapshot_breaks_after_removal(self):
        st = StorageArea()
        sid = st.add(np.zeros(2), 0)
        view = st.as_dataset()
        st.remove(sid)
        with pytest.raises(KeyError):
            view[0]


class TestWildcardOrdering:
    def test_any_source_respects_global_send_order_per_channel(self):
        """Non-overtaking: from the same sender, wildcard receives must see
        messages in send order even across distinct tags."""

        def main(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=10 + i)
                return None
            return [comm.recv(source=ANY_SOURCE, tag=ANY_TAG) for _ in range(5)]

        out = run_spmd(main, 2)
        assert out[1] == [0, 1, 2, 3, 4]


class TestLoaderSamplerLen:
    def test_len_follows_sampler_not_dataset(self):
        ds = TensorDataset(np.zeros((100, 2), dtype=np.float32), np.zeros(100, dtype=np.int64))
        sampler = DistributedSampler(ds, 4, 0, drop_last=True)
        loader = DataLoader(ds, 5, sampler=sampler)
        assert len(loader) == 5  # 25 shard samples / batch 5
        assert sum(1 for _ in loader) == 5


class TestModelZooNormNone:
    def test_no_norm_model_trains_without_batch_constraint(self):
        # GroupNorm normalises within a sample: a batch of ONE is fine.
        model = build_model("mlp", in_shape=(8,), num_classes=3, seed=0, norm="group")
        out = model(np.zeros((1, 8), dtype=np.float32))
        assert out.shape == (1, 3)
