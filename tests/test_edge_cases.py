"""Final edge-case sweep across subsystems."""

import numpy as np
import pytest

from repro.data import DataLoader, DistributedSampler, TensorDataset
from repro.mpi import ANY_SOURCE, ANY_TAG, run_spmd
from repro.nn import build_model
from repro.shuffle import StorageArea
from repro.train import evaluate


class TestEvaluateTopK:
    def test_top5_geq_top1(self):
        model = build_model("mlp", in_shape=(16,), num_classes=8, seed=0)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(64, 16)).astype(np.float32)
        y = rng.integers(0, 8, 64)
        top1, _ = evaluate(model, X, y, k=1)
        top5, _ = evaluate(model, X, y, k=5)
        assert top5 >= top1

    def test_k_equals_classes_is_one(self):
        model = build_model("mlp", in_shape=(16,), num_classes=4, seed=0)
        X = np.zeros((8, 16), dtype=np.float32)
        y = np.zeros(8, dtype=np.int64)
        acc, _ = evaluate(model, X, y, k=4)
        assert acc == 1.0


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
