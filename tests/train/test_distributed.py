"""Distributed SGD primitives: broadcast, gradient allreduce, BN-stat sync."""

import numpy as np

from repro.mpi import run_spmd
from repro.nn import Tensor, build_model
from repro.nn import functional as F
from repro.train import (
    allreduce_batchnorm_stats,
    allreduce_gradients,
    broadcast_model,
)


def flat_params(model):
    return np.concatenate([p.data.ravel() for p in model.parameters()])


class TestBroadcastModel:
    def test_all_ranks_match_root(self):
        def worker(comm):
            model = build_model("mlp", in_shape=(8,), num_classes=3, seed=comm.rank)
            broadcast_model(model, comm)
            return flat_params(model)

        out = run_spmd(worker, 4, deadline_s=60)
        for r in range(1, 4):
            assert np.array_equal(out[0], out[r])

    def test_buffers_broadcast_too(self):
        def worker(comm):
            model = build_model("mlp", in_shape=(8,), num_classes=3, seed=0)
            if comm.rank == 0:
                # poke a BN running stat on root only
                for name, buf in model.named_buffers():
                    buf[...] = 7.0
            broadcast_model(model, comm)
            return [buf.copy() for _, buf in model.named_buffers()]

        out = run_spmd(worker, 3, deadline_s=60)
        for bufs in out:
            for buf in bufs:
                assert np.allclose(buf, 7.0)


class TestAllreduceGradients:
    def test_grads_averaged(self):
        def worker(comm):
            model = build_model("mlp", in_shape=(8,), num_classes=3, seed=0, norm="group")
            X = np.full((4, 8), float(comm.rank), dtype=np.float32)
            y = np.array([0, 1, 2, 0])
            loss = F.cross_entropy(model(Tensor(X)), y)
            model.zero_grad()
            loss.backward()
            allreduce_gradients(model, comm)
            return np.concatenate([p.grad.ravel() for p in model.parameters()])

        out = run_spmd(worker, 4, deadline_s=60)
        for r in range(1, 4):
            assert np.allclose(out[0], out[r], atol=1e-6)

    def test_replicas_stay_identical_after_updates(self):
        """The Eq. 1 invariant: same init + averaged grads -> same weights."""
        from repro.nn import SGD

        def worker(comm):
            rng = np.random.default_rng(comm.rank)  # different local data!
            model = build_model("mlp", in_shape=(8,), num_classes=3, seed=0, norm="group")
            broadcast_model(model, comm)
            opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
            for _ in range(5):
                X = rng.normal(size=(4, 8)).astype(np.float32)
                y = rng.integers(0, 3, size=4)
                loss = F.cross_entropy(model(Tensor(X)), y)
                model.zero_grad()
                loss.backward()
                allreduce_gradients(model, comm)
                opt.step()
            return flat_params(model)

        out = run_spmd(worker, 4, deadline_s=60)
        for r in range(1, 4):
            assert np.allclose(out[0], out[r], atol=1e-5)


class TestBatchnormSync:
    def test_running_stats_averaged(self):
        def worker(comm):
            model = build_model("mlp", in_shape=(8,), num_classes=3, seed=0)
            # Each worker sees differently-shifted data -> divergent stats.
            X = np.random.default_rng(comm.rank).normal(
                loc=float(comm.rank), size=(32, 8)
            ).astype(np.float32)
            model(Tensor(X))
            allreduce_batchnorm_stats(model, comm)
            return [buf.copy() for name, buf in model.named_buffers() if "mean" in name]

        out = run_spmd(worker, 4, deadline_s=60)
        for r in range(1, 4):
            for a, b in zip(out[0], out[r]):
                assert np.allclose(a, b, atol=1e-6)

    def test_noop_without_batchnorm(self):
        def worker(comm):
            model = build_model("mlp", in_shape=(8,), num_classes=3, seed=0, norm="group")
            allreduce_batchnorm_stats(model, comm)  # must not deadlock/crash
            return True

        assert all(run_spmd(worker, 3, deadline_s=60))
