"""Hypothesis fuzzing of cross-cutting invariants.

These complement the per-module property tests: each test drives a whole
subsystem under randomised configurations and checks the invariant the
paper's correctness rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mpi import run_spmd
from repro.nn import Tensor
from repro.shuffle import Scheduler, StorageArea
from repro.shuffle.volumes import compute_volumes
from repro.theory import log_permutations, log_sigma

from exchange_steps import exchange_epoch


@settings(max_examples=20, deadline=None)
@given(
    size=st.integers(2, 6),
    n_local=st.integers(4, 24),
    q=st.floats(0.0, 1.0),
    batch_size=st.integers(1, 8),
    epochs=st.integers(1, 3),
    seed=st.integers(0, 50),
)
def test_exchange_conserves_samples_fuzz(size, n_local, q, batch_size, epochs, seed):
    """For ANY configuration: the global multiset of samples is preserved,
    every shard keeps its size, and sent == received on every rank."""

    def worker(comm):
        st_ = StorageArea()
        for i in range(n_local):
            st_.add(np.array([comm.rank, i], dtype=np.float32), comm.rank)
        sched = Scheduler(st_, comm, fraction=q, seed=seed, batch_size=batch_size)
        for e in range(epochs):
            exchange_epoch(sched, e)
        owners = sorted(int(s[0]) for _, s, _ in st_.items())
        return (len(st_), owners, sched.total_sent_samples, sched.total_recv_samples)

    out = run_spmd(worker, size, deadline_s=120)
    all_owners = sorted(o for r in out for o in r[1])
    assert all_owners == sorted(r for r in range(size) for _ in range(n_local))
    for n, _, sent, recv in out:
        assert n == n_local
        assert sent == recv


@settings(max_examples=30, deadline=None)
@given(
    a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                 elements=st.floats(-5, 5, allow_nan=False)),
    seed=st.integers(0, 100),
)
def test_autograd_matmul_matches_numpy_fuzz(a, seed):
    """Forward matmul equals numpy; gradient of sum(xW) equals analytic."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(a.shape[1], 3))
    x = Tensor(a.astype(np.float32), requires_grad=True)
    out = x @ Tensor(w.astype(np.float32))
    assert np.allclose(out.data, a @ w, atol=1e-3)
    out.sum().backward()
    expected = np.tile(w.sum(axis=1), (a.shape[0], 1))
    assert np.allclose(x.grad, expected, atol=1e-3)


@settings(max_examples=50, deadline=None)
@given(
    workers=st.integers(1, 4096),
    q=st.floats(0.0, 1.0),
    dataset_bytes=st.integers(10**6, 10**13),
)
def test_volume_identities_fuzz(workers, q, dataset_bytes):
    """Closed-form identities of §III for any configuration:
    sent + local_read ~= shard, storage = (1+q) * shard."""
    v = compute_volumes(
        "partial", workers=workers, dataset_bytes=dataset_bytes,
        dataset_samples=max(workers, 1000), q=q,
    )
    shard = dataset_bytes // workers
    assert abs((v.network_send_bytes + v.local_read_bytes) - shard) <= 2
    assert abs(v.storage_bytes - (1 + q) * shard) <= 2
    ls = compute_volumes("local", workers=workers, dataset_bytes=dataset_bytes,
                         dataset_samples=max(workers, 1000))
    assert v.storage_bytes <= 2 * ls.storage_bytes + 2


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 10**6),
    m=st.integers(2, 1024),
    q=st.floats(0.0, 1.0),
)
def test_sigma_at_q_zero_counts_block_permutations_fuzz(n, m, q):
    """Structural identities of Eq. 9: at Q=0, sigma = (N/M)! * ((M-1)N/M)!
    and sigma is non-decreasing in Q (more exchanges reach more orders)."""
    if n < m:
        return
    from scipy.special import gammaln

    shard, rest = n / m, (m - 1) * n / m
    expected_q0 = float(gammaln(shard + 1) + gammaln(rest + 1))
    assert log_sigma(n, m, 0.0) == pytest.approx(expected_q0, rel=1e-9)
    assert log_sigma(n, m, q) >= log_sigma(n, m, 0.0) - 1e-9
    assert log_sigma(n, m, 0.0) <= log_permutations(n) + 1e-9





@settings(max_examples=15, deadline=None)
@given(
    size=st.integers(2, 5),
    n_local=st.integers(4, 16),
    q=st.floats(0.0, 1.0),
    batch_size=st.integers(1, 8),
    epochs=st.integers(0, 3),
    seed=st.integers(0, 50),
)
def test_ledger_tracks_exchange_fuzz(size, n_local, q, batch_size, epochs, seed):
    """For ANY exchange sequence: every gid stays held by exactly one live
    rank, the ledger matches the true storage contents on every rank, and
    the offline reconstruction from (seed, epoch) agrees with the live
    ledger — the invariants elastic shard recovery rests on."""
    from repro.elastic import ReplicaLedger, reconstruct_ledger

    n = size * n_local
    shards = [list(range(r * n_local, (r + 1) * n_local)) for r in range(size)]

    def worker(comm):
        st_ = StorageArea()
        ledger = ReplicaLedger()
        for g in shards[comm.rank]:
            st_.add(np.array([g, 0], dtype=np.float32), 0, gid=g)
        ledger.seed_partition(comm, st_.hot_gids())
        sched = Scheduler(
            st_, comm, fraction=q, seed=seed,
            batch_size=batch_size, ledger=ledger,
        )
        for e in range(epochs):
            exchange_epoch(sched, e)
        return ledger, sorted(st_.hot_gids())

    out = run_spmd(worker, size, deadline_s=120)
    ledgers = [r[0] for r in out]
    # Replicated identically, nothing lost, nothing duplicated.
    assert all(led == ledgers[0] for led in ledgers)
    assert ledgers[0].missing_from(range(size)) == []
    assert sorted(ledgers[0].holder) == list(range(n))
    # The ledger IS the storage truth on every rank.
    for rank, (_, hot) in enumerate(out):
        assert ledgers[0].held_by(rank) == hot
    # And it is reconstructible offline from (seed, epoch) alone.
    offline = reconstruct_ledger(seed, shards, epochs, q)
    assert offline == ledgers[0]
