"""A corrupted shard, a dropped sample id or a diverging twin fails the
workload — and a real traced pass passes them and leaves no wrapper behind."""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from harness import measure, onepass
from harness.workloads import N_SAMPLES, WORKLOADS, PassSpec, make_inputs, pass_specs


def _rank(rank, gids, epochs=2):
    return {
        "rank": rank,
        "records": [(e, 1.0 / (e + 1), 0.5, 0.05, N_SAMPLES) for e in range(epochs)],
        "hot_gids": list(gids),
        "stats": {"degraded_epochs": 0, "q_deficit": 0, "sent_samples": 10},
        "seen_ids": [list(gids) for _ in range(epochs)],
    }


def _spec(traced=True, epochs=2):
    return PassSpec("exchange_threads", "traced", 0, "threads", "partial-1", 2, epochs, traced)


WORLD = {"pool": {"in_use": 0}, "live_segments": []}


def _ranks():
    half = N_SAMPLES // 2
    return [_rank(0, range(half)), _rank(1, range(half, N_SAMPLES))]


def test_a_clean_pass_passes_every_check():
    assert all(onepass._check(_ranks(), _spec(), WORLD).values())


def test_a_dropped_sample_id_fails_exactly_once():
    ranks = _ranks()
    ranks[1]["seen_ids"][1].pop()
    checks = onepass._check(ranks, _spec(), WORLD)
    assert not checks["exactly_once"]
    # ... and a duplicated one does too (same count, not a permutation).
    ranks = _ranks()
    ranks[0]["seen_ids"][0][0] = ranks[0]["seen_ids"][0][1]
    assert not onepass._check(ranks, _spec(), WORLD)["exactly_once"]


def test_a_lost_or_duplicated_shard_sample_fails_the_partition_check():
    ranks = _ranks()
    ranks[0]["hot_gids"][0] = ranks[1]["hot_gids"][0]
    assert not onepass._check(ranks, _spec(), WORLD)["shards_partition"]
    ranks = _ranks()
    ranks[0]["hot_gids"].append(ranks[1]["hot_gids"].pop())  # still a partition, unbalanced
    assert not onepass._check(ranks, _spec(), WORLD)["shards_partition"]


def test_diverging_histories_leaks_and_degradation_are_caught():
    ranks = _ranks()
    ranks[1]["records"][1] = (1, 0.25, 0.5, 0.05, N_SAMPLES)
    assert not onepass._check(ranks, _spec(), WORLD)["history_identical"]
    ranks = _ranks()
    ranks[0]["records"][0] = ranks[1]["records"][0] = (0, 1.0, 0.5, 0.05, N_SAMPLES - 32)
    assert not onepass._check(ranks, _spec(), WORLD)["samples_seen"]
    ranks = _ranks()
    ranks[0]["stats"]["q_deficit"] = 3
    assert not onepass._check(ranks, _spec(), WORLD)["no_q_deficit"]
    leaky = {"pool": {"in_use": 2}, "live_segments": ["repro-shm-1"]}
    checks = onepass._check(_ranks(), _spec(), leaky)
    assert not checks["pool_balanced"] and not checks["no_live_segments"]


def test_shard_checksum_sees_a_flipped_bit_but_not_the_order():
    from repro.shuffle.storage import StorageArea

    x, y, _, _ = make_inputs(3, (8,))
    a, b, c = StorageArea(), StorageArea(), StorageArea()
    for i in range(16):
        a.add(x[i], int(y[i]), gid=i)
    for i in reversed(range(16)):
        b.add(x[i], int(y[i]), gid=i)
    corrupt = x[:16].copy()
    corrupt.view(np.uint32)[5, 3] ^= 1
    for i in range(16):
        c.add(corrupt[i], int(y[i]), gid=i)
    assert onepass.shard_checksum(a) == onepass.shard_checksum(b)
    assert onepass.shard_checksum(a) != onepass.shard_checksum(c)


def _result(kind, **over):
    base = {
        "spec": {"kind": kind, "epochs": 3},
        "ok": True,
        "checks": {"history_identical": True},
        "history_digest": "d1",
        "shard_checksums": [1, 2],
        "losses": [0.5, 0.25, 0.125],
        "ops": {"steps_planned": 192, "steps_done": 192,
                "rounds_planned": 600, "rounds_committed": 600},
    }
    base.update(over)
    return base


def _run(untraced, other):
    return SimpleNamespace(untraced=untraced, other=other,
                           all_passes=lambda: [*untraced, *other.values()])


def test_verdict_counts_operations_and_accepts_matching_passes():
    v = measure.verdict(_run([_result("untraced"), _result("untraced")],
                             {"twin": _result("twin")}))
    assert v["correct"] and (v["attempted"], v["failed"]) == (3 * 792, 0)
    assert v["history_digest"] == "d1"


def test_a_corrupted_shard_in_the_twin_fails_every_operation():
    twin = _result("twin", shard_checksums=[1, 3])
    v = measure.verdict(_run([_result("untraced"), _result("untraced")], {"twin": twin}))
    assert not v["correct"]
    assert not v["checks"]["matches_threads_twin"]
    assert v["failed"] == v["attempted"] == 3 * 792


def test_passes_of_one_seed_must_agree_bit_for_bit():
    v = measure.verdict(_run([_result("untraced"), _result("untraced", history_digest="d2")], {}))
    assert not v["checks"]["passes_bit_identical"] and v["history_digest"] == "diverged"


def test_a_pass_that_did_not_run_fails_its_planned_operations():
    dead = {"spec": {"kind": "untraced"}, "ok": False, "error": "pass timed out",
            "ops": {"steps_planned": 192, "steps_done": 0,
                    "rounds_planned": 600, "rounds_committed": 0}}
    v = measure.verdict(_run([_result("untraced"), dead], {}))
    assert not v["correct"] and v["errors"] == ["pass timed out"]


def test_procs_workloads_get_a_threads_twin_of_the_same_size():
    for wl in WORKLOADS.values():
        specs = pass_specs(wl, seed=7)
        assert ("twin" in specs) == (wl.backend == "procs")
        assert {s.epochs for s in specs.values()} == {1 + wl.steady_epochs}
        assert specs["single"].ranks == 1 and specs["local"].strategy == "local"
    twin = pass_specs(WORKLOADS["exchange_procs"], 7)["twin"]
    assert (twin.backend, twin.strategy) == ("threads", "partial-1")


def test_inputs_depend_only_on_the_seed_and_carry_their_index():
    a = make_inputs(5, (3, 4, 4))
    b = make_inputs(5, (3, 4, 4))
    c = make_inputs(6, (3, 4, 4))
    assert all(np.array_equal(u, v) for u, v in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    first = a[0].reshape(N_SAMPLES, -1)[:, 0]
    assert np.array_equal(np.rint(first * N_SAMPLES), np.arange(N_SAMPLES))


@pytest.mark.parametrize("backend", ["threads"])
def test_a_traced_pass_checks_out_and_removes_every_wrapper(tmp_path, backend):
    from repro.mpi.communicator import Communicator
    from repro.mpi.message import Checksummed
    from repro.mpi.pool import BufferPool
    from repro.obs.telemetry import FlightRecorder
    from repro.shuffle.scheduler import Scheduler
    from repro.shuffle.storage import StorageArea
    from repro.train import trainer

    watched = [
        (Communicator, "isend"), (Communicator, "allreduce"), (Checksummed, "wrap"),
        (Checksummed, "ok"), (Scheduler, "synchronize"), (StorageArea, "get"),
        (BufferPool, "acquire"), (FlightRecorder, "record"),
        (trainer, "allreduce_gradients"), (trainer, "push_metrics"),
    ]
    before = [vars(owner)[attr] for owner, attr in watched]
    spec = PassSpec("exchange_threads", "traced", 11, backend, "partial-1", 2, 2, True)
    result = onepass.run_pass(spec, str(tmp_path))
    assert result["ok"], result.get("error")
    assert all(result["checks"].values()), result["checks"]
    assert result["checks"]["exactly_once"]
    assert [vars(owner)[attr] for owner, attr in watched] == before
    assert (tmp_path / "trace-exchange_threads.json").is_file()
    layer = result["layers"]
    assert layer["shuffle.sync_ms_per_epoch"]["value"] > 0
    assert layer["mpi.polls_per_round"]["value"] >= 1
    # The blocking chain accounts for the epoch: little is left unattributed.
    assert (
        layer["train.unattributed_ms_per_epoch"]["value"]
        < 100 * layer["train.epoch_s_p50"]["value"]
    )
    second = copy.deepcopy(onepass.run_pass(spec, str(tmp_path)))
    assert second["history_digest"] == result["history_digest"]
    assert second["shard_checksums"] == result["shard_checksums"]
