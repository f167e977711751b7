import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shuffle import ExchangePlan, exchange_count


class TestExchangeCount:
    def test_fractions(self):
        assert exchange_count(100, 0.0) == 0
        assert exchange_count(100, 0.1) == 10
        assert exchange_count(100, 1.0) == 100

    def test_rounding(self):
        assert exchange_count(10, 0.25) == 2  # round(2.5) banker's -> 2
        assert exchange_count(10, 0.35) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            exchange_count(10, 1.5)
        with pytest.raises(ValueError):
            exchange_count(-1, 0.5)


class TestExchangePlan:
    def test_balanced_every_round(self):
        plan = ExchangePlan.for_epoch(seed=3, epoch=0, size=8, rounds=5)
        assert plan.is_balanced()

    def test_sources_invert_destinations(self):
        plan = ExchangePlan.for_epoch(seed=3, epoch=0, size=6, rounds=4)
        for i in range(4):
            for src in range(6):
                dest = plan.destinations[i, src]
                assert plan.sources[i, dest] == src

    def test_same_seed_same_plan(self):
        a = ExchangePlan.for_epoch(seed=9, epoch=2, size=4, rounds=3)
        b = ExchangePlan.for_epoch(seed=9, epoch=2, size=4, rounds=3)
        assert np.array_equal(a.destinations, b.destinations)

    def test_epoch_changes_plan(self):
        a = ExchangePlan.for_epoch(seed=9, epoch=0, size=8, rounds=6)
        b = ExchangePlan.for_epoch(seed=9, epoch=1, size=8, rounds=6)
        assert not np.array_equal(a.destinations, b.destinations)

    def test_rank_views_consistent(self):
        plan = ExchangePlan.for_epoch(seed=1, epoch=0, size=5, rounds=4)
        for r in range(5):
            sends = plan.sends_for(r)
            assert sends.tolist() == plan.destinations[:, r].tolist()
            recvs = plan.sources[:, r]
            for i in range(4):
                assert plan.destinations[i, recvs[i]] == r

    def test_zero_rounds(self):
        plan = ExchangePlan.for_epoch(seed=1, epoch=0, size=4, rounds=0)
        assert plan.rounds == 0
        assert plan.is_balanced()

    def test_self_sends_happen_by_default(self):
        plan = ExchangePlan.for_epoch(seed=5, epoch=0, size=4, rounds=100)
        total_self = sum(int((plan.destinations[:, r] == r).sum()) for r in range(4))
        # E[self-sends] = rounds (one fixed point per permutation on avg).
        assert 50 < total_self < 200

    def test_rank_validation(self):
        plan = ExchangePlan.for_epoch(seed=1, epoch=0, size=4, rounds=1)
        with pytest.raises(ValueError):
            plan.sends_for(4)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ExchangePlan.for_epoch(seed=1, epoch=0, size=0, rounds=1)
        with pytest.raises(ValueError):
            ExchangePlan.for_epoch(seed=1, epoch=0, size=2, rounds=-1)

    def test_single_rank_world(self):
        plan = ExchangePlan.for_epoch(seed=1, epoch=0, size=1, rounds=3)
        assert plan.is_balanced()
        assert int((plan.destinations[:, 0] == 0).sum()) == 3  # nowhere else to go


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 1000),
    epoch=st.integers(0, 20),
    size=st.integers(1, 32),
    rounds=st.integers(0, 16),
)
def test_plan_always_balanced_property(seed, epoch, size, rounds):
    """Algorithm 1's guarantee: every rank sends and receives exactly
    ``rounds`` samples, for any seed/epoch/size."""
    plan = ExchangePlan.for_epoch(seed=seed, epoch=epoch, size=size, rounds=rounds)
    assert plan.is_balanced()
    for i in range(rounds):
        # sources row is also a permutation.
        assert sorted(plan.sources[i].tolist()) == list(range(size))


# --------------------------------------------------- plan stream identity
def _row_loop_plan(rng, rounds, size):
    """The plan as it was drawn before the vectorised draw: one
    ``rng.permutation(size)`` per round, each inverted on its own.  Kept
    here as the reference the one-call draw must reproduce."""
    destinations = np.empty((rounds, size), dtype=np.int64)
    for i in range(rounds):
        destinations[i] = rng.permutation(size)
    sources = np.empty_like(destinations)
    for i in range(rounds):
        sources[i, destinations[i]] = np.arange(size)
    return destinations, sources


@pytest.mark.parametrize("rounds", [0, 1, 7, 1024])
@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 64])
def test_vectorised_draw_consumes_the_stream_like_the_row_loop(size, rounds):
    from repro.utils.rng import SeedTree

    seed, epoch = 11, 3
    reference_rng = SeedTree(seed).shared("exchange-dest", epoch)
    destinations, sources = _row_loop_plan(reference_rng, rounds, size)

    plan = ExchangePlan.for_epoch(seed=seed, epoch=epoch, size=size, rounds=rounds)
    assert plan.destinations.dtype == destinations.dtype
    assert np.array_equal(plan.destinations, destinations)
    assert np.array_equal(plan.sources, sources)


def test_is_balanced_rejects_a_repeated_destination():
    plan = ExchangePlan.for_epoch(seed=3, epoch=0, size=4, rounds=3)
    broken = plan.destinations.copy()
    broken[1, 0] = broken[1, 1]
    unbalanced = ExchangePlan(
        epoch=0, size=4, rounds=3, destinations=broken, sources=plan.sources
    )
    assert plan.is_balanced() and not unbalanced.is_balanced()
