import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import partition_indices, partition_sizes


class TestPartitionSizes:
    def test_even(self):
        assert partition_sizes(12, 4).tolist() == [3, 3, 3, 3]

    def test_remainder_to_low_ranks(self):
        assert partition_sizes(10, 4).tolist() == [3, 3, 2, 2]

    def test_more_workers_than_samples_rejected(self):
        with pytest.raises(ValueError):
            partition_sizes(3, 4)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            partition_sizes(4, 0)


def _check_cover(shards, n):
    flat = np.concatenate(shards)
    assert sorted(flat.tolist()) == list(range(n))


class TestSchemes:
    def test_random_covers_and_is_shuffled(self):
        shards = partition_indices(100, 4, scheme="random", seed=1)
        _check_cover(shards, 100)
        assert shards[0].tolist() != list(range(25))

    def test_random_reproducible(self):
        a = partition_indices(50, 5, scheme="random", seed=3)
        b = partition_indices(50, 5, scheme="random", seed=3)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_contiguous_blocks(self):
        shards = partition_indices(10, 2, scheme="contiguous")
        assert shards[0].tolist() == [0, 1, 2, 3, 4]
        assert shards[1].tolist() == [5, 6, 7, 8, 9]

    def test_strided(self):
        shards = partition_indices(10, 2, scheme="strided")
        assert shards[0].tolist() == [0, 2, 4, 6, 8]
        assert shards[1].tolist() == [1, 3, 5, 7, 9]

    def test_class_sorted_maximises_skew(self):
        labels = np.array([0, 1] * 10)  # interleaved classes
        shards = partition_indices(20, 2, scheme="class_sorted", labels=labels)
        _check_cover(shards, 20)
        h0 = np.bincount(labels[shards[0]], minlength=2)
        h1 = np.bincount(labels[shards[1]], minlength=2)
        assert h0.tolist() == [10, 0]
        assert h1.tolist() == [0, 10]

    def test_class_sorted_requires_labels(self):
        with pytest.raises(ValueError):
            partition_indices(10, 2, scheme="class_sorted")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            partition_indices(10, 2, scheme="sorted-by-vibes")

    def test_labels_length_mismatch(self):
        with pytest.raises(ValueError):
            partition_indices(10, 2, scheme="class_sorted", labels=np.zeros(5, dtype=int))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(8, 300),
    m=st.integers(1, 12),
    scheme=st.sampled_from(["random", "contiguous", "strided", "class_sorted"]),
    seed=st.integers(0, 10),
)
def test_partition_invariants_property(n, m, scheme, seed):
    """Every scheme yields disjoint, exhaustive, balanced(+-1) shards."""
    if n < m:
        return
    labels = np.arange(n) % 7
    shards = partition_indices(n, m, scheme=scheme, labels=labels, seed=seed)
    flat = np.concatenate(shards)
    assert sorted(flat.tolist()) == list(range(n))
    sizes = [len(s) for s in shards]
    assert max(sizes) - min(sizes) <= 1
