import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import SeedTree


class TestSeedTree:
    def test_same_seed_same_stream(self):
        a = SeedTree(7).shared("exchange", epoch=3).integers(0, 1000, 50)
        b = SeedTree(7).shared("exchange", epoch=3).integers(0, 1000, 50)
        assert np.array_equal(a, b)

    def test_different_epoch_different_stream(self):
        a = SeedTree(7).shared("exchange", epoch=0).integers(0, 1000, 50)
        b = SeedTree(7).shared("exchange", epoch=1).integers(0, 1000, 50)
        assert not np.array_equal(a, b)

    def test_different_name_different_stream(self):
        a = SeedTree(7).shared("a").integers(0, 1000, 50)
        b = SeedTree(7).shared("b").integers(0, 1000, 50)
        assert not np.array_equal(a, b)

    def test_per_rank_streams_differ(self):
        t = SeedTree(11)
        a = t.per_rank("local", rank=0).integers(0, 1000, 50)
        b = t.per_rank("local", rank=1).integers(0, 1000, 50)
        assert not np.array_equal(a, b)

    def test_per_rank_reproducible(self):
        a = SeedTree(11).per_rank("local", rank=5, epoch=2).integers(0, 1000, 50)
        b = SeedTree(11).per_rank("local", rank=5, epoch=2).integers(0, 1000, 50)
        assert np.array_equal(a, b)

    def test_shared_independent_of_rank_stream(self):
        t = SeedTree(13)
        shared = t.shared("x").integers(0, 1000, 50)
        ranked = t.per_rank("x", rank=0).integers(0, 1000, 50)
        assert not np.array_equal(shared, ranked)

    def test_root_seed_changes_everything(self):
        a = SeedTree(1).shared("x").integers(0, 1000, 50)
        b = SeedTree(2).shared("x").integers(0, 1000, 50)
        assert not np.array_equal(a, b)

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            SeedTree("42")  # type: ignore[arg-type]

    def test_bad_key_type_rejected(self):
        with pytest.raises(TypeError):
            SeedTree(0).generator(3.14)  # type: ignore[arg-type]

@given(seed=st.integers(min_value=0, max_value=2**31 - 1), epoch=st.integers(0, 100))
def test_shared_stream_is_rank_agnostic_property(seed, epoch):
    """The exchange permutation stream must be identical regardless of which
    rank derives it — the invariant Algorithm 1 depends on."""
    t = SeedTree(seed)
    perm_as_seen_by_rank0 = t.shared("dest", epoch).permutation(16)
    perm_as_seen_by_rank7 = SeedTree(seed).shared("dest", epoch).permutation(16)
    assert np.array_equal(perm_as_seen_by_rank0, perm_as_seen_by_rank7)
