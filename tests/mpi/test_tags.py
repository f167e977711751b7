"""The central tag registry: disjointness, width, and mirror invariants."""

import pytest

from repro.mpi.communicator import Communicator
from repro.mpi.tags import (
    EXCHANGE_CTRL,
    EXCHANGE_DATA,
    JOIN,
    PARITY_BIT,
    RECOVERY,
    REGISTRY,
    TELEMETRY,
    TagRange,
    lookup,
)


class TestUniqueness:
    def test_all_intervals_pairwise_disjoint(self):
        spans = [
            (lo, hi, r.name) for r in REGISTRY for (lo, hi) in r.intervals()
        ]
        spans.sort()
        for (lo1, hi1, n1), (lo2, hi2, n2) in zip(spans, spans[1:]):
            assert hi1 <= lo2, f"tag ranges {n1} and {n2} overlap"

    def test_all_intervals_fit_the_wire(self):
        for r in REGISTRY:
            for lo, hi in r.intervals():
                assert 0 <= lo < hi <= Communicator.MAX_TAG, r.name

    def test_names_unique(self):
        names = [r.name for r in REGISTRY]
        assert len(names) == len(set(names))

    def test_parity_bit_above_every_base_interval(self):
        for r in REGISTRY:
            assert r.base + r.width <= PARITY_BIT, r.name


class TestTagArithmetic:
    def test_offset_and_parity(self):
        assert EXCHANGE_DATA.tag(3) == EXCHANGE_DATA.base + 3
        assert (
            EXCHANGE_DATA.tag(3, parity=PARITY_BIT)
            == EXCHANGE_DATA.base + 3 + PARITY_BIT
        )

    def test_overflow_raises_without_wrap(self):
        with pytest.raises(ValueError, match="exceeds width"):
            EXCHANGE_CTRL.tag(1)

    def test_negative_offset_raises(self):
        with pytest.raises(ValueError, match="negative"):
            JOIN.tag(-1)

    def test_wrap_folds_modulo_width(self):
        assert RECOVERY.tag(RECOVERY.width + 7) == RECOVERY.tag(7)

    def test_parity_on_parityless_range_raises(self):
        with pytest.raises(ValueError, match="parity"):
            TELEMETRY.tag(0, parity=PARITY_BIT)

    def test_bad_parity_value_raises(self):
        with pytest.raises(ValueError, match="parity"):
            EXCHANGE_DATA.tag(0, parity=1)

    def test_contains_both_parities(self):
        assert EXCHANGE_CTRL.contains(EXCHANGE_CTRL.base)
        assert EXCHANGE_CTRL.contains(EXCHANGE_CTRL.base + PARITY_BIT)
        assert not EXCHANGE_CTRL.contains(EXCHANGE_CTRL.base + 1)

    def test_lookup_and_owner(self):
        assert lookup(JOIN.base + 5) is JOIN
        assert lookup(TELEMETRY.base).owner == "repro.obs"
        assert lookup(0) is None


class TestMirroredConstants:
    """Modules that cannot import the registry (or keep compat aliases)
    must stay in sync with it."""

    def test_telemetry_tag_mirror(self):
        from repro.obs.telemetry.aggregate import TELEMETRY_TAG

        assert TELEMETRY_TAG == TELEMETRY.base

    def test_scheduler_compat_aliases(self):
        from repro.shuffle import scheduler

        assert scheduler.EXCHANGE_CTRL_TAG == EXCHANGE_CTRL.base


def test_registry_is_immutable():
    with pytest.raises(Exception):
        JOIN.base = 0  # frozen dataclass

    assert isinstance(REGISTRY, tuple)
    assert all(isinstance(r, TagRange) for r in REGISTRY)
