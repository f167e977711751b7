"""The public quantile-digest API: ``quantiles()`` and ``quantile_key``."""

import math

import pytest

from repro.obs.metrics import Reservoir, quantile_key


class TestQuantileKey:
    @pytest.mark.parametrize(
        "q,key",
        [(0.5, "p50"), (0.95, "p95"), (0.99, "p99"), (0.999, "p99.9"),
         (0.0, "p0"), (1.0, "p100"), (0.25, "p25")],
    )
    def test_conventional_spelling(self, q, key):
        assert quantile_key(q) == key


class TestReservoirQuantiles:
    def test_exact_below_capacity(self):
        r = Reservoir("lat", capacity=64)
        for v in [1.0, 2.0, 3.0, 4.0, 5.0]:
            r.add(v)
        out = r.quantiles([0.5, 0.95, 0.99])
        assert out == {"p50": 3.0, "p95": 5.0, "p99": 5.0}

    def test_one_sort_matches_per_point_reads(self):
        r = Reservoir("lat", capacity=32)
        for v in range(100):
            r.add(float(v))
        batched = r.quantiles([0.0, 0.5, 1.0])
        assert batched["p0"] == r.quantile(0.0)
        assert batched["p50"] == r.quantile(0.5)
        assert batched["p100"] == r.quantile(1.0)

    def test_empty_reservoir_yields_nan_per_key(self):
        out = Reservoir("lat").quantiles([0.5, 0.99])
        assert set(out) == {"p50", "p99"}
        assert all(math.isnan(v) for v in out.values())

    def test_out_of_range_quantile_raises(self):
        r = Reservoir("lat")
        r.add(1.0)
        with pytest.raises(ValueError):
            r.quantiles([1.5])
        with pytest.raises(ValueError):
            r.quantiles([-0.1])

