"""§IV-B shuffling-error analysis (Eqs. 7-11)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.theory import (
    dominance_threshold,
    error_table,
    is_overcounted,
    log_permutations,
    log_sigma,
    shuffling_error,
    shuffling_error_monte_carlo,
    sigma_exact_tiny,
)


class TestLogSigma:
    def test_matches_exact_tiny(self):
        for (n, m, q) in [(8, 2, 0.5), (8, 2, 0.25), (12, 3, 0.5), (12, 4, 1 / 3)]:
            exact = sigma_exact_tiny(n, m, q)
            assert log_sigma(n, m, q) == pytest.approx(math.log(exact), rel=1e-9)

    def test_log_permutations(self):
        assert log_permutations(5) == pytest.approx(math.log(120))

    def test_validation(self):
        with pytest.raises(ValueError):
            log_sigma(4, 8, 0.5)  # N < M
        with pytest.raises(ValueError):
            log_sigma(8, 2, 1.5)
        with pytest.raises(ValueError):
            log_sigma(8, 0, 0.5)

    def test_paper_formula_overcounts_small_m(self):
        """Documented anomaly: Eq. 9's product form exceeds N! for small M,
        e.g. sigma(8,2,0.5)=82944 > 8!=40320 in exact arithmetic."""
        assert sigma_exact_tiny(8, 2, 0.5) > math.factorial(8)
        assert is_overcounted(8, 2, 0.5)


class TestShufflingError:
    def test_in_unit_interval(self):
        for m in (4, 16, 256):
            eps = shuffling_error(10_000, m, 0.1)
            assert 0.0 <= eps <= 1.0

    def test_paper_regime_is_one(self):
        """ImageNet N=1.2e6: epsilon ~= 1 for the mid-range worker counts of
        the paper's example (the regime where the formula is not degenerate)."""
        for m in (100, 1024, 8192):
            assert shuffling_error(1_200_000, m, 0.1) == pytest.approx(1.0, abs=1e-9)

    def test_overcount_clamped(self):
        assert shuffling_error(8, 2, 0.5) == 0.0


class TestDominance:
    def test_threshold_formula(self):
        assert dominance_threshold(1_200_000, 1024, 32) == pytest.approx(
            math.sqrt(32 * 1024 / 1_200_000)
        )

    def test_paper_conclusion(self):
        """For ImageNet-scale training with total minibatch < 100K the error
        dominates the convergence bound (§IV-B's conclusion)."""
        n = 1_200_000
        for m, b in [(128, 32), (1024, 32), (4096, 16)]:
            assert m * b < 100_000
            assert shuffling_error(n, m, 0.1) > dominance_threshold(n, m, b)

    def test_huge_batch_escapes_domination(self):
        # b*M/N > 1 makes the threshold > 1 >= epsilon.
        assert not shuffling_error(10_000, 5_000, 0.1) > dominance_threshold(10_000, 5_000, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            dominance_threshold(100, 4, 0)


class TestErrorTable:
    def test_rows(self):
        rows = error_table(1_200_000, [4, 100, 1024], q=0.1, b=32)
        assert len(rows) == 3
        assert rows[1].epsilon == pytest.approx(1.0, abs=1e-9)
        assert rows[1].dominates

    def test_row_fields(self):
        (row,) = error_table(10_000, [10], q=0.3, b=8)
        assert row.n == 10_000 and row.m == 10 and row.q == 0.3 and row.b == 8
        assert row.threshold == dominance_threshold(10_000, 10, 8)


class TestMonteCarlo:
    def test_monotone_in_q(self):
        """Ground truth: more exchange -> distribution closer to uniform."""
        eps0 = shuffling_error_monte_carlo(6, 2, 0.0, trials=15000, seed=1)
        eps1 = shuffling_error_monte_carlo(6, 2, 1.0, trials=15000, seed=1)
        eps_half = shuffling_error_monte_carlo(6, 2, 1 / 3, trials=15000, seed=1)
        assert eps0 > eps_half > eps1

    def test_q_zero_error_is_large(self):
        """Pure local shuffling reaches only (n/m)!^m of n! arrangements."""
        eps = shuffling_error_monte_carlo(6, 2, 0.0, trials=10000, seed=2)
        reachable = math.factorial(3) ** 2
        lower_bound = 1 - reachable / math.factorial(6)
        assert eps >= lower_bound - 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            shuffling_error_monte_carlo(7, 2, 0.5)  # M does not divide N
        with pytest.raises(ValueError):
            shuffling_error_monte_carlo(12, 2, 0.5)  # 12! too large
        with pytest.raises(ValueError):
            shuffling_error_monte_carlo(6, 2, 0.5, trials=0)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(10, 100_000),
    m=st.integers(2, 64),
    q=st.floats(0.0, 1.0),
)
def test_error_bounds_property(n, m, q):
    if n < m:
        return
    eps = shuffling_error(n, m, q)
    assert 0.0 <= eps <= 1.0
