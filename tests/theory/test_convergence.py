"""Eq. 6 convergence-bound terms."""

import math

import pytest

from repro.theory import convergence_bound


class TestConvergenceBound:
    def test_terms(self):
        b = convergence_bound(n=10_000, m=16, b=32, epochs=100, epsilon=0.5)
        assert b.statistical_term == pytest.approx(math.sqrt(1 / (100 * 10_000)))
        assert b.log_term == pytest.approx(math.log(10_000) / 10_000)
        assert b.shuffle_term == pytest.approx(10_000 * 0.25 / (32 * 16))

    def test_shuffle_term_dominates_paper_regime(self):
        """§IV-B: at ImageNet scale the epsilon^2 term dwarfs the others."""
        b = convergence_bound(n=1_200_000, m=1024, b=32, epochs=90, q=0.1)
        assert b.dominant_term == "shuffle"
        assert b.shuffle_term > 100 * (b.statistical_term + b.log_term)

    def test_zero_epsilon_removes_shuffle_term(self):
        b = convergence_bound(n=10_000, m=16, b=32, epochs=100, epsilon=0.0)
        assert b.shuffle_term == 0.0
        assert b.dominant_term in ("statistical", "log")

    def test_q_path_computes_epsilon(self):
        b = convergence_bound(n=100_000, m=128, b=32, epochs=50, q=0.1)
        assert b.epsilon == pytest.approx(1.0, abs=1e-6)

    def test_exactly_one_of_q_epsilon(self):
        with pytest.raises(ValueError):
            convergence_bound(n=100, m=4, b=8, epochs=10)
        with pytest.raises(ValueError):
            convergence_bound(n=100, m=4, b=8, epochs=10, q=0.1, epsilon=0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_bound(n=100, m=4, b=8, epochs=0, epsilon=0.5)
        with pytest.raises(ValueError):
            convergence_bound(n=100, m=4, b=0, epochs=10, epsilon=0.5)
        with pytest.raises(ValueError):
            convergence_bound(n=100, m=4, b=8, epochs=10, epsilon=1.5)

    def test_more_epochs_shrinks_statistical_term(self):
        b1 = convergence_bound(n=1000, m=4, b=8, epochs=10, epsilon=0.0)
        b2 = convergence_bound(n=1000, m=4, b=8, epochs=1000, epsilon=0.0)
        assert b2.statistical_term < b1.statistical_term
