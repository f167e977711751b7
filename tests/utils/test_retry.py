"""Backoff schedule and Retrier policy."""

import pytest

from repro.utils.retry import Backoff, Retrier, default_retrier


class TestBackoff:
    def test_exponential_growth_capped(self):
        b = Backoff(0.01, factor=2.0, cap_s=0.05, jitter=0.0)
        assert b.delay(0) == pytest.approx(0.01)
        assert b.delay(1) == pytest.approx(0.02)
        assert b.delay(2) == pytest.approx(0.04)
        assert b.delay(3) == pytest.approx(0.05)  # capped
        assert b.delay(10) == pytest.approx(0.05)

    def test_jitter_deterministic_and_bounded(self):
        b = Backoff(0.01, factor=2.0, cap_s=1.0, jitter=0.5)
        d1 = b.delay(2, key="path-a")
        d2 = b.delay(2, key="path-a")
        assert d1 == d2  # pure function of (key, attempt): replayable
        raw = 0.04
        assert raw * 0.5 <= d1 <= raw
        assert b.delay(2, key="path-b") != d1

    @pytest.mark.parametrize(
        "kwargs", [dict(base_s=-1), dict(factor=0.5), dict(jitter=1.0), dict(jitter=-0.1)]
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Backoff(**{"base_s": 0.01, **kwargs})


def no_sleep(_s):
    pass


class TestRetrier:
    def make(self, attempts=4):
        return Retrier(attempts=attempts, sleep=no_sleep)

    def test_succeeds_after_transient_failures(self):
        r = self.make()
        calls = []

        def fn(attempt):
            calls.append(attempt)
            if attempt < 2:
                raise OSError("transient")
            return "ok"

        assert r.call(fn, key="k") == "ok"
        assert calls == [0, 1, 2]
        assert r.stats() == {"retries": 2, "giveups": 0}

    def test_gives_up_and_reraises(self):
        r = self.make(attempts=3)

        def fn(attempt):
            raise OSError(f"always ({attempt})")

        with pytest.raises(OSError, match=r"always \(2\)"):
            r.call(fn, key="k")
        assert r.stats() == {"retries": 2, "giveups": 1}

    def test_non_retryable_propagates_immediately(self):
        r = self.make()
        calls = []

        def fn(attempt):
            calls.append(attempt)
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            r.call(fn, key="k")
        assert calls == [0]
        assert r.stats() == {"retries": 0, "giveups": 0}

    def test_value_error_retried_by_default(self):
        # Torn reads surface as ValueError from np.load: in budget by default.
        r = self.make()
        outcomes = iter([ValueError("torn"), None])

        def fn(attempt):
            exc = next(outcomes)
            if exc:
                raise exc
            return attempt

        assert r.call(fn) == 1

    def test_attempts_validation(self):
        with pytest.raises(ValueError):
            Retrier(attempts=0)

    def test_default_retrier_is_shared(self):
        # Process-wide singleton: counters aggregate across all readers.
        assert default_retrier() is default_retrier()
