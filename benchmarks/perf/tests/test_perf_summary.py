"""The tail-percentile rule, failure accounting and the host-speed scaling."""

from harness.summary import count_ops, digest, tail_percentile


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(sorted(float(i) for i in range(1, 1001))) == (99.0, 990.0)
    assert tail_percentile(sorted(float(i) for i in range(1, 101))) == (90.0, 90.0)
    assert tail_percentile(sorted(float(i) for i in range(1, 41))) == (75.0, 30.0)
    # 96 steps: ten beyond p75 (24), not beyond p90 (9).
    assert tail_percentile(sorted(float(i) for i in range(1, 97)))[0] == 75.0
    # 10,000: the 99.9th has exactly ten beyond it.
    assert tail_percentile(sorted(float(i) for i in range(1, 10001))) == (99.9, 9990.0)


def test_tail_percentile_falls_back_to_the_median_when_too_few():
    assert tail_percentile([1.0, 2.0, 3.0]) == (50.0, 2.0)
    assert tail_percentile(sorted(float(i) for i in range(39))) == (50.0, 19.0)
    assert tail_percentile([]) == (50.0, 0.0)


def _pass(steps=(64, 64), rounds=(100, 100)):
    return {
        "ops": {
            "steps_planned": steps[0], "steps_done": steps[1],
            "rounds_planned": rounds[0], "rounds_committed": rounds[1],
        }
    }


def test_count_ops_counts_unfinished_steps_and_uncommitted_rounds():
    assert count_ops([_pass(), _pass()], checks_ok=True) == (328, 0)
    assert count_ops([_pass(steps=(64, 0)), _pass(rounds=(100, 93))], checks_ok=True) == (328, 71)


def test_a_failed_check_fails_every_operation():
    assert count_ops([_pass(), _pass()], checks_ok=False) == (328, 328)


def test_digest_is_order_and_content_sensitive():
    assert digest(["a", "b"]) == digest(["a", "b"])
    assert digest(["a", "b"]) != digest(["b", "a"])
    assert digest(["ab"]) != digest(["a", "b"])


def test_end_to_end_timings_are_reported_at_the_reference_host_speed():
    from types import SimpleNamespace

    from harness import hostspeed, measure

    nominal = hostspeed.NOMINAL_S
    samples = [(1.0, nominal), (2.0, 2 * nominal), (3.0, 2 * nominal), (9.0, 5 * nominal)]
    assert hostspeed.speed_between(samples, 0.5, 1.5) == 1.0
    assert hostspeed.speed_between(samples, 1.5, 3.5) == 0.5
    assert hostspeed.speed_between(samples, 0.0, 3.5) == 3 / 5
    assert hostspeed.speed_between(samples, 4.0, 5.0) == 1.0  # unobserved: as measured
    with hostspeed.Sampler(period_s=0.01) as sampler:
        import time

        time.sleep(0.1)
    assert len(sampler.samples) >= 2 and all(cost > 0 for _, cost in sampler.samples)

    def untraced(epochs, setup, speed, rss):
        return {"ok": True, "steady_epoch_s": epochs, "setup_s": setup,
                "epoch_speed": [speed] * (1 + len(epochs)), "setup_speed": speed,
                "host_speed": speed, "peak_rss_mb": rss}

    # The second pass ran on a host at half speed: twice the wall-clock, the
    # same epochs once scaled.
    run = SimpleNamespace(untraced=[
        untraced([2.0, 2.0, 2.0], 3.0, 1.0, 250.0),
        untraced([4.0, 4.0, 4.0], 6.0, 0.5, 260.0),
    ])
    e2e = measure.end_to_end(run)
    assert e2e["samples_per_s"]["value"] == 2048 / 2.0
    assert e2e["samples_per_s"]["raw"] == 2048 / 3.0
    assert e2e["samples_per_s"]["n"] == 6
    assert e2e["setup_s"]["value"] == 3.0 and e2e["setup_s"]["raw"] == 4.5
    assert e2e["peak_rss_mb"]["value"] == 260.0
