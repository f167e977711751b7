"""Analytic epoch-time model: the paper's timing anchors and shapes."""

import pytest

from repro.cluster import ABCI, DEEPCAM, IMAGENET1K
from repro.perfmodel import epoch_breakdown, get_profile

RESNET = get_profile("resnet50")
DENSENET = get_profile("densenet161")


def bd(strategy, workers, *, profile=RESNET, dataset=IMAGENET1K, q=None, **kw):
    return epoch_breakdown(
        strategy=strategy, machine=ABCI, dataset=dataset, profile=profile,
        workers=workers, batch_size=32, q=q, **kw,
    )


class TestProfiles:
    def test_known_profiles(self):
        assert RESNET.grad_bytes > 50e6
        with pytest.raises(KeyError):
            get_profile("vgg")

    def test_fwbw_scales_with_iterations_and_batch(self):
        assert RESNET.fwbw_time(100, 32) == pytest.approx(100 * RESNET.iter_time_s)
        assert RESNET.fwbw_time(100, 64) == pytest.approx(200 * RESNET.iter_time_s)

    def test_fwbw_validation(self):
        with pytest.raises(ValueError):
            RESNET.fwbw_time(-1, 32)


class TestFig9Shape:
    """Fig. 9: epoch time vs workers for GS / LS / partial-0.1 on ABCI."""

    def test_global_much_slower_than_local(self):
        for m in (128, 256, 512):
            g, l = bd("global", m), bd("local", m)
            assert g.total > 3 * l.total, m

    def test_global_5x_at_128(self):
        g, l = bd("global", 128), bd("local", 128)
        assert 3.5 < g.total / l.total < 6.5

    def test_gap_grows_with_scale(self):
        ratios = [bd("global", m).total / bd("local", m).total for m in (128, 512, 2048)]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_partial_01_matches_local_up_to_512(self):
        for m in (128, 256, 512):
            p, l = bd("partial", m, q=0.1), bd("local", m)
            assert p.total / l.total < 1.15, m

    def test_partial_01_degrades_at_extreme_scale(self):
        """§V-F: fewer iterations -> less overlap; congestion grows."""
        r512 = bd("partial", 512, q=0.1).total / bd("local", 512).total
        r2048 = bd("partial", 2048, q=0.1).total / bd("local", 2048).total
        assert r2048 > r512 + 0.3
        assert r2048 > 1.5

    def test_local_epoch_time_shrinks_with_scale(self):
        assert bd("local", 2048).total < bd("local", 512).total < bd("local", 128).total


class TestFig10Anchors:
    """Fig. 10 breakdown at 512 workers (DenseNet anchors from §V-F)."""

    def test_densenet_io_anchors(self):
        g = bd("global", 512, profile=DENSENET)
        l = bd("local", 512, profile=DENSENET)
        assert g.io == pytest.approx(19.6, rel=0.15)  # paper: 19.6 s
        assert l.io == pytest.approx(8.0, rel=0.15)  # paper: 8 s

    def test_straggler_spread(self):
        g = bd("global", 512, profile=DENSENET)
        assert g.io_slowest == pytest.approx(142.0, rel=0.15)  # paper: 142 s

    def test_ge_wu_straggler_inflation(self):
        g = bd("global", 512, profile=DENSENET)
        l = bd("local", 512, profile=DENSENET)
        assert g.ge_wu == pytest.approx(70.0, rel=0.25)  # paper: ~70 s
        assert g.ge_wu > 5 * l.ge_wu

    def test_fwbw_constant_across_strategies(self):
        g = bd("global", 512)
        l = bd("local", 512)
        p = bd("partial", 512, q=0.4)
        assert g.fw_bw == l.fw_bw == p.fw_bw

    def test_exchange_grows_with_q(self):
        ex = [bd("partial", 512, q=q).exchange for q in (0.1, 0.4, 0.7, 1.0)]
        assert ex == sorted(ex)
        assert ex[0] > 0

    def test_partial_degradation_bounded(self):
        """Paper: partial degrades epoch time by at most ~1.37x vs local."""
        l = bd("local", 512)
        worst = max(bd("partial", 512, q=q).total for q in (0.1, 0.4, 0.7, 1.0))
        assert 1.2 < worst / l.total < 1.6

    def test_io_decreases_slightly_with_q(self):
        ios = [bd("partial", 512, q=q).io for q in (0.1, 0.5, 0.9)]
        assert ios == sorted(ios, reverse=True)


class TestModelMechanics:
    def test_breakdown_sums(self):
        g = bd("global", 128)
        assert g.total == pytest.approx(g.io + g.exchange + g.fw_bw + g.ge_wu)

    def test_overlap_flag(self):
        over = bd("partial", 512, q=0.5, overlap=True)
        block = bd("partial", 512, q=0.5, overlap=False)
        assert block.exchange >= over.exchange

    def test_single_worker_no_allreduce(self):
        b = epoch_breakdown(
            strategy="local", machine=ABCI, dataset=IMAGENET1K, profile=RESNET,
            workers=1, batch_size=32,
        )
        assert b.ge_wu == 0.0

    def test_deepcam_pfs_bound(self):
        """Fig. 7(b)'s red line: GS on DeepCAM is bandwidth-bound (~70 MB
        samples), far slower than the partial exchange."""
        prof = get_profile("deepcam")
        g = epoch_breakdown(strategy="global", machine=ABCI, dataset=DEEPCAM,
                            profile=prof, workers=1024, batch_size=2)
        p = epoch_breakdown(strategy="partial", machine=ABCI, dataset=DEEPCAM,
                            profile=prof, workers=1024, batch_size=2, q=0.5)
        assert g.total > 2 * p.total

    def test_validation(self):
        with pytest.raises(ValueError):
            bd("partial", 128)  # q missing
        with pytest.raises(ValueError):
            bd("local", 128, q=0.5)  # q meaningless
        with pytest.raises(ValueError):
            bd("turbo", 128)
        with pytest.raises(ValueError):
            bd("local", 0)
        with pytest.raises(ValueError):
            epoch_breakdown(strategy="local", machine=ABCI, dataset=IMAGENET1K,
                            profile=RESNET, workers=2_000_000, batch_size=32)
