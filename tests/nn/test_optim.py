import numpy as np
import pytest

from repro.nn import (
    SGD,
    Linear,
    MultiStepLR,
    Parameter,
    Tensor,
)


def quad_param(value=5.0):
    return Parameter(np.array([value], dtype=np.float32))


def quad_grad(p):
    """Gradient of f(w) = w^2 / 2 is w."""
    p.grad = p.data.copy()


class TestSGD:
    def test_plain_descent_converges(self):
        p = quad_param()
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            quad_grad(p)
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_momentum_matches_manual(self):
        p = quad_param(1.0)
        opt = SGD([p], lr=0.1, momentum=0.9)
        w, v = 1.0, 0.0
        for _ in range(5):
            quad_grad(p)
            opt.step()
            v = 0.9 * v + w
            w = w - 0.1 * v
        assert p.data[0] == pytest.approx(w, rel=1e-5)

    def test_weight_decay_shrinks_weights(self):
        p = quad_param(1.0)
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_none_grad_skipped(self):
        p = quad_param(1.0)
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad set: no movement, no crash
        assert p.data[0] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([quad_param()], lr=0.0)
        with pytest.raises(ValueError):
            SGD([quad_param()], lr=0.1, momentum=1.5)
        with pytest.raises(ValueError):
            SGD([quad_param()], lr=0.1, nesterov=True)

    def test_nesterov_differs_from_heavy_ball(self):
        p1, p2 = quad_param(1.0), quad_param(1.0)
        o1 = SGD([p1], lr=0.1, momentum=0.9)
        o2 = SGD([p2], lr=0.1, momentum=0.9, nesterov=True)
        for _ in range(3):
            quad_grad(p1)
            quad_grad(p2)
            o1.step()
            o2.step()
        assert p1.data[0] != p2.data[0]

    def test_trains_linear_layer(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(64, 4)).astype(np.float32)
        true_w = rng.normal(size=(4,)).astype(np.float32)
        y_target = X @ true_w
        layer = Linear(4, 1, rng=np.random.default_rng(1))
        opt = SGD(layer.parameters(), lr=0.05, momentum=0.9)
        for _ in range(200):
            pred = layer(Tensor(X)).reshape(-1)
            diff = pred - Tensor(y_target)
            loss = (diff * diff).mean()
            layer.zero_grad()
            loss.backward()
            opt.step()
        assert loss.item() < 1e-3


class TestSchedulers:
    def _opt(self, lr=1.0):
        return SGD([quad_param()], lr=lr)

    def test_multistep_lr(self):
        opt = self._opt()
        sched = MultiStepLR(opt, milestones=[2, 4], gamma=0.5)
        lrs = [sched.step(e) for e in range(5)]
        assert lrs == pytest.approx([1.0, 1.0, 0.5, 0.5, 0.25])

    def test_step_applies_to_optimizer(self):
        opt = self._opt()
        sched = MultiStepLR(opt, milestones=[1, 2, 3], gamma=0.5)
        sched.step(3)
        assert opt.lr == pytest.approx(0.125)

    def test_implicit_epoch_advance(self):
        opt = self._opt()
        sched = MultiStepLR(opt, milestones=[2], gamma=0.1)
        assert sched.step() == 1.0  # epoch 0
        assert sched.step() == 1.0  # epoch 1
        assert sched.step() == pytest.approx(0.1)  # epoch 2

    def test_validation(self):
        opt = self._opt()
        with pytest.raises(ValueError):
            MultiStepLR(opt, milestones=[-1])
