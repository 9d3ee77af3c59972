"""Tests for optimizers, schedulers and gradient clipping."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Parameter, Tensor


def _quadratic_param(value=5.0):
    return Parameter(np.array([value], dtype=np.float32))


def _minimise(opt_factory, steps=200, start=5.0):
    """Minimise f(w) = w^2 and return the final |w|."""
    w = _quadratic_param(start)
    opt = opt_factory([w])
    for __ in range(steps):
        opt.zero_grad()
        (w * w).sum().backward()
        opt.step()
    return abs(float(w.data[0]))


class TestSGD:
    def test_minimises_quadratic(self):
        assert _minimise(lambda ps: nn.SGD(ps, lr=0.1)) < 1e-3

    def test_momentum_accelerates(self):
        plain = _minimise(lambda ps: nn.SGD(ps, lr=0.01), steps=50)
        momentum = _minimise(lambda ps: nn.SGD(ps, lr=0.01, momentum=0.9), steps=50)
        assert momentum < plain

    def test_weight_decay_shrinks_weights(self):
        w = _quadratic_param(1.0)
        opt = nn.SGD([w], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        # No loss gradient: decay alone should shrink the weight.
        w.grad = np.zeros_like(w.data)
        opt.step()
        assert abs(float(w.data[0])) < 1.0

    def test_skips_parameters_without_grad(self):
        w = _quadratic_param(2.0)
        opt = nn.SGD([w], lr=0.1)
        opt.step()  # no backward happened
        assert float(w.data[0]) == 2.0

    def test_rejects_bad_lr_and_empty_params(self):
        with pytest.raises(ValueError):
            nn.SGD([_quadratic_param()], lr=0.0)
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)


class TestAdamFamily:
    def test_adam_minimises_quadratic(self):
        assert _minimise(lambda ps: nn.Adam(ps, lr=0.1)) < 1e-2

    def test_adamw_minimises_quadratic(self):
        assert _minimise(lambda ps: nn.AdamW(ps, lr=0.1, weight_decay=1e-3)) < 1e-2

    def test_adam_bias_correction_first_step(self):
        """First Adam step should be ~lr in the gradient direction."""
        w = _quadratic_param(1.0)
        opt = nn.Adam([w], lr=0.1)
        opt.zero_grad()
        (w * w).sum().backward()
        opt.step()
        np.testing.assert_allclose(float(w.data[0]), 1.0 - 0.1, atol=1e-3)

    def test_adamw_decay_is_decoupled(self):
        """AdamW decay applies even when gradient is zero."""
        w = _quadratic_param(1.0)
        opt = nn.AdamW([w], lr=0.1, weight_decay=0.5)
        w.grad = np.zeros_like(w.data)
        opt.step()
        np.testing.assert_allclose(float(w.data[0]), 1.0 - 0.1 * 0.5, atol=1e-6)

    def test_adam_state_shapes_match_params(self):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
        opt = nn.Adam(layer.parameters(), lr=1e-3)
        assert [m.shape for m in opt._m] == [p.shape for p in layer.parameters()]


class TestSchedulers:
    def test_cosine_decays_to_min(self):
        w = _quadratic_param()
        opt = nn.SGD([w], lr=1.0)
        sched = nn.CosineScheduler(opt, total_steps=10, min_lr=0.1)
        for __ in range(10):
            sched.step()
        np.testing.assert_allclose(opt.lr, 0.1, atol=1e-6)

    def test_cosine_is_monotone_decreasing(self):
        opt = nn.SGD([_quadratic_param()], lr=1.0)
        sched = nn.CosineScheduler(opt, total_steps=20)
        lrs = [sched.step() for __ in range(20)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_cosine_clamps_after_total_steps(self):
        opt = nn.SGD([_quadratic_param()], lr=1.0)
        sched = nn.CosineScheduler(opt, total_steps=5, min_lr=0.2)
        for __ in range(10):
            sched.step()
        np.testing.assert_allclose(opt.lr, 0.2, atol=1e-6)

    def test_step_scheduler(self):
        opt = nn.SGD([_quadratic_param()], lr=1.0)
        sched = nn.StepScheduler(opt, step_size=2, gamma=0.5)
        sched.step()
        assert opt.lr == 1.0
        sched.step()
        assert opt.lr == 0.5

    def test_invalid_arguments(self):
        opt = nn.SGD([_quadratic_param()], lr=1.0)
        with pytest.raises(ValueError):
            nn.CosineScheduler(opt, total_steps=0)
        with pytest.raises(ValueError):
            nn.StepScheduler(opt, step_size=0)


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        w = _quadratic_param()
        w.grad = np.array([30.0], dtype=np.float32)
        v = _quadratic_param()
        v.grad = np.array([40.0], dtype=np.float32)
        total = nn.clip_grad_norm([w, v], max_norm=5.0)
        np.testing.assert_allclose(total, 50.0, rtol=1e-5)
        new_norm = np.sqrt(w.grad[0] ** 2 + v.grad[0] ** 2)
        np.testing.assert_allclose(new_norm, 5.0, rtol=1e-5)

    def test_leaves_small_gradients_alone(self):
        w = _quadratic_param()
        w.grad = np.array([0.3], dtype=np.float32)
        nn.clip_grad_norm([w], max_norm=5.0)
        np.testing.assert_allclose(w.grad, [0.3])

    def test_handles_missing_grads(self):
        assert nn.clip_grad_norm([_quadratic_param()], 1.0) == 0.0


class TestEndToEndTraining:
    def test_linear_regression_converges(self):
        rng = np.random.default_rng(0)
        true_w = np.array([[2.0], [-3.0]], dtype=np.float32)
        x = rng.standard_normal((64, 2)).astype(np.float32)
        y = x @ true_w
        layer = nn.Linear(2, 1, rng=rng)
        opt = nn.AdamW(layer.parameters(), lr=0.05, weight_decay=0.0)
        for __ in range(300):
            opt.zero_grad()
            loss = nn.mse_loss(layer(Tensor(x)), Tensor(y))
            loss.backward()
            opt.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=0.05)


class TestWarmupCosineScheduler:
    def test_warmup_ramps_linearly(self):
        from repro.nn import WarmupCosineScheduler

        opt = nn.SGD([_quadratic_param()], lr=1.0)
        sched = WarmupCosineScheduler(opt, warmup_steps=4, total_steps=20)
        lrs = [sched.step() for __ in range(4)]
        np.testing.assert_allclose(lrs, [0.25, 0.5, 0.75, 1.0])

    def test_decays_to_min_after_warmup(self):
        from repro.nn import WarmupCosineScheduler

        opt = nn.SGD([_quadratic_param()], lr=1.0)
        sched = WarmupCosineScheduler(opt, warmup_steps=2, total_steps=10, min_lr=0.1)
        for __ in range(10):
            sched.step()
        np.testing.assert_allclose(opt.lr, 0.1, atol=1e-6)

    def test_peak_is_base_lr(self):
        from repro.nn import WarmupCosineScheduler

        opt = nn.SGD([_quadratic_param()], lr=0.5)
        sched = WarmupCosineScheduler(opt, warmup_steps=3, total_steps=30)
        lrs = [sched.step() for __ in range(30)]
        assert max(lrs) <= 0.5 + 1e-9

    def test_invalid_arguments(self):
        from repro.nn import WarmupCosineScheduler

        opt = nn.SGD([_quadratic_param()], lr=1.0)
        with pytest.raises(ValueError):
            WarmupCosineScheduler(opt, warmup_steps=10, total_steps=10)
        with pytest.raises(ValueError):
            WarmupCosineScheduler(opt, warmup_steps=-1, total_steps=10)
