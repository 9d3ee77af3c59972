"""Tests for the TimeDRL model's pretext-task mechanics (Eq. 6–19)."""

import numpy as np
import pytest

from repro import nn
from repro.checkpoint.state import named_rngs
from repro.core import TimeDRL, TimeDRLConfig
from repro.core.pooling import pool_instance
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn import no_grad


def _config(**overrides):
    params = dict(seq_len=32, input_channels=3, patch_len=8, stride=8,
                  d_model=16, num_heads=2, num_layers=1, dropout=0.2, seed=0)
    params.update(overrides)
    return TimeDRLConfig(**params)


def _batch(n=8, t=32, c=3, seed=1):
    return np.random.default_rng(seed).standard_normal((n, t, c)).astype(np.float32)


class TestPretrainingLosses:
    def test_returns_all_components(self):
        model = TimeDRL(_config())
        losses = model.pretraining_losses(_batch())
        assert set(losses) == {"total", "predictive", "contrastive"}
        for value in losses.values():
            assert value.data.shape == ()

    def test_total_combines_with_lambda(self):
        model = TimeDRL(_config(lambda_weight=3.0))
        losses = model.pretraining_losses(_batch())
        expected = float(losses["predictive"].data) + 3.0 * float(losses["contrastive"].data)
        np.testing.assert_allclose(float(losses["total"].data), expected, rtol=1e-5)

    def test_contrastive_loss_in_cosine_range(self):
        model = TimeDRL(_config())
        losses = model.pretraining_losses(_batch())
        assert -1.0 <= float(losses["contrastive"].data) <= 1.0

    def test_disable_predictive(self):
        model = TimeDRL(_config(enable_predictive=False))
        losses = model.pretraining_losses(_batch())
        assert float(losses["predictive"].data) == 0.0
        assert float(losses["contrastive"].data) != 0.0

    def test_disable_contrastive(self):
        model = TimeDRL(_config(enable_contrastive=False))
        losses = model.pretraining_losses(_batch())
        assert float(losses["contrastive"].data) == 0.0
        assert float(losses["predictive"].data) > 0.0

    def test_backward_reaches_encoder_and_heads(self):
        model = TimeDRL(_config())
        model.train()
        losses = model.pretraining_losses(_batch())
        losses["total"].backward()
        grads = {name: p.grad is not None for name, p in model.named_parameters()}
        assert grads["encoder.cls_token"]
        assert any(v for n, v in grads.items() if n.startswith("predictive_head"))
        assert any(v for n, v in grads.items() if n.startswith("contrastive_head"))

    def test_predictive_loss_does_not_touch_contrastive_head(self):
        model = TimeDRL(_config(enable_contrastive=False))
        model.train()
        model.pretraining_losses(_batch())["total"].backward()
        contrastive_grads = [p.grad for n, p in model.named_parameters()
                             if n.startswith("contrastive_head")]
        assert all(g is None for g in contrastive_grads)

    def test_channel_independent_mode(self):
        model = TimeDRL(_config(channel_independence=True))
        losses = model.pretraining_losses(_batch())
        assert np.isfinite(float(losses["total"].data))


class TestStopGradientMechanics:
    def test_cls_gradient_only_through_contrastive_head_path(self):
        """With stop-gradient, the raw z_i branch is a constant: gradients
        to the encoder flow only via the predictor c_θ (Eq. 16–17)."""
        model = TimeDRL(_config(enable_predictive=False))
        model.train()
        losses = model.pretraining_losses(_batch())
        losses["total"].backward()
        assert model.encoder.cls_token.grad is not None

    def test_without_stop_gradient_still_trains(self):
        model = TimeDRL(_config(use_stop_gradient=False, enable_predictive=False))
        model.train()
        losses = model.pretraining_losses(_batch())
        losses["total"].backward()
        assert model.encoder.cls_token.grad is not None

    def test_variants_produce_different_gradients(self):
        """The no-SG ablation must actually change the computation."""
        grads = {}
        for flag in (True, False):
            model = TimeDRL(_config(use_stop_gradient=flag, enable_predictive=False,
                                    dropout=0.0, seed=0))
            model.train()
            # dropout=0 makes the two views identical -> deterministic diff
            losses = model.pretraining_losses(_batch())
            losses["total"].backward()
            grads[flag] = model.encoder.token_encoding.weight.grad.copy()
        assert not np.allclose(grads[True], grads[False])


class TestAugmentationHook:
    def test_augmentation_changes_losses(self):
        plain = TimeDRL(_config(dropout=0.0, seed=0))
        augmented = TimeDRL(_config(dropout=0.0, seed=0, augmentation="rotation"))
        x = _batch()
        loss_plain = float(plain.pretraining_losses(x)["total"].data)
        loss_augmented = float(augmented.pretraining_losses(x)["total"].data)
        assert loss_plain != loss_augmented

    def test_default_has_no_augmentation(self):
        assert _config().augmentation is None

    def test_unknown_augmentation_raises(self):
        model = TimeDRL(_config(augmentation="masking"))
        model.config.augmentation = "bogus"
        with pytest.raises(KeyError):
            model.pretraining_losses(_batch())


class TestEmbeddingInterfaces:
    def test_timestamp_embeddings_shape(self):
        model = TimeDRL(_config())
        z_t = model.encode(_batch(n=4))[0]
        assert z_t.shape == (4, 4, 16)

    def test_instance_embeddings_shape(self):
        model = TimeDRL(_config())
        z_i = model.encode(_batch(n=4))[1]
        assert z_i.shape == (4, 16)

    def test_all_pooling_instance_width(self):
        model = TimeDRL(_config(pooling="all"))
        z_i = model.encode(_batch(n=4))[1]
        assert z_i.shape == (4, 4 * 16)

    def test_embed_returns_both(self):
        model = TimeDRL(_config())
        timestamp, instance = model.encode(_batch(n=4))
        assert instance.shape == (4, 16)
        assert timestamp.shape == (4, 4, 16)

    def test_embeddings_are_deterministic(self):
        model = TimeDRL(_config())
        x = _batch(n=4)
        np.testing.assert_array_equal(model.encode(x)[1],
                                      model.encode(x)[1])

    def test_embed_restores_training_mode(self):
        model = TimeDRL(_config())
        model.train()
        model.encode(_batch(n=2))
        assert model.training

    def test_channel_independent_embedding_batch_axis(self):
        model = TimeDRL(_config(channel_independence=True))
        z_i = model.encode(_batch(n=4, c=3))[1]
        assert z_i.shape == (12, 16)  # one series per channel


class TestCollapseResistance:
    def test_embeddings_do_not_collapse_during_short_training(self):
        """With stop-gradient, instance embeddings across samples must keep
        non-trivial variance after contrastive-only training (SimSiam
        collapse would drive it to ~0)."""
        from repro import nn

        model = TimeDRL(_config(enable_predictive=False, lambda_weight=1.0))
        model.train()
        optimizer = nn.AdamW(model.parameters(), lr=1e-3)
        x = _batch(n=16)
        for __ in range(20):
            optimizer.zero_grad()
            model.pretraining_losses(x)["total"].backward()
            optimizer.step()
        embeddings = model.encode(x)[1]
        per_dim_std = embeddings.std(axis=0)
        assert per_dim_std.mean() > 1e-3


# The fused ≡ unfused geometries of tests/core/test_encoder_equivalence.py.
TINY = dict(seq_len=32, input_channels=2, patch_len=8, stride=8,
            d_model=16, num_heads=2, num_layers=1, seed=0)
BENCH = dict(seq_len=64, input_channels=7, patch_len=8, stride=8,
             d_model=64, num_heads=4, num_layers=2, seed=0)


def _two_pass_losses(model, x):
    """Reference step: one encoder pass per dropout view, each view drawing
    its masks as it runs (default config: no augmentation, both tasks,
    stop-gradient, [CLS] pooling)."""
    x_patched = model.encoder.prepare_input(x)
    target = Tensor(x_patched)
    z_i1, z_t1 = model.encoder.split(model.encoder(x_patched))
    z_i2, z_t2 = model.encoder.split(model.encoder(x_patched))
    predictive = (nn.mse_loss(model.predictive_head(z_t1), target) * 0.5
                  + nn.mse_loss(model.predictive_head(z_t2), target) * 0.5)
    inst1 = pool_instance(z_i1, z_t1, model.config.pooling)
    inst2 = pool_instance(z_i2, z_t2, model.config.pooling)
    contrastive = (
        nn.negative_cosine_similarity(model.contrastive_head(inst1), inst2) * 0.5
        + nn.negative_cosine_similarity(model.contrastive_head(inst2), inst1) * 0.5)
    total = predictive + contrastive * model.config.lambda_weight
    return {"total": total, "predictive": predictive, "contrastive": contrastive}


def _pair(geometry, backbone):
    config = TimeDRLConfig(**geometry, backbone=backbone, dropout=0.2)
    return TimeDRL(config), TimeDRL(config)


def _windows(geometry, n, seed=7):
    return np.random.default_rng(seed).standard_normal(
        (n, geometry["seq_len"], geometry["input_channels"])).astype(np.float32)


def _losses(out):
    return {key: value.data.tobytes() for key, value in out.items()}


_CASES = [(TINY, 4), (BENCH, 32)]
_CASE_IDS = ["tiny", "bench"]


class TestOnePassStreamIdentity:
    """Both views run as one stacked encoder pass; its dropout stream must
    be the one two passes draw."""

    @pytest.mark.parametrize("backbone", ["transformer", "tcn", "lstm"])
    @pytest.mark.parametrize("geometry,batch", _CASES, ids=_CASE_IDS)
    def test_generator_state_after_each_step_equals_two_passes(
            self, geometry, batch, backbone):
        stacked, reference = _pair(geometry, backbone)
        assert stacked._stack_views
        # A full batch, then a short one (an epoch's last batch).
        for n in (batch, batch - 1):
            x = _windows(geometry, n)
            stacked.pretraining_losses(x)["total"].backward()
            _two_pass_losses(reference, x)["total"].backward()
            live = {name: rng.bit_generator.state for name, rng in named_rngs(stacked)}
            ref = {name: rng.bit_generator.state for name, rng in named_rngs(reference)}
            assert live == ref

    @pytest.mark.parametrize("backbone", ["transformer", "tcn", "lstm"])
    @pytest.mark.parametrize("geometry,batch", _CASES, ids=_CASE_IDS)
    def test_first_step_losses_bit_identical_with_per_window_gemms(
            self, geometry, batch, backbone):
        # no_grad products keep the per-window GEMMs, which are
        # row-invariant, so stacking the views may not move a single bit
        # of the forward.
        stacked, reference = _pair(geometry, backbone)
        x = _windows(geometry, batch)
        with no_grad():
            assert (_losses(stacked.pretraining_losses(x))
                    == _losses(_two_pass_losses(reference, x)))

    @pytest.mark.parametrize("geometry,batch", _CASES, ids=_CASE_IDS)
    def test_resnet_keeps_one_pass_per_view(self, geometry, batch):
        # BatchNorm statistics are per batch: each view needs its own pass.
        stacked, reference = _pair(geometry, "resnet")
        assert not stacked._stack_views
        x = _windows(geometry, batch)
        assert (_losses(stacked.pretraining_losses(x))
                == _losses(_two_pass_losses(reference, x)))
        assert ({name: rng.bit_generator.state for name, rng in named_rngs(stacked)}
                == {name: rng.bit_generator.state for name, rng in named_rngs(reference)})

    def test_views_differ(self):
        model = TimeDRL(_config())
        x_patched = model.encoder.prepare_input(_batch(n=4))
        sites = F.dropout_sites(model.encoder, x_patched)
        with F.two_view_draws(sites, 4):
            z = model.encoder(np.concatenate([x_patched, x_patched])).data
        assert not np.array_equal(z[:4], z[4:])

    def test_unplanned_draw_raises(self):
        model = TimeDRL(_config())
        x_patched = model.encoder.prepare_input(_batch(n=4))
        sites = F.dropout_sites(model.encoder, x_patched)
        with pytest.raises(RuntimeError, match="does not match"):
            with F.two_view_draws(sites, 4):
                model.encoder(np.concatenate([x_patched] * 3))

    def test_untaken_draws_raise(self):
        model = TimeDRL(_config())
        x_patched = model.encoder.prepare_input(_batch(n=4))
        sites = F.dropout_sites(model.encoder, x_patched)
        model.eval()
        with pytest.raises(RuntimeError, match="not taken"):
            with F.two_view_draws(sites, 4):
                model.encoder(np.concatenate([x_patched] * 2))
