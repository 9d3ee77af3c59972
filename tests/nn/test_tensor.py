"""Unit tests for the autograd Tensor: every primitive op is gradient-checked
against central finite differences."""

import numpy as np
import pytest

from repro.nn import Linear, Tensor, concatenate, maximum, minimum, no_grad, stack, where
from repro.nn.tensor import _unbroadcast

from ..helpers import check_gradients


class TestConstruction:
    def test_float_default_dtype_is_float32(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32

    def test_float64_preserved(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    def test_int_payload_preserved(self):
        assert Tensor(np.arange(3)).dtype.kind == "i"

    def test_requires_grad_flag(self):
        assert Tensor([1.0], requires_grad=True).requires_grad
        assert not Tensor([1.0]).requires_grad

    def test_from_tensor_copies_reference(self):
        base = Tensor([1.0, 2.0])
        again = Tensor(base)
        assert np.shares_memory(base.data, again.data)

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))


class TestBackwardMechanics:
    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_non_scalar_without_seed_raises(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_gradient_accumulates_across_backward_calls(self):
        t = Tensor([2.0], requires_grad=True)
        (t * 3).sum().backward()
        (t * 3).sum().backward()
        np.testing.assert_allclose(t.grad, [6.0])

    def test_zero_grad_resets(self):
        t = Tensor([2.0], requires_grad=True)
        (t * t).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_accumulates_both_paths(self):
        t = Tensor([3.0], requires_grad=True)
        y = t * 2
        z = (y + t * t).sum()  # dz/dt = 2 + 2t = 8
        z.backward()
        np.testing.assert_allclose(t.grad, [8.0])

    def test_detach_cuts_graph(self):
        t = Tensor([3.0], requires_grad=True)
        (t.detach() * t).sum().backward()
        np.testing.assert_allclose(t.grad, [3.0])  # only one factor gets grad

    def test_stop_gradient_alias(self):
        t = Tensor([1.0], requires_grad=True)
        assert not t.stop_gradient().requires_grad

    def test_no_grad_context(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2
        assert not out.requires_grad
        assert out._prev == ()

    def test_reentrant_no_grad(self):
        with no_grad():
            with no_grad():
                pass
            t = Tensor([1.0], requires_grad=True)
            assert not (t + 1).requires_grad


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert _unbroadcast(g, (2, 3)) is g

    def test_sum_prepended_axis(self):
        g = np.ones((4, 2, 3))
        np.testing.assert_allclose(_unbroadcast(g, (2, 3)), np.full((2, 3), 4.0))

    def test_sum_stretched_axis(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(_unbroadcast(g, (1, 3)), np.full((1, 3), 2.0))

    def test_combined(self):
        g = np.ones((5, 2, 1, 3))
        out = _unbroadcast(g, (2, 1, 1))
        assert out.shape == (2, 1, 1)
        np.testing.assert_allclose(out, np.full((2, 1, 1), 15.0))


class TestArithmeticGradients:
    def test_add(self):
        check_gradients(lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (3, 4)])

    def test_add_broadcast(self):
        check_gradients(lambda ts: (ts[0] + ts[1]).sum(), [(3, 4), (4,)])

    def test_sub(self):
        check_gradients(lambda ts: (ts[0] - ts[1]).sum(), [(2, 3), (1, 3)])

    def test_rsub_scalar(self):
        check_gradients(lambda ts: (5.0 - ts[0]).sum(), [(2, 3)])

    def test_mul(self):
        check_gradients(lambda ts: (ts[0] * ts[1]).sum(), [(3, 4), (3, 4)])

    def test_mul_broadcast(self):
        check_gradients(lambda ts: (ts[0] * ts[1]).sum(), [(2, 3, 4), (3, 1)])

    def test_div(self):
        check_gradients(
            lambda ts: (ts[0] / (ts[1] * ts[1] + 1.0)).sum(), [(3, 3), (3, 3)]
        )

    def test_rdiv_scalar(self):
        check_gradients(lambda ts: (1.0 / (ts[0] * ts[0] + 2.0)).sum(), [(4,)])

    def test_neg(self):
        check_gradients(lambda ts: (-ts[0]).sum(), [(3,)])

    def test_pow(self):
        check_gradients(lambda ts: ((ts[0] * ts[0] + 1.0) ** 3).sum(), [(3,)])

    def test_pow_rejects_tensor_exponent(self):
        t = Tensor([1.0])
        with pytest.raises(TypeError):
            t ** t  # noqa: B018


class TestMatmulGradients:
    def test_2d_2d(self):
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [(3, 4), (4, 5)])

    def test_batched(self):
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [(2, 3, 4), (2, 4, 5)])

    def test_batched_broadcast_rhs(self):
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [(2, 3, 4), (4, 5)])

    def test_4d_batched(self):
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [(2, 2, 3, 4), (2, 2, 4, 3)])

    def test_vector_dot(self):
        check_gradients(lambda ts: ts[0] @ ts[1], [(5,), (5,)])

    def test_matrix_vector(self):
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [(3, 4), (4,)])

    def test_vector_matrix(self):
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [(4,), (4, 3)])

    def test_batched_matrix_vector(self):
        check_gradients(lambda ts: (ts[0] @ ts[1]).sum(), [(2, 3, 4), (4,)])

    @pytest.mark.parametrize("a_shape", [(2, 3, 4), (2, 2, 3, 4)])
    def test_batched_2d_rhs_one_gemm(self, a_shape):
        # A (..., m, k) @ (k, n) product runs as one GEMM over all rows;
        # squaring feeds the backward a non-uniform gradient.
        check_gradients(lambda ts: ((ts[0] @ ts[1]) ** 2).sum(), [a_shape, (4, 5)])


class TestGemmShapes:
    """Which GEMM a (..., m, k) @ (k, n) product runs (docs/autograd.md)."""

    def setup_method(self):
        # A 64 -> 64 nn.Linear product over 32 windows of 9 patches: with
        # OpenBLAS the two GEMM shapes differ in the last bits here.
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((32, 9, 64)).astype(np.float32)
        self.b = rng.standard_normal((64, 64)).astype(np.float32).T

    def test_recorded_product_is_one_gemm_over_all_rows(self):
        out = Tensor(self.a) @ Tensor(self.b, requires_grad=True)
        expected = np.matmul(self.a.reshape(-1, 64), self.b).reshape(out.shape)
        assert np.array_equal(out.data, expected)

    def test_no_grad_product_keeps_per_matrix_gemms(self):
        # One GEMM per window against a C-contiguous (in, out) weight.
        with no_grad():
            out = Tensor(self.a) @ Tensor(self.b, requires_grad=True)
        assert np.array_equal(
            out.data, np.matmul(self.a, np.ascontiguousarray(self.b)))

    def test_product_without_grad_operands_keeps_per_matrix_gemms(self):
        out = Tensor(self.a) @ Tensor(self.b)
        assert np.array_equal(
            out.data, np.matmul(self.a, np.ascontiguousarray(self.b)))

    # Every Linear shape of the e2e benchmark model (7 channels, patch 8,
    # d_model 64): token, q/k/v/out, ff1, ff2, head, and the packed
    # path's fused q/k/v.
    @pytest.mark.parametrize("k, n", [(56, 64), (64, 64), (64, 192),
                                      (64, 256), (256, 64), (64, 56)])
    def test_no_grad_linear_rows_do_not_depend_on_batch(self, k, n):
        # Serving's bit-identity contracts rest on this: a window encodes
        # to the same bytes whatever batch it is coalesced into.
        rng = np.random.default_rng(k * n)
        layer = Linear(k, n, rng=rng)
        x = rng.standard_normal((32, 9, k)).astype(np.float32)
        with no_grad():
            whole = layer(Tensor(x)).data
            for size in (1, 3, 8):
                parts = [layer(Tensor(x[i:i + size])).data
                         for i in range(0, 32, size)]
                assert np.array_equal(np.concatenate(parts), whole), size


class TestShapeOps:
    def test_reshape(self):
        check_gradients(lambda ts: (ts[0].reshape(6) * np.arange(6.0)).sum(), [(2, 3)])

    def test_reshape_tuple_arg(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.reshape((3, 2)).shape == (3, 2)

    def test_flatten(self):
        assert Tensor(np.zeros((2, 3, 4))).flatten().shape == (24,)

    def test_transpose_default(self):
        check_gradients(
            lambda ts: (ts[0].transpose() * np.arange(6.0).reshape(3, 2)).sum(),
            [(2, 3)],
        )

    def test_transpose_axes(self):
        weights = np.arange(24.0).reshape(4, 2, 3)
        check_gradients(
            lambda ts: (ts[0].transpose(2, 0, 1) * weights).sum(), [(2, 3, 4)]
        )

    def test_swapaxes(self):
        weights = np.arange(24.0).reshape(2, 4, 3)
        check_gradients(lambda ts: (ts[0].swapaxes(1, 2) * weights).sum(), [(2, 3, 4)])

    def test_getitem_slice(self):
        check_gradients(lambda ts: (ts[0][1:, :2] ** 2).sum(), [(3, 4)])

    def test_getitem_negative_stride(self):
        weights = np.arange(12.0).reshape(3, 4)
        check_gradients(lambda ts: (ts[0][::-1] * weights).sum(), [(3, 4)])

    def test_getitem_fancy_rows(self):
        idx = np.array([0, 2, 2])
        check_gradients(lambda ts: (ts[0][idx] ** 2).sum(), [(3, 4)])

    def test_getitem_pair_arrays(self):
        rows = np.array([0, 1, 2])
        cols = np.array([1, 0, 3])
        check_gradients(lambda ts: (ts[0][rows, cols] ** 2).sum(), [(3, 4)])

    @pytest.mark.parametrize("index", [
        (slice(None), 0, slice(None)),
        (slice(None), slice(1, None), slice(None)),
        1,
        np.int64(-1),
        (Ellipsis, 2),
        (None, slice(None, None, -1)),
        (slice(0, 4, 2), None, 3),
        (1, 2, 3),
        np.array([0, 2, 2]),
        (np.array([0, 1, 1]), np.array([4, 4, 0])),
        (slice(None), [1, 1, 3]),
        np.arange(120).reshape(4, 5, 6) % 3 == 0,
    ], ids=["int_mid", "token_slice", "int", "np_int", "ellipsis", "newaxis_reversed",
            "step_newaxis_int", "scalar", "fancy_repeats", "fancy_pair", "mixed_list",
            "bool_mask"])
    def test_getitem_backward_bytes_match_add_at(self, index):
        """Basic indices scatter with an in-place add, fancy ones with
        ``np.add.at``; the gradient bytes are ``np.add.at``'s either way,
        and a ``-0.0`` upstream gradient lands as ``+0.0``."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 5, 6)).astype(np.float32), requires_grad=True)
        out = x[index]
        seed = rng.standard_normal(out.shape).astype(np.float32)
        seed.reshape(-1)[::2] = -0.0
        out.backward(seed)
        expected = np.zeros_like(x.data)
        np.add.at(expected, index, seed)
        assert x.grad.dtype == expected.dtype
        assert x.grad.tobytes() == expected.tobytes()
        assert not np.signbit(x.grad[x.grad == 0]).any()

    def test_getitem_tensor_index(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        idx = Tensor(np.array([1, 0]))
        np.testing.assert_allclose(t[idx].data, t.data[[1, 0]])

    def test_pad(self):
        weights = np.arange(20.0).reshape(4, 5)
        check_gradients(
            lambda ts: (ts[0].pad(((1, 1), (2, 0))) * weights).sum(), [(2, 3)]
        )


class TestReductions:
    def test_sum_all(self):
        check_gradients(lambda ts: ts[0].sum(), [(3, 4)])

    def test_sum_axis(self):
        check_gradients(lambda ts: (ts[0].sum(axis=1) ** 2).sum(), [(3, 4)])

    def test_sum_axis_keepdims(self):
        check_gradients(lambda ts: (ts[0].sum(axis=0, keepdims=True) ** 2).sum(), [(3, 4)])

    def test_sum_multi_axis(self):
        check_gradients(lambda ts: (ts[0].sum(axis=(0, 2)) ** 2).sum(), [(2, 3, 4)])

    def test_sum_negative_axis(self):
        check_gradients(lambda ts: (ts[0].sum(axis=-1) ** 2).sum(), [(2, 3)])

    def test_mean(self):
        check_gradients(lambda ts: ts[0].mean(), [(3, 4)])

    def test_mean_axis(self):
        check_gradients(lambda ts: (ts[0].mean(axis=0) ** 2).sum(), [(3, 4)])

    def test_var(self):
        check_gradients(lambda ts: ts[0].var(), [(3, 4)])

    def test_var_axis_keepdims(self):
        check_gradients(lambda ts: ts[0].var(axis=-1, keepdims=True).sum(), [(3, 4)])

    def test_max_all(self):
        check_gradients(lambda ts: ts[0].max(), [(3, 4)])

    def test_max_axis(self):
        check_gradients(lambda ts: (ts[0].max(axis=1) ** 2).sum(), [(3, 4)])

    def test_min_axis(self):
        check_gradients(lambda ts: (ts[0].min(axis=0) ** 2).sum(), [(3, 4)])

    def test_max_tie_splits_gradient(self):
        t = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5, 0.0])


class TestElementwiseGradients:
    def test_exp(self):
        check_gradients(lambda ts: ts[0].exp().sum(), [(3, 3)])

    def test_log(self):
        check_gradients(lambda ts: ((ts[0] ** 2) + 1.0).log().sum(), [(3, 3)])

    def test_sqrt(self):
        check_gradients(lambda ts: ((ts[0] ** 2) + 1.0).sqrt().sum(), [(3, 3)])

    def test_abs(self):
        check_gradients(lambda ts: (ts[0] + 10.0).abs().sum(), [(3, 3)])

    def test_tanh(self):
        check_gradients(lambda ts: ts[0].tanh().sum(), [(3, 3)])

    def test_sigmoid(self):
        check_gradients(lambda ts: ts[0].sigmoid().sum(), [(3, 3)])

    def test_relu(self):
        # Shift away from 0 to dodge the kink for finite differences.
        check_gradients(lambda ts: (ts[0] + 5.0).relu().sum(), [(3, 3)])

    def test_relu_zeroes_negatives(self):
        t = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0])

    def test_erf(self):
        check_gradients(lambda ts: ts[0].erf().sum(), [(3, 3)])


class TestMultiTensorOps:
    def test_concatenate_axis0(self):
        check_gradients(
            lambda ts: (concatenate([ts[0], ts[1]], axis=0) ** 2).sum(),
            [(2, 3), (4, 3)],
        )

    def test_concatenate_axis_last(self):
        check_gradients(
            lambda ts: (concatenate([ts[0], ts[1]], axis=-1) ** 2).sum(),
            [(2, 3), (2, 2)],
        )

    def test_stack(self):
        check_gradients(
            lambda ts: (stack([ts[0], ts[1]], axis=1) ** 2).sum(),
            [(2, 3), (2, 3)],
        )

    def test_where(self):
        cond = np.array([[True, False, True]])
        check_gradients(
            lambda ts: (where(cond, ts[0], ts[1]) ** 2).sum(), [(2, 3), (2, 3)]
        )

    def test_maximum(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 2.0]), requires_grad=True)
        maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])

    def test_minimum(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 2.0]), requires_grad=True)
        out = minimum(a, b)
        np.testing.assert_allclose(out.data, [1.0, 2.0])


class TestCompositeGraph:
    def test_two_layer_mlp_gradcheck(self):
        def loss(ts):
            x, w1, w2 = ts
            hidden = (x @ w1).tanh()
            return ((hidden @ w2) ** 2).mean()

        check_gradients(loss, [(4, 3), (3, 5), (5, 2)])

    def test_softmax_like_graph(self):
        def loss(ts):
            logits = ts[0] @ ts[1]
            exp = (logits - Tensor(logits.data.max(axis=-1, keepdims=True))).exp()
            probs = exp / exp.sum(axis=-1, keepdims=True)
            return (probs * probs).sum()

        check_gradients(loss, [(3, 4), (4, 5)])
