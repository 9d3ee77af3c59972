"""Functional (stateless) neural-network operations.

These compose the primitive autograd ops in :mod:`repro.nn.tensor` into the
higher-level operations the library needs: stable softmax, GELU, dropout,
layer normalisation, scaled-dot-product attention, and similarity measures.

Fused kernels
-------------
The hot-path ops (``softmax``, ``log_softmax``, ``gelu``, ``layer_norm``,
``scaled_dot_product_attention``) each have two implementations:

* a *reference* composition of primitive ``Tensor`` ops — many small graph
  nodes, one backward closure per node;
* a *fused* kernel — a single graph node whose backward closure replays the
  reference chain's exact NumPy op sequence (same expressions, same
  accumulation order), so the fused path is **bit-identical** to the
  reference on both forward and backward while skipping all per-node graph
  bookkeeping, closure dispatch, and defensive gradient copies.

``use_fused(False)`` switches every dispatch back to the reference path;
``tests/nn/test_fused_ops.py`` and ``tests/core/test_encoder_equivalence.py``
lock the two paths together.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import profiler as _prof
from .erf import erf as _erf
from .tensor import DEFAULT_DTYPE, Tensor, _make_node, _unbroadcast, as_tensor

__all__ = [
    "softmax",
    "log_softmax",
    "relu",
    "gelu",
    "sigmoid",
    "tanh",
    "dropout",
    "layer_norm",
    "scaled_dot_product_attention",
    "one_hot",
    "cosine_similarity",
    "normalize",
    "use_fused",
    "fused_enabled",
]

_FUSED = True

# Scalar constants enter the graph as float32 0-d arrays — exactly what
# ``as_tensor(python_float)`` produces — so the fused kernels (which use
# these arrays directly) and the reference compositions (which wrap them in
# Tensors) perform bit-identical NumPy calls.
_SQRT_2 = np.asarray(float(np.sqrt(2.0)), dtype=DEFAULT_DTYPE)
_ONE = np.asarray(1.0, dtype=DEFAULT_DTYPE)
_HALF = np.asarray(0.5, dtype=DEFAULT_DTYPE)
# d/dx erf(x) = (2/sqrt(pi)) * exp(-x^2); kept a weak Python scalar to match
# Tensor.erf's backward closure.
_ERF_COEFF = float(2.0 / np.sqrt(np.pi))


@contextlib.contextmanager
def use_fused(enabled: bool = True):
    """Context manager that toggles the fused-kernel dispatch.

    ``with use_fused(False):`` forces every call in the block through the
    reference compositions — used by the equivalence test battery.
    """
    global _FUSED
    previous = _FUSED
    _FUSED = bool(enabled)
    try:
        yield
    finally:
        _FUSED = previous


def fused_enabled() -> bool:
    """Return whether fused kernels are currently dispatched."""
    return _FUSED


# ----------------------------------------------------------------------
# Softmax
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    The max-shift term is detached: it is constant w.r.t. the gradient of
    softmax, so excluding it from the graph is exact and cheaper.
    """
    if _FUSED:
        return _softmax_fused(x, axis)
    return _softmax_reference(x, axis)


def _softmax_reference(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def _softmax_fused(x: Tensor, axis: int = -1) -> Tensor:
    profiled = _prof._ACTIVE
    t0 = _prof._now() if profiled else 0.0
    data = x.data
    shifted = data - data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=axis, keepdims=True)
    out_data = e / s
    if profiled:
        _prof._profiler.record("fused.softmax", _prof._now() - t0, out_data.nbytes)
    out = _make_node(out_data, (x,))
    if out.requires_grad:

        def _backward(grad):
            if _prof._ACTIVE:
                t1 = _prof._now()
            # Mirrors: div backward (e and sum sides), sum broadcast, exp.
            ge = grad / s
            gs = _unbroadcast((-grad) * e / (s**2), s.shape)
            ge += gs
            x._accumulate(ge * e, owned=True)
            if _prof._ACTIVE:
                _prof._profiler.record("fused.softmax.backward", _prof._now() - t1)

        out._backward = _backward
    return out


# ----------------------------------------------------------------------
# Log-softmax
# ----------------------------------------------------------------------
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    if _FUSED:
        return _log_softmax_fused(x, axis)
    return _log_softmax_reference(x, axis)


def _log_softmax_reference(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def _log_softmax_fused(x: Tensor, axis: int = -1) -> Tensor:
    profiled = _prof._ACTIVE
    t0 = _prof._now() if profiled else 0.0
    data = x.data
    shifted = data - data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=axis, keepdims=True)
    out_data = shifted - np.log(s)
    if profiled:
        _prof._profiler.record("fused.log_softmax", _prof._now() - t0, out_data.nbytes)
    out = _make_node(out_data, (x,))
    if out.requires_grad:

        def _backward(grad):
            if _prof._ACTIVE:
                t1 = _prof._now()
            # Mirrors: sub, log, sum broadcast, exp, sub pass-through.
            gl = _unbroadcast(-grad, s.shape)
            ge = np.broadcast_to(gl / s, e.shape)
            x._accumulate(grad + ge * e, owned=True)
            if _prof._ACTIVE:
                _prof._profiler.record("fused.log_softmax.backward", _prof._now() - t1)

        out._backward = _backward
    return out


# ----------------------------------------------------------------------
# Elementwise wrappers
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    return x.relu()


def gelu(x: Tensor) -> Tensor:
    """Gaussian Error Linear Unit, exact (erf) formulation."""
    if _FUSED:
        return _gelu_fused(x)
    return _gelu_reference(x)


def _gelu_reference(x: Tensor) -> Tensor:
    return x * (x / _SQRT_2).erf().__add__(1.0) * 0.5


def _gelu_fused(x: Tensor) -> Tensor:
    profiled = _prof._ACTIVE
    t0 = _prof._now() if profiled else 0.0
    data = x.data
    u = data / _SQRT_2
    a = _erf(u)
    a += _ONE
    out_data = data * a
    out_data *= _HALF
    if profiled:
        _prof._profiler.record("fused.gelu", _prof._now() - t0, out_data.nbytes)
    out = _make_node(out_data, (x,))
    if out.requires_grad:

        def _backward(grad):
            if _prof._ACTIVE:
                t1 = _prof._now()
            # Mirrors the chain x * (erf(x/√2) + 1) * 0.5: the outer muls
            # give x its first contribution, the erf/div chain the second.
            gw = grad * _HALF
            x._accumulate(gw * a, owned=True)
            gu = ((gw * data) * _ERF_COEFF) * np.exp(-(u**2))
            x._accumulate(gu / _SQRT_2, owned=True)
            if _prof._ACTIVE:
                _prof._profiler.record("fused.gelu.backward", _prof._now() - t1)

        out._backward = _backward
    return out


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero elements with probability ``p`` and rescale.

    Dropout is the *only* source of stochasticity TimeDRL uses to create the
    two contrastive views (paper Section IV-C), so the mask RNG is threaded
    explicitly for reproducibility.
    """
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return x * Tensor(mask)


# ----------------------------------------------------------------------
# Layer normalisation
# ----------------------------------------------------------------------
def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis with affine parameters."""
    if _FUSED:
        return _layer_norm_fused(x, weight, bias, eps)
    return _layer_norm_reference(x, weight, bias, eps)


def _layer_norm_reference(x: Tensor, weight: Tensor, bias: Tensor, eps: float) -> Tensor:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normed = (x - mean) / (var + eps).sqrt()
    return normed * weight + bias


def _layer_norm_fused(x: Tensor, weight: Tensor, bias: Tensor, eps: float) -> Tensor:
    profiled = _prof._ACTIVE
    t0 = _prof._now() if profiled else 0.0
    data = x.data
    dim = data.shape[-1]
    d_arr = np.asarray(float(dim), dtype=DEFAULT_DTYPE)
    eps_arr = np.asarray(eps, dtype=DEFAULT_DTYPE)
    mu = data.sum(axis=-1, keepdims=True) / d_arr
    c = data - mu
    var = (c * c).sum(axis=-1, keepdims=True) / d_arr
    sd = np.sqrt(var + eps_arr)
    normed = c / sd
    w_data, b_data = weight.data, bias.data
    out_data = normed * w_data + b_data
    if profiled:
        _prof._profiler.record("fused.layer_norm", _prof._now() - t0, out_data.nbytes)
    out = _make_node(out_data, (x, weight, bias))
    if out.requires_grad:
        mu_shape = mu.shape

        def _backward(grad):
            if _prof._ACTIVE:
                t1 = _prof._now()
            bias._accumulate_unbroadcast(grad)
            weight._accumulate(
                _unbroadcast(grad * normed, w_data.shape), owned=True
            )
            gn = grad * w_data
            # x receives four contributions, replayed in the reference
            # graph's topological order: centring pass-through, first mean,
            # variance chain, second mean.
            g_cm = gn / sd
            g_s1 = _unbroadcast(-g_cm, mu_shape) / d_arr
            g_sd = _unbroadcast((-gn) * c / (sd**2), mu_shape)
            g_s3 = (g_sd * 0.5 / sd) / d_arr
            uc = np.broadcast_to(g_s3, data.shape) * c
            gc = uc + uc
            g_s2 = _unbroadcast(-gc, mu_shape) / d_arr
            x._accumulate(g_cm, owned=True)
            x._accumulate(np.broadcast_to(g_s1, data.shape))
            x._accumulate(gc, owned=True)
            x._accumulate(np.broadcast_to(g_s2, data.shape))
            if _prof._ACTIVE:
                _prof._profiler.record("fused.layer_norm.backward", _prof._now() - t1)

        out._backward = _backward
    return out


# ----------------------------------------------------------------------
# Scaled-dot-product attention
# ----------------------------------------------------------------------
def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    mask: Tensor | np.ndarray | None = None,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """Attention core ``softmax(q @ k^T / scale + mask) @ v`` on 4-D inputs.

    ``q``/``k``/``v`` have shape ``(batch, heads, seq, head_dim)``.  The
    optional additive ``mask`` broadcasts against the score matrix; dropout
    is applied to the attention probabilities (TimeDRL's augmentation).
    """
    if _FUSED and q.ndim == 4:
        return _sdpa_fused(q, k, v, scale, mask, dropout_p, rng, training)
    return _sdpa_reference(q, k, v, scale, mask, dropout_p, rng, training)


def _sdpa_reference(q, k, v, scale, mask, dropout_p, rng, training) -> Tensor:
    scores = (q @ k.transpose(0, 1, 3, 2)) / scale
    if mask is not None:
        scores = scores + as_tensor(mask)
    probs = _softmax_reference(scores, axis=-1)
    if rng is not None:
        probs = dropout(probs, dropout_p, rng, training=training)
    return probs @ v


def _sdpa_fused(q, k, v, scale, mask, dropout_p, rng, training) -> Tensor:
    profiled = _prof._ACTIVE
    t0 = _prof._now() if profiled else 0.0
    qd, kd, vd = q.data, k.data, v.data
    scale_arr = np.asarray(scale, dtype=DEFAULT_DTYPE)
    kt = np.transpose(kd, (0, 1, 3, 2))
    scores = np.matmul(qd, kt) / scale_arr
    if mask is not None:
        mask_data = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
        scores = scores + mask_data
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=-1, keepdims=True)
    probs = e / s
    apply_dropout = training and dropout_p > 0.0 and rng is not None
    if apply_dropout:
        if not 0.0 <= dropout_p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {dropout_p}")
        keep = 1.0 - dropout_p
        dmask = (rng.random(probs.shape) < keep).astype(probs.dtype) / keep
        dropped = probs * dmask
    else:
        dmask = None
        dropped = probs
    out_data = np.matmul(dropped, vd)
    if profiled:
        _prof._profiler.record("fused.sdpa", _prof._now() - t0, out_data.nbytes)
    out = _make_node(out_data, (q, k, v))
    if out.requires_grad:

        def _backward(grad):
            if _prof._ACTIVE:
                t1 = _prof._now()
            # Mirrors: output matmul (v side first), dropout mul, softmax
            # div/sum/exp, scale div, score matmul (q then k^T).
            g_pd = np.matmul(grad, np.swapaxes(vd, -1, -2))
            v._accumulate(np.matmul(np.swapaxes(dropped, -1, -2), grad), owned=True)
            g_probs = g_pd * dmask if dmask is not None else g_pd
            ge = g_probs / s
            gs = _unbroadcast((-g_probs) * e / (s**2), s.shape)
            ge += gs
            g_scores = ge * e
            g_s0 = g_scores / scale_arr
            q._accumulate(np.matmul(g_s0, np.swapaxes(kt, -1, -2)), owned=True)
            g_kt = np.matmul(np.swapaxes(qd, -1, -2), g_s0)
            k._accumulate(np.transpose(g_kt, (0, 1, 3, 2)), owned=True)
            if _prof._ACTIVE:
                _prof._profiler.record("fused.sdpa.backward", _prof._now() - t1)

        out._backward = _backward
    return out


# ----------------------------------------------------------------------
# Encodings and similarity
# ----------------------------------------------------------------------
def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` to a one-hot float matrix ``(N, num_classes)``."""
    labels = np.asarray(labels).astype(np.int64).reshape(-1)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for one_hot")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """L2-normalise ``x`` along ``axis``."""
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norm


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Cosine similarity along ``axis`` (keeps the reduced axis collapsed)."""
    a, b = as_tensor(a), as_tensor(b)
    return (normalize(a, axis=axis, eps=eps) * normalize(b, axis=axis, eps=eps)).sum(axis=axis)
