"""Packed forward-only kernels: the compiled no_grad fast path.

The fused kernels (:mod:`repro.nn.functional`) removed the per-node
autograd bookkeeping but still re-derive the causal mask and re-slice
the positional table per forward.  This module consumes the arrays
:mod:`repro.compile.packing` prepares once, at load time — each
``Linear`` weight in the same C-contiguous ``(in, out)`` layout as the
``nn.Linear`` parameter — and runs the encoder forward as plain NumPy
with in-place elementwise kernels.

Two numeric modes, selected per :class:`PackedSequenceEncoder`:

* ``exact_gelu=True`` — every op replays the fused path's exact NumPy
  expression sequence (in-place variants of the same ufuncs), so the
  packed fp32 forward is **bit-identical** to the fused ``no_grad``
  forward.  ``tests/compile/test_packed.py`` locks this.
* ``exact_gelu=False`` — GELU uses the tanh approximation instead of
  the vectorised erf of :mod:`repro.nn.erf` (about 9 ufunc calls
  against about 45); everything else is unchanged.  Outputs drift by
  ~1e-3 and are covered by the compile tolerance policy
  (``docs/inference.md``).

All kernels are profiler-instrumented under ``packed.*`` op names
(``repro profile --no-grad --compiled``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import profiler as _prof
from .erf import erf as _erf
from .functional import _HALF, _ONE, _SQRT_2
from .tensor import DEFAULT_DTYPE

__all__ = [
    "PackedLinear",
    "PackedLayerNorm",
    "PackedAttention",
    "PackedEncoderLayer",
    "PackedSequenceEncoder",
    "gelu_exact",
    "gelu_tanh",
    "softmax_inplace",
]

# tanh-GELU constants (float32 so the f32 pipeline never upcasts):
# 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3)))
_TANH_C0 = np.float32(0.7978845608028654)
_TANH_C1 = np.float32(0.044715)
_F32_ONE = np.float32(1.0)
_F32_HALF = np.float32(0.5)


@dataclass
class PackedLinear:
    """Affine map ``x @ weight (* scale) + bias`` over the last axis.

    ``weight`` is C-contiguous float32 ``(in, out)``, the layout of the
    ``nn.Linear`` parameter and the operand of its per-window GEMM under
    ``no_grad`` (docs/autograd.md "GEMM shapes").  For int8-quantized
    layers the stored values are the quantized grid points cast to
    float32 once at build time ("dequant-free": the hot loop runs one
    fp32 GEMM, then applies the per-output-channel ``scale`` to the
    *output*, never re-expanding the weight).
    """

    weight: np.ndarray            # (in, out), float32, C-contiguous
    bias: np.ndarray | None       # (out,), float32
    scale: np.ndarray | None = None  # (out,) per-channel int8 scale, or None
    name: str = "packed.linear"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        profiled = _prof._ACTIVE
        t0 = _prof._now() if profiled else 0.0
        out = np.matmul(x, self.weight)
        if self.scale is not None:
            out *= self.scale
        if self.bias is not None:
            out += self.bias
        if profiled:
            _prof._profiler.record(self.name, _prof._now() - t0, out.nbytes)
        return out


@dataclass
class PackedLayerNorm:
    """In-place layer norm over the last axis.

    ``__call__`` *mutates and returns* ``data`` — callers hand it a
    freshly allocated residual sum.  The op sequence mirrors
    ``_layer_norm_fused`` term by term (sum/divide, centre, square-sum,
    sqrt, scale, shift), with each step an in-place variant of the same
    ufunc, so the result is bit-identical.
    """

    weight: np.ndarray
    bias: np.ndarray
    eps: float = 1e-5
    name: str = "packed.layer_norm"

    def __call__(self, data: np.ndarray) -> np.ndarray:
        profiled = _prof._ACTIVE
        t0 = _prof._now() if profiled else 0.0
        dim = data.shape[-1]
        d_arr = np.asarray(float(dim), dtype=DEFAULT_DTYPE)
        eps_arr = np.asarray(self.eps, dtype=DEFAULT_DTYPE)
        mu = data.sum(axis=-1, keepdims=True)
        mu /= d_arr
        centered = np.subtract(data, mu, out=data)
        sq = centered * centered
        var = sq.sum(axis=-1, keepdims=True)
        var /= d_arr
        var += eps_arr
        sd = np.sqrt(var, out=var)
        np.divide(centered, sd, out=centered)
        np.multiply(centered, self.weight, out=centered)
        np.add(centered, self.bias, out=centered)
        if profiled:
            _prof._profiler.record(self.name, _prof._now() - t0, centered.nbytes)
        return centered


def softmax_inplace(scores: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis, in place on ``scores``.

    Same shift/exp/sum/divide sequence as ``_softmax_fused``.
    """
    m = scores.max(axis=-1, keepdims=True)
    np.subtract(scores, m, out=scores)
    np.exp(scores, out=scores)
    s = scores.sum(axis=-1, keepdims=True)
    np.divide(scores, s, out=scores)
    return scores


def gelu_exact(u: np.ndarray) -> np.ndarray:
    """Exact erf GELU; bit-identical to ``_gelu_fused`` (``u`` untouched)."""
    t = u / _SQRT_2
    _erf(t, out=t)
    t += _ONE
    np.multiply(u, t, out=t)
    np.multiply(t, _HALF, out=t)
    return t


def gelu_tanh(u: np.ndarray) -> np.ndarray:
    """tanh-approximation GELU (fast mode; ``u`` untouched).

    One ``np.tanh`` and eight arithmetic passes, against the ~45 ufunc
    calls of :func:`gelu_exact`: the packed int8 forward keeps it
    (measured gap in ``docs/inference.md``).  Max drift vs exact GELU is ~1e-3 on
    layer-norm-scale activations (tolerance policy in the same file).
    """
    inner = u * u
    np.multiply(inner, u, out=inner)
    np.multiply(inner, _TANH_C1, out=inner)
    np.add(inner, u, out=inner)
    np.multiply(inner, _TANH_C0, out=inner)
    np.tanh(inner, out=inner)
    np.add(inner, _F32_ONE, out=inner)
    np.multiply(inner, u, out=inner)
    np.multiply(inner, _F32_HALF, out=inner)
    return inner


@dataclass
class PackedAttention:
    """Multi-head self-attention over packed projections.

    Two input-projection layouts:

    * separate ``q``/``k``/``v`` GEMMs — the exact mode; each product is
      bit-identical to the corresponding ``nn.Linear``;
    * one fused ``qkv`` GEMM over a column-concatenated ``(in, 3*d)``
      weight — fewer BLAS calls, but BLAS blocking differs between an
      ``in×d`` and an ``in×3d`` product at small token counts, so the
      blocks can drift by ~1 ulp.  Fast mode only (tolerance-covered).

    The causal mask (decoder ablation) is pre-built for the encoder's
    fixed token count.
    """

    out: PackedLinear
    num_heads: int
    head_dim: int
    scale: np.ndarray                 # 0-d float32, matches _sdpa_fused
    qkv: PackedLinear | None = None   # fused layout (fast mode)
    q: PackedLinear | None = None     # separate layout (exact mode)
    k: PackedLinear | None = None
    v: PackedLinear | None = None
    mask: np.ndarray | None = None    # (1, 1, T, T) additive, or None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        n, t, d = x.shape
        h, hd = self.num_heads, self.head_dim
        if self.qkv is not None:
            qkv = self.qkv(x)  # (n, t, 3d)
            q = qkv[..., :d].reshape(n, t, h, hd).transpose(0, 2, 1, 3)
            k = qkv[..., d:2 * d].reshape(n, t, h, hd).transpose(0, 2, 1, 3)
            v = qkv[..., 2 * d:].reshape(n, t, h, hd).transpose(0, 2, 1, 3)
        else:
            q = self.q(x).reshape(n, t, h, hd).transpose(0, 2, 1, 3)
            k = self.k(x).reshape(n, t, h, hd).transpose(0, 2, 1, 3)
            v = self.v(x).reshape(n, t, h, hd).transpose(0, 2, 1, 3)
        profiled = _prof._ACTIVE
        t0 = _prof._now() if profiled else 0.0
        kt = np.transpose(k, (0, 1, 3, 2))
        scores = np.matmul(q, kt)
        scores /= self.scale
        if self.mask is not None:
            scores += self.mask
        probs = softmax_inplace(scores)
        context = np.matmul(probs, v)
        if profiled:
            _prof._profiler.record("packed.sdpa", _prof._now() - t0,
                                   context.nbytes)
        merged = context.transpose(0, 2, 1, 3).reshape(n, t, d)
        return self.out(merged)


@dataclass
class PackedEncoderLayer:
    """One post-norm Transformer block over packed weights."""

    attention: PackedAttention
    norm1: PackedLayerNorm
    ff1: PackedLinear
    ff2: PackedLinear
    norm2: PackedLayerNorm

    def __call__(self, x: np.ndarray, exact_gelu: bool) -> np.ndarray:
        attended = self.attention(x)
        attended += x                       # residual into a fresh buffer
        x = self.norm1(attended)
        hidden = self.ff1(x)
        profiled = _prof._ACTIVE
        t0 = _prof._now() if profiled else 0.0
        activated = gelu_exact(hidden) if exact_gelu else gelu_tanh(hidden)
        if profiled:
            _prof._profiler.record("packed.gelu", _prof._now() - t0,
                                   activated.nbytes)
        hidden = self.ff2(activated)
        hidden += x
        return self.norm2(hidden)


@dataclass
class PackedSequenceEncoder:
    """The full TimeDRL encoder forward over pre-packed weights.

    Consumes *already patched* input ``(N, T_p, token_dim)`` (the
    :func:`repro.core.patching` pipeline stays upstream, it is plain
    NumPy either way) and returns ``z (N, 1+T_p, d_model)``.  The [CLS]
    row, positional slice and causal mask are baked at pack time for the
    encoder's fixed token count — nothing is re-materialized per call.
    """

    cls_token: np.ndarray             # (token_dim,)
    token: PackedLinear
    pos: np.ndarray                   # (1+T_p, d_model), contiguous slice
    layers: list[PackedEncoderLayer] = field(default_factory=list)
    exact_gelu: bool = True
    token_dim: int = 0

    def __call__(self, x_patched: np.ndarray) -> np.ndarray:
        if x_patched.ndim != 3:
            raise ValueError(
                f"expected (N, T_p, token_dim), got shape {x_patched.shape}")
        if x_patched.shape[2] != self.token_dim:
            raise ValueError(
                f"token width {x_patched.shape[2]} != packed token_dim "
                f"= {self.token_dim}")
        n = x_patched.shape[0]
        cls_rows = np.broadcast_to(
            self.cls_token.reshape(1, 1, -1), (n, 1, self.token_dim))
        with_cls = np.concatenate([cls_rows, x_patched], axis=1)
        h = self.token(with_cls)
        h += self.pos
        for layer in self.layers:
            h = layer(h, self.exact_gelu)
        return h
