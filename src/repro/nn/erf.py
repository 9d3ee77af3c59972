"""Vectorised, cache-blocked error function: the one ``erf`` of the library.

Every exact-GELU site calls :func:`erf` — the fused kernel
(``functional._gelu_fused``), the reference composition (``Tensor.erf``)
and the packed fp32 forward (``inference.gelu_exact``) — so the
bit-identity contracts between them (fused ≡ unfused, packed fp32 ≡ fused
``no_grad``, served ≡ direct encode) hold by construction.

Two branches, both evaluated on every element and joined exactly:

* ``|x| < 1``: ``erf(x) = x + x·R(x²)``.  This is the odd polynomial
  ``x·P(x²)`` with ``P = 1 + R``; adding the exact ``x`` last keeps the
  rounding error of ``R`` (``|R| ≤ 0.16``) well below one ulp, where the
  plain ``x·P(x²)`` form reaches 2–3 ulp near ``|x| = 1``.
* ``1 ≤ |x|``: ``erf(x) = 1 − G(1/|x|) / exp(x²)``, with ``|x|`` clamped
  at the point where ``erf`` rounds to exactly 1 in the working dtype
  (3.92 for float32, 6.0 for float64), so ``±inf`` gives ``±1``.

The join is ``p·m + q·(1 − m)`` with ``m = 1 − floor(min(|x|, 1))``,
an exact 0/1 mask: one product is the branch value, the other an exact
zero.  ``np.where`` costs more than the whole arithmetic on random masks,
and ``q + m·(p − q)`` rounds ``p`` away near 0.  The sign bit of ``x`` is
copied onto the result last, so ``-0.0`` stays ``-0.0`` and NaN stays NaN.

The work runs over equal blocks of at most :data:`BLOCK` elements, with
scratch buffers allocated per call (no shared state: concurrent callers are
safe).  Every step is an elementwise ufunc, so each output element
depends on its input element only, never on the array length or block
offset — the property the serving batcher's split invariance needs.

Accuracy (``tests/nn/test_erf.py``): float32 within 1 ulp of the
float64 erf rounded to float32, checked for every float32 with
``|x| < 4`` (beyond that both are ±1); float64 within 1e-13 absolute
(measured 3e-15).
Both dtypes run the same code with their own coefficient tables;
float64 exists for the finite-difference gradient checks.  Any other
input dtype is computed and returned as float64.  The tables come from
``scripts/fit_erf.py``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["BLOCK", "erf"]

BLOCK = 65536


class _Table(NamedTuple):
    small: tuple        # R(s), s = x², ascending powers
    large: tuple        # G(t), t = 1/|x|, ascending powers
    clamp: np.ndarray   # |x| at which erf rounds to 1.0
    one: np.ndarray
    sign: np.ndarray    # sign-bit mask in the same-width integer dtype
    bits: type          # that integer dtype


def _table(dtype, bits, small, large, clamp) -> _Table:
    # 0-d arrays, not NumPy scalars: a ufunc takes them without a
    # per-call scalar conversion, which matters on small arrays.
    def const(value, kind=dtype):
        return np.asarray(value, dtype=kind)

    return _Table(tuple(const(c) for c in small), tuple(const(c) for c in large),
                  const(clamp), const(1.0), const(np.iinfo(bits).min, bits),
                  bits)


_FLOAT32 = _table(
    np.float32, np.int32,
    (0.12837917, -0.3761263, 0.11283618, -0.026855126, 0.005190734,
     -0.00080307614, 7.920368e-05),
    (-0.001661439, 0.5778761, -0.033945765, -0.3099643, 0.30865002,
     -0.13874869, 0.025377672),
    3.92)

_FLOAT64 = _table(
    np.float64, np.int64,
    (0.12837916709551223, -0.37612638903175577, 0.11283791670615534,
     -0.026866170590889322, 0.005223977182675984, -0.0008548305946116095,
     0.00012054706540662262, -1.4913650058473756e-05,
     1.6313346599257528e-06, -1.5202449260232425e-07,
     9.457112957713918e-09),
    (-4.1535146282190016e-05, 0.5652652205469347, -0.01282518613186312,
     -0.18920195856614042, -0.45241773135061064, 1.9618258566649405,
     -3.6254719636735193, 4.421452654857854, -3.8880764313732605,
     2.5072957097185906, -1.165221206284651, 0.37103229782846453,
     -0.0726326947133202, 0.006600543778664541),
    6.0)


def _horner(coeffs: tuple, s: np.ndarray, out: np.ndarray) -> None:
    np.multiply(s, coeffs[-1], out)
    np.add(out, coeffs[-2], out)
    for c in coeffs[-3::-1]:
        np.multiply(out, s, out)
        np.add(out, c, out)


def _erf_block(x: np.ndarray, out: np.ndarray, table: _Table,
               scratch: np.ndarray) -> None:
    # Positional ``out`` and 0-d constants keep the per-call overhead of
    # these ~40 ufunc calls low; it dominates on small arrays.
    ax, z, p, t, q = scratch
    one = table.one
    np.abs(x, ax)
    # |x| < 1: p = z + z·R(z²), z = min(|x|, 1)
    np.minimum(ax, one, out=z)
    np.multiply(z, z, t)
    _horner(table.small, t, p)
    np.multiply(p, z, p)
    np.add(p, z, p)
    # |x| >= 1: q = 1 − G(1/a) / exp(a²), a = clip(|x|, 1, clamp)
    ax.clip(one, table.clamp, out=ax)
    np.reciprocal(ax, t)
    _horner(table.large, t, q)
    np.multiply(ax, ax, ax)
    np.exp(ax, ax)
    np.divide(q, ax, q)
    np.subtract(one, q, q)
    # join: floor(z) is exactly 1 − m
    np.floor(z, z)
    np.multiply(q, z, q)
    np.subtract(one, z, z)
    np.multiply(p, z, p)
    np.add(p, q, p)
    # restore the sign bit of x (np.copysign is not vectorised: ~3.5x slower)
    sign = t.view(table.bits)
    np.bitwise_and(x.view(table.bits), table.sign, sign)
    np.bitwise_or(p.view(table.bits), sign, out.view(table.bits))


def erf(x, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise error function of ``x``.

    float32 in → float32 out; anything else is computed as float64.
    ``out`` (C-contiguous, same shape and result dtype) may be ``x``.
    """
    x = np.asarray(x)
    if x.dtype == np.float32:
        table = _FLOAT32
    else:
        x = x.astype(np.float64, copy=False)
        table = _FLOAT64
    if out is None:
        out = np.empty(x.shape, dtype=x.dtype)
    elif (out.shape != x.shape or out.dtype != x.dtype
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous {x.dtype} array of "
                         f"shape {x.shape}")
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    size = flat.size
    # Equal blocks of at most BLOCK elements, so no short tail block
    # pays a whole block's per-call overhead.
    blocks = max(1, -(-size // BLOCK))
    step = max(1, -(-size // blocks))
    scratch = np.empty((5, min(step, size)), dtype=x.dtype)
    for start in range(0, size, step):
        stop = min(start + step, size)
        _erf_block(flat[start:stop], flat_out[start:stop], table,
                   scratch[:, :stop - start])
    return out
