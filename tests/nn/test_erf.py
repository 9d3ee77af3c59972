"""Accuracy and invariance contract of ``repro.nn.erf``.

``scipy.special.erf`` (float64 cephes, rounded to the output dtype) is
the reference here; the library itself never imports scipy.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from repro.nn.erf import BLOCK, erf


def _ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Number of float32 steps between ``a`` and ``b`` (sign-aware)."""
    def ordered(v):
        bits = v.astype(np.float32).view(np.int32).astype(np.int64)
        return np.where(bits < 0, -(bits & 0x7FFFFFFF), bits)

    return np.abs(ordered(a) - ordered(b))


def _sweep() -> np.ndarray:
    dense = np.linspace(-6.0, 6.0, 1_200_001, dtype=np.float32)
    # Log-spaced magnitudes from the smallest subnormal up to 6.
    tiny = np.float32(np.finfo(np.float32).smallest_subnormal)
    mags = np.geomspace(float(tiny), 6.0, 200_000).astype(np.float32)
    return np.concatenate([dense, mags, -mags])


class TestFloat32Accuracy:
    def test_within_one_ulp_of_scipy(self):
        x = _sweep()
        got = erf(x)
        assert got.dtype == np.float32
        distance = _ulp_distance(got, scipy_erf(x))
        assert distance.max() <= 1, x[distance.argmax()]

    def test_every_float32_around_the_seam(self):
        # Rounding error peaks on either side of |x| = 1 (the dense sweep
        # samples 1 float in ~170 there): check every float in [0.5, 2).
        lo = int(np.float32(0.5).view(np.int32))
        hi = int(np.float32(2.0).view(np.int32))
        for start in range(lo, hi, 1 << 22):
            bits = np.arange(start, min(start + (1 << 22), hi), dtype=np.int32)
            x = bits.view(np.float32)
            assert _ulp_distance(erf(x), scipy_erf(x)).max() <= 1

    def test_branch_seam_at_one(self):
        one = np.float32(1.0)
        below = np.nextafter(one, np.float32(0.0))
        around = np.array([np.nextafter(below, np.float32(0.0)), below, one,
                           np.nextafter(one, np.float32(2.0))], np.float32)
        x = np.concatenate([around, -around])
        assert _ulp_distance(erf(x), scipy_erf(x)).max() <= 1
        # monotone across the seam
        assert np.all(np.diff(erf(around)) >= 0)

    def test_clamp_at_392_is_exactly_one(self):
        x = np.array([3.92, 3.93, 4.0, 10.0, 1e30,
                      np.finfo(np.float32).max], np.float32)
        np.testing.assert_array_equal(erf(x), np.ones_like(x))
        np.testing.assert_array_equal(erf(-x), -np.ones_like(x))
        just_below = np.nextafter(np.float32(3.92), np.float32(0.0))
        assert _ulp_distance(erf(np.array([just_below])),
                             scipy_erf(np.array([just_below]))).max() <= 1

    def test_signed_zero_infinities_and_nan(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], np.float32)
        got = erf(x)
        assert got[0] == 0.0 and not np.signbit(got[0])
        assert got[1] == 0.0 and np.signbit(got[1])
        assert got[2] == 1.0 and got[3] == -1.0
        assert np.isnan(got[4])

    def test_odd_symmetry(self):
        x = _sweep()
        np.testing.assert_array_equal(erf(-x), -erf(x))


class TestFloat64Accuracy:
    def test_max_abs_error(self):
        x = np.concatenate([np.linspace(-8.0, 8.0, 800_001),
                            np.geomspace(1e-300, 8.0, 50_000)])
        got = erf(x)
        assert got.dtype == np.float64
        assert np.abs(got - scipy_erf(x)).max() <= 1e-13

    def test_small_arguments_keep_relative_accuracy(self):
        x = np.geomspace(1e-300, 1e-3, 10_000)
        np.testing.assert_allclose(erf(x), scipy_erf(x), rtol=1e-14)

    def test_specials(self):
        got = erf(np.array([-0.0, np.inf, -np.inf, np.nan]))
        assert got[0] == 0.0 and np.signbit(got[0])
        assert got[1] == 1.0 and got[2] == -1.0 and np.isnan(got[3])

    def test_other_dtypes_compute_in_float64(self):
        for x in (np.arange(-3, 4), np.linspace(-2, 2, 9).astype(np.float16)):
            got = erf(x)
            assert got.dtype == np.float64
            np.testing.assert_allclose(got, scipy_erf(x.astype(np.float64)),
                                       rtol=0, atol=1e-13)


class TestShapes:
    def test_zero_dim(self):
        got = erf(np.float32(0.5))
        assert got.shape == () and got.dtype == np.float32
        assert got == erf(np.array([0.5], np.float32))[0]
        assert erf(0.5).dtype == np.float64

    def test_empty(self):
        for shape in [(0,), (3, 0, 2)]:
            got = erf(np.empty(shape, np.float32))
            assert got.shape == shape and got.dtype == np.float32

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((64, 48)).astype(np.float32) * 2
        for view in (base.T, base[::3, 1::2], base[:, ::-1]):
            got = erf(view)
            assert got.shape == view.shape
            np.testing.assert_array_equal(got, erf(np.ascontiguousarray(view)))

    def test_out_in_place(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 30)).astype(np.float32)
        expected = erf(x)
        inplace = x.copy()
        assert erf(inplace, out=inplace) is inplace
        np.testing.assert_array_equal(inplace, expected)
        for bad in (np.empty((40, 30), np.float64),
                    np.empty((30, 40), np.float32).T):
            with pytest.raises(ValueError, match="out must be"):
                erf(x, out=bad)


class TestInvariance:
    def test_independent_of_length_and_block_offset(self):
        rng = np.random.default_rng(2)
        x = (rng.standard_normal(3 * BLOCK + 123) * 2).astype(np.float32)
        whole = erf(x)
        for start in (0, 1, 7, BLOCK - 1, BLOCK + 5):
            for length in (1, 3, 100, BLOCK + 17):
                piece = x[start:start + length]
                np.testing.assert_array_equal(
                    erf(piece), whole[start:start + length])

    def test_batch_split_invariance(self):
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((64, 9, 128)).astype(np.float32)
        whole = erf(batch)
        for split in np.array_split(np.arange(64), [5, 6, 40]):
            np.testing.assert_array_equal(erf(batch[split]), whole[split])

    def test_concurrent_callers_agree(self):
        rng = np.random.default_rng(4)
        inputs = [(rng.standard_normal(BLOCK * 2 + i) * 3).astype(np.float32)
                  for i in range(8)]
        expected = [erf(x) for x in inputs]
        results: list = [None] * 8
        barrier = threading.Barrier(8)

        def work(i):
            barrier.wait()
            for __ in range(20):
                got = erf(inputs[i])
                if results[i] is None:
                    results[i] = got
                elif not np.array_equal(got, results[i]):
                    results[i] = "diverged"

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for got, want in zip(results, expected):
            assert isinstance(got, np.ndarray)
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_callers_share_one_erf(dtype):
    """Tensor.erf, the fused GELU and the packed GELU all use this erf."""
    from repro.nn import Tensor, no_grad
    from repro.nn import functional as F
    from repro.nn.inference import gelu_exact

    x = np.random.default_rng(5).standard_normal((6, 50)).astype(dtype)
    np.testing.assert_array_equal(Tensor(x, dtype=dtype).erf().data, erf(x))
    if dtype is np.float32:
        with no_grad():
            fused = F.gelu(Tensor(x)).data
        np.testing.assert_array_equal(gelu_exact(x), fused)
