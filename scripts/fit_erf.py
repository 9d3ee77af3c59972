#!/usr/bin/env python
"""Regenerate the coefficient tables of ``repro.nn.erf``.

Fits the two branches ``repro.nn.erf`` evaluates:

* ``|x| < 1``: ``erf(x) = x + x * R(x^2)``, with ``R`` a polynomial in
  ``s = x^2`` on ``[0, 1]``, fitted for uniform relative error of erf;
* ``1 <= |x| <= clamp``: ``erf(x) = 1 - G(1/x) / exp(x^2)``, with ``G`` a
  polynomial in ``t = 1/x`` on ``[1/clamp, 1]`` (``G`` is the scaled
  complementary error function ``erfcx``), fitted for uniform absolute
  error of erf.

Each fit is a Lawson-weighted least-squares pass toward the minimax
polynomial, in a Chebyshev basis over the mapped interval.  The
coefficients are then rounded to the table dtype one at a time, lowest
order first, refitting the higher orders around each rounded one: this
absorbs the rounding of the coefficients into the fit, which is what
keeps float32 within 1 ulp.  scipy is the reference here and only here:
the library itself never imports it.

Usage: python scripts/fit_erf.py   (prints both tables as Python literals)
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import chebyshev
from scipy.special import erf, erfcx

# (dtype, small-branch degree, large-branch degree, clamp).  The clamp is
# where erf rounds to exactly 1.0 in that dtype.
TABLES = {
    "float32": (np.float32, 6, 6, 3.92),
    "float64": (np.float64, 10, 13, 6.0),
}
NODES = 6000
ITERATIONS = 40


def _lawson(basis: np.ndarray, target: np.ndarray,
            weight: np.ndarray) -> tuple[np.ndarray, float]:
    lawson = np.ones(len(target))
    for __ in range(ITERATIONS):
        scale = np.sqrt(lawson) * weight
        coeffs = np.linalg.lstsq(basis * scale[:, None], target * scale,
                                 rcond=None)[0]
        error = np.abs((basis @ coeffs - target) * weight)
        lawson *= error
        lawson /= lawson.sum()
    return coeffs, float(error.max())


def fit_rounded(lo: float, hi: float, func, weight, degree: int,
                dtype) -> tuple[np.ndarray, float]:
    """Monomial coefficients of ``func`` on ``[lo, hi]``, rounded to dtype."""
    v = np.cos(np.pi * (np.arange(NODES) + 0.5) / NODES)
    u = 0.5 * (lo + hi) + 0.5 * (hi - lo) * v
    target, w = func(u), weight(u)
    u_of_v = Polynomial([0.5 * (lo + hi), 0.5 * (hi - lo)])
    v_of_u = Polynomial([-(hi + lo) / (hi - lo), 2 / (hi - lo)])
    fixed: list[float] = []
    for order in range(degree + 1):
        known = Polynomial(fixed + [0.0])(u_of_v)(v)
        basis = chebyshev.chebvander(v, degree - order) * (u**order)[:, None]
        coeffs, error = _lawson(basis, target - known, w)
        rest = Polynomial(chebyshev.cheb2poly(coeffs))(v_of_u)
        fixed.append(float(dtype(rest.coef[0])))
    return np.array(fixed, dtype=dtype), error


def fit_small(degree: int, dtype) -> tuple[np.ndarray, float]:
    def ratio_minus_one(s):
        x = np.sqrt(s)
        tiny = x < 1e-4
        ratio = np.where(tiny, 2 / np.sqrt(np.pi) * (1 - s / 3),
                         erf(x) / np.where(tiny, 1.0, x))
        return ratio - 1.0

    return fit_rounded(0.0, 1.0, ratio_minus_one, np.ones_like, degree,
                       dtype)


def fit_large(degree: int, clamp: float, dtype) -> tuple[np.ndarray, float]:
    return fit_rounded(1.0 / clamp, 1.0, lambda t: erfcx(1 / t),
                       lambda t: np.exp(-1 / t**2), degree, dtype)


def main() -> None:
    for name, (dtype, small_degree, large_degree, clamp) in TABLES.items():
        small, small_error = fit_small(small_degree, dtype)
        large, large_error = fit_large(large_degree, clamp, dtype)
        print(f"# {name}: fit error small {small_error:.1e} (relative), "
              f"large {large_error:.1e} (absolute)")
        for label, coeffs in (("small", small), ("large", large)):
            literals = ", ".join(repr(float(c)) if dtype is np.float64
                                 else str(c) for c in coeffs)
            print(f"{name}_{label} = ({literals})")


if __name__ == "__main__":
    main()
