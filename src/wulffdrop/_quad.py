"""Shared quadrature: the Gauss rule and the exact slab volume.

8-point Gauss-Legendre rule mapped to [0, 1]; exact through polynomial
degree 15, in particular exact for all slab volume and gravity integrands.
"""

import numpy as np

_gx, _gw = np.polynomial.legendre.leggauss(8)
GAUSS_X = 0.5 * (_gx + 1.0)
GAUSS_W = 0.5 * _gw


def slab_volume(area: float, ts: np.ndarray, rs: np.ndarray, n: int):
    """area * int r(t)^n dt for r piecewise linear on the knots ts (exact).

    Over a slab with end values a, b the mean of ((1-x) a + x b)^n is
    sum_k a^(n-k) b^k / (n + 1).  The knots run along the last axis, so
    stacked profiles give one volume each; a single profile gives a float.
    """
    a, b = rs[..., :-1], rs[..., 1:]
    acc = np.zeros_like(a)
    for k in range(n + 1):
        acc += a ** (n - k) * b**k
    vol = area * np.sum(np.diff(ts, axis=-1) * acc / (n + 1), axis=-1)
    return float(vol) if np.ndim(vol) == 0 else vol
