"""Shared quadrature: the Gauss rule and the exact slab volume.

8-point Gauss-Legendre rule mapped to [0, 1]; exact through polynomial
degree 15, in particular exact for all slab volume and gravity integrands.
"""

import numpy as np

_gx, _gw = np.polynomial.legendre.leggauss(8)
GAUSS_X = 0.5 * (_gx + 1.0)
GAUSS_W = 0.5 * _gw


def slab_volume(area: float, ts: np.ndarray, rs: np.ndarray, n: int, out=None):
    """area * int r(t)^n dt for r piecewise linear on the knots ts (exact).

    Over a slab with end values a, b the mean of ((1-x) a + x b)^n is
    sum_k a^(n-k) b^k / (n + 1).  The knots run along the last axis, so
    stacked profiles give one volume each (``ts`` broadcasts to the shape
    of ``rs``); a single profile gives a float.

    The sum is accumulated from 0 in place, in two full-size buffers that
    also take the slab widths, because large temporaries are mapped and
    page-faulted on every call.  ``out`` is a pair of float arrays of the
    slabs' shape (one entry fewer than ``rs`` along the last axis) to use
    as those two buffers; their contents are overwritten.  By default
    they are allocated.  x^0 = 1 and x^1 = x exactly, so a term
    a^(n-k) b^k leaves out a factor x^0 and takes x^1 as x, and rounds as
    the product of the two powers does.
    """
    a, b = rs[..., :-1], rs[..., 1:]
    if out is None:
        acc, term = np.zeros_like(a), np.empty_like(a)
    else:
        acc, term = out
        acc.fill(0.0)
    for k in range(n + 1):
        if k == n:
            np.power(b, n, out=term)
        else:
            np.power(a, n - k, out=term)
            if k == 1:
                term *= b
            elif k > 1:
                term *= b**k
        acc += term
    np.subtract(ts[..., 1:], ts[..., :-1], out=term)  # np.diff(ts), in place
    acc *= term
    acc /= n + 1
    vol = area * np.sum(acc, axis=-1)
    return float(vol) if np.ndim(vol) == 0 else vol
