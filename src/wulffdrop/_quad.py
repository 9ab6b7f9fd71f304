"""Shared slab quadrature: exact slab integrals and the Gauss rule.

On a slab r = (1 - x) a + x b is linear and the tension's integrand is
constant, so every volume and energy integral is an exact Bernstein sum:
int_0^1 r^n dx = sum_k a^(n-k) b^k / (n + 1) and int_0^1 x r^n dx =
sum_k (k + 1) a^(n-k) b^k / ((n + 1) (n + 2)).  The 8-point Gauss-Legendre
rule on [0, 1] is kept for the direct solver's slice-measure functional,
whose integrand rho^beta is not a polynomial.
"""

import numpy as np

_gx, _gw = np.polynomial.legendre.leggauss(8)
GAUSS_X = 0.5 * (_gx + 1.0)
GAUSS_W = 0.5 * _gw


def _bernstein_terms(a, b, n, term):
    """Fill ``term`` with a^(n-k) b^k for k = 0, ..., n in turn, yielding k.
    A term leaves out a factor x^0 = 1 and takes x^1 as x, and so rounds as
    the product of the two powers does."""
    for k in range(n + 1):
        if k == n:
            np.power(b, n, out=term)
        else:
            np.power(a, n - k, out=term)
            if k == 1:
                term *= b
            elif k > 1:
                term *= b**k
        yield k


def slab_volume(area: float, ts: np.ndarray, rs: np.ndarray, n: int, out=None):
    """area * int r(t)^n dt for r piecewise linear on the knots ts (exact).

    The knots run along the last axis, so stacked profiles give one volume
    each (``ts`` broadcasts to the shape of ``rs``); a single profile gives
    a float.

    The sum is accumulated from 0 in place, in two full-size buffers that
    also take the slab widths, because large temporaries are mapped and
    page-faulted on every call.  ``out`` is a pair of float arrays of the
    slabs' shape (one entry fewer than ``rs`` along the last axis) to use
    as those two buffers; their contents are overwritten.  By default
    they are allocated.
    """
    a, b = rs[..., :-1], rs[..., 1:]
    if out is None:
        acc, term = np.zeros_like(a), np.empty_like(a)
    else:
        acc, term = out
        acc.fill(0.0)
    for _ in _bernstein_terms(a, b, n, term):
        acc += term
    np.subtract(ts[..., 1:], ts[..., :-1], out=term)  # np.diff(ts), in place
    acc *= term
    acc /= n + 1
    vol = area * np.sum(acc, axis=-1)
    return float(vol) if np.ndim(vol) == 0 else vol


def slab_moments(a: np.ndarray, b: np.ndarray, n: int):
    """(int_0^1 r^n dx, int_0^1 x r^n dx) for r = (1 - x) a + x b."""
    term, mean, moment = np.empty_like(a), np.zeros_like(a), np.zeros_like(a)
    for k in _bernstein_terms(a, b, n, term):
        mean += term
        moment += (k + 1) * term
    return mean / (n + 1), moment / ((n + 1) * (n + 2))


def slab_layout(n_knots: np.ndarray):
    """(member, left knot) of each slab of members of ``n_knots`` knots laid
    end to end: slab j starts at knot j + its member's index, so no slab
    spans two members."""
    member = np.repeat(np.arange(len(n_knots)), n_knots - 1)
    return member, np.arange(len(member)) + member


def slab_energies(knots, r, n_knots, n, lateral, area, f_top, omega):
    """(Fs, Fc, Fp, total) of members r on knots laid end to end, ``n_knots``
    knots each, whose slice at height t has measure area * r(t)^n:

        Fs = sum_j lateral_j int_slab r^(n-1) dt + f_top area r(T)^n,
        Fc = omega area r(0)^n,   Fp = area int t r^n dt,

    the flat top only where r(T) > 0; ``lateral`` is each slab's lateral
    coefficient, ``area`` one value per member or one for all.  Each
    member's slabs are summed in its own order (``np.bincount``), so its
    energy does not depend on the rest of the block.  ``Fc`` and ``total``
    have one column per entry of a 1-D array ``omega``.
    """
    member, lo = slab_layout(n_knots)
    count, last = len(n_knots), np.cumsum(n_knots) - 1
    a, b, t0 = r[lo], r[lo + 1], knots[lo]
    dt = knots[lo + 1] - t0
    mean, moment = slab_moments(a, b, n)
    fs = np.bincount(member, lateral * dt * slab_moments(a, b, n - 1)[0], count)
    top = r[last] ** n
    fs = np.where(top > 0, fs + f_top * area * top, fs)
    fp = area * np.bincount(member, dt * (t0 * mean + dt * moment), count)
    omega = np.asarray(omega, dtype=float)
    col = (lambda x: x[:, None]) if omega.ndim else (lambda x: x)
    fc = omega * col(area * r[last - n_knots + 1] ** n)
    return fs, fc, fp, col(fs) + fc + col(fp)
