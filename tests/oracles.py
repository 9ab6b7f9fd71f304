"""Exact answers that neither solver route computes (test helper, numpy only).

At N = 2 the transformed ODE's denominator is v, so v dv = s(w) dw, and
Euler's identity integrates s(w) in closed form.  For the scaled p-norm
phi(a, b) = (|a|^p + tau^p |b|^p)^(1/p), with q = p / (p - 1):

    d2phi(s(w), 1) = tau (1 - w^q)^(1/q),
    v(w)^2 = v0^2 + 2 (tau - d2phi(s(w), 1)),
    r(w) = int_0^w dw' / v(w'),

and Young's condition d2phi(s*, 1) = -omega puts the contact at
w* = (1 - (-omega / tau)^q)^(1/q).  With h(x) = |x| the slice Wulff body
is [-1, 1] and Lambda = 1, so the drop's mass is |K_h| Lambda (r v - w*) =
2 (r(w*) v(w*) - w*), and its top height is v(w*) - v0 = sqrt(v0^2 +
2 (tau + omega)) - v0.  The mass decreases in v0, and one bisection in
log2(v0) matches it.

r is one Gauss-Legendre sum over panels that halve towards w = 0, where
1/v varies on the scale w_c at which v(w)^2 doubles v0^2, and towards the
branch point of v at w = 1, which lies just past w* where omega is near 0.
"""

import math

import numpy as np

# Gauss-Legendre nodes per panel.  The panels run from [0, w_c / 2^20] by
# doublings to w* / 2, then by halving distances to 1 up to w*.
GAUSS_NODES = 24
_X, _W = np.polynomial.legendre.leggauss(GAUSS_NODES)


def _v(w, v0, p, tau):
    # tau - d2phi with its cancellation near w = 0 taken out:
    # tau (1 - (1 - x)^(1/q)) for x = w^q, written through expm1 / log1p.
    q = p / (p - 1.0)
    rise = -tau * np.expm1(np.log1p(-(w**q)) / q)
    return np.sqrt(v0 * v0 + 2.0 * rise)


def _contact(p, tau, omega):
    q = p / (p - 1.0)
    return (1.0 - (-omega / tau) ** q) ** (1.0 / q)


def _radius(v0, w_end, p, tau):
    """r(w_end) = int_0^w_end dw / v(w) on the graded panels."""
    q = p / (p - 1.0)
    w_c = min((q * v0 * v0 / (2.0 * tau)) ** (1.0 / q), w_end)
    doublings = int(math.ceil(math.log2(w_end / w_c))) + 20
    low = w_end * 2.0 ** -np.arange(doublings, 0, -1.0)
    high = 1.0 - (1.0 - w_end) * 2.0 ** np.arange(60, 0, -1.0)
    edges = np.concatenate([[0.0], low, high[high > 0.5 * w_end], [w_end]])
    lo, hi = edges[:-1, None], edges[1:, None]
    w = 0.5 * (hi - lo) * _X + 0.5 * (hi + lo)
    return float(np.sum(0.5 * (hi - lo) * _W / _v(w, v0, p, tau)))


def n2_mass(v0, p, tau, omega):
    """The exact mass of the N = 2 drop with apex parameter v0."""
    w_star = _contact(p, tau, omega)
    return 2.0 * (_radius(v0, w_star, p, tau) * _v(w_star, v0, p, tau) - w_star)


def n2_drop(p, tau, omega, m):
    """(v0, T): the apex parameter and top height of the exact N = 2 drop of
    mass m under phi = |(a, tau b)|_p, h = |x| and contact omega in
    (-tau, 0).  A mass at or past the limit of v0 -> 0 raises ValueError."""
    lo, hi = -200.0, 60.0  # log2(v0); the mass decreases in v0
    limit = n2_mass(2.0**lo, p, tau, omega)
    if not limit > m:
        # For p > 2, r(w*) stays finite as v0 -> 0, and so does the mass.
        raise ValueError(f"no drop of mass {m}: the masses level off at {limit} as v0 -> 0")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if n2_mass(2.0**mid, p, tau, omega) > m:
            lo = mid
        else:
            hi = mid
    v0 = 2.0 ** (0.5 * (lo + hi))
    return v0, math.sqrt(v0 * v0 + 2.0 * (tau + omega)) - v0
