"""Truncated-Wulff competitor machinery for repairing non-convex profiles.

All geometry is accessed through the radial profile alpha(t) of the full
Wulff shape K: every quantity of the construction (cap volumes, slice
measures, the (sigma, tau) parameter solves) depends only on slice measures,
so caps are one-dimensional profile segments and no polyhedral booleans are
needed.

Given a symmetric candidate E with a concavity violation on (t1, t2), the
construction replaces the middle section with a rescaled, truncated copy of
K whose cut slices match E's, translates the remainder, and strictly
decreases the energy (surface energy via the Wulff inequality, potential
energy because mass moves downward).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .errors import (
    HypothesisViolated,
    NoBracket,
    SigmaOutOfRange,
)
from ._quad import slab_volume
from .reduced import Profile, lateral_slab_energy, reduced_energy, reduced_volume
from .tension import SurfaceTension
from .wulff import alpha_table, build_wulff_body, vertical_extent, wulff_alpha

# Exceptions that make a repair attempt unusable (callers may skip and retry).
CompetitorFailure = (HypothesisViolated, NoBracket, SigmaOutOfRange)

# Absolute tolerance (brentq xtol) of the sigma root solve.
BISECT_TOL = 1e-12
SCAN_POINTS = 64

# Sampling density of cap profile segments, and the cap's fixed grid: its
# parameter xi and the weights clustering the samples at the far cut.
CAP_SAMPLES = 513
_CAP_XI = np.linspace(0.0, 1.0, CAP_SAMPLES)
_CAP_RISE = np.sin(0.5 * math.pi * _CAP_XI)
_CAP_FALL = 1.0 - np.cos(0.5 * math.pi * _CAP_XI)

# Witness-gap shrinks (by 1/4 each) that a repair tries before giving up.
MAX_SHRINKS = 12

# Smallest energy drop of a repair that counts as a strict decrease; below
# it the violation repaired is at rounding level.
MIN_ENERGY_DROP = 1e-10

# Chord deficit, relative to max(1, max r), at or below which a concavity
# violation is at rounding level.
MIN_DEFICIT = 1e-10


@dataclass(frozen=True, eq=False)
class CapSegment:
    """Radial profile of a rescaled, truncated Wulff cap."""

    ts: np.ndarray
    rs: np.ndarray
    side: str
    sigma: float
    b: float


@dataclass(frozen=True, eq=False)
class CompetitorParams:
    """Solved parameters of the K_+/K_- construction for (E, t1, t2)."""

    side: str
    sigma: float
    tau: float
    b: float
    t1: float
    t2: float
    z_cut: float
    volume_match_error: float
    slice_match_error: float


# ---------------------------------------------------------------------------
# Profile section helpers
# ---------------------------------------------------------------------------

def section_volume(p: Profile, ta: float, tb: float) -> float:
    """|E cap {ta < x_N < tb}| for the piecewise-linear profile (exact)."""
    ts = np.unique(np.concatenate([[ta, tb], p.knots[(p.knots > ta) & (p.knots < tb)]]))
    return slab_volume(p.body.area, ts, p.interp(ts), p.tension.dim - 1)


def lateral_energy_between(p: Profile, ta: float, tb: float) -> float:
    """Lateral surface energy of the profile restricted to [ta, tb]."""
    ts = np.unique(np.concatenate([[ta, tb], p.knots[(p.knots > ta) & (p.knots < tb)]]))
    slabs = lateral_slab_energy(p.tension, p.body.lam, ts, p.interp(ts))
    return float(p.body.area * np.sum(slabs))


# ---------------------------------------------------------------------------
# Cap profiles
# ---------------------------------------------------------------------------

def _check_sigma(tension: SurfaceTension, sigma: float) -> tuple[float, float]:
    lo, hi = vertical_extent(tension)
    if not (lo < sigma < hi):
        raise SigmaOutOfRange(
            f"sigma={sigma} outside the vertical extent ({lo}, {hi}) of K"
        )
    return lo, hi


def cap_profile(tension: SurfaceTension, side: str, sigma: float,
                t_anchor: float, v_anchor: float, body=None) -> CapSegment:
    """Radial profile of K_+/K_- rescaled so the cut slice has measure v_anchor.

    side "+": the part of K above sigma, dilated by b and anchored so the cut
    lies at height t_anchor; side "-": the part below sigma, anchored from
    above.  It is ``_sample_cap``'s cap with the far cut at the pole.
    """
    lo, hi = _check_sigma(tension, sigma)
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    if body is None:
        body = build_wulff_body(tension, 1024)
    nm1 = tension.dim - 1
    b = (v_anchor / (body.area * wulff_alpha(tension, sigma) ** nm1)) ** (1.0 / nm1)
    ts, rs = _sample_cap(tension, b, t_anchor, sigma, hi if side == "+" else lo, side)
    return CapSegment(ts=ts, rs=rs, side=side, sigma=sigma, b=b)


# ---------------------------------------------------------------------------
# Parameter solves
# ---------------------------------------------------------------------------

def _scan_bracket(fn, grid: np.ndarray):
    """Root of fn in the last grid cell where it changes sign, or None;
    returns (root, scanned values).  fn takes the whole grid at once."""
    vals = fn(grid)
    idx = np.nonzero(vals[:-1] * vals[1:] <= 0.0)[0]
    if len(idx) == 0:
        return None, vals
    k = idx[-1]
    return brentq(fn, grid[k], grid[k + 1], xtol=BISECT_TOL), vals


def _sample_cap(tension: SurfaceTension, b: float, t_anchor: float,
                sigma: float, z_cut: float, side: str):
    """Piecewise-linear sampling of the truncated cap, clustered at the far
    cut (which may sit at a pole of alpha).  Heights increase along the last
    axis; arrays b, sigma and z_cut sample one cap per entry."""
    fa = alpha_table(tension)
    b, sigma, z_cut = (np.asarray(v, dtype=float)[..., None] for v in (b, sigma, z_cut))
    if side == "+":
        z = sigma + (z_cut - sigma) * _CAP_RISE
    else:
        z = z_cut + (sigma - z_cut) * _CAP_FALL
    ts = t_anchor + b * (z - sigma)
    return ts, b * fa(z)


def solve_params(e: Profile, t1: float, t2: float, side: str) -> CompetitorParams:
    """Solve the cut height sigma and truncation height tau of the cap.

    The cap is anchored at t1 (side "+") or t2 (side "-") with its cut slice
    matching E there.  The far slice match alpha(z_cut) = alpha(sigma) *
    ratio, ratio = r_far / r_anchor, is enforced exactly by the signed
    inverse z_cut = +-inverse(alpha(sigma) * ratio): the sign puts z_cut
    past the peak (+ for side "+", - for side "-"), or, when ratio > 1, first
    on sigma's own side.  A single Brent root solve in sigma then drives the
    enclosed cap volume to the middle volume of E.  Both the middle volume
    and the cap volume are evaluated on the same piecewise-linear
    discretization used for splicing, so the matches hold to the root
    solve's accuracy.  Each sign is scanned on a 65-point sigma grid in one
    array evaluation (the residual runs from the whole rescaled shape down
    to a vanishing cap, so a bracket exists).
    """
    if not (0.0 < t1 < t2):
        raise ValueError("need 0 < t1 < t2")
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    tension = e.tension
    nm1 = tension.dim - 1
    fa = alpha_table(tension)
    lo, hi = fa.t_bot, fa.t_top
    span = hi - lo
    eps = 1e-9 * span
    area = e.body.area
    v_mid = section_volume(e, t1, t2)
    if v_mid <= 0:
        raise HypothesisViolated("middle section of E has no volume")

    r1 = float(e.interp(t1))
    r2 = float(e.interp(t2))
    if side == "+":
        t_anchor, r_anchor, r_far = t1, r1, r2
    else:
        t_anchor, r_anchor, r_far = t2, r2, r1
    if r_anchor <= 0:
        raise HypothesisViolated(f"empty anchor slice at t={t_anchor}")
    ratio = r_far / r_anchor
    past = 1.0 if side == "+" else -1.0
    if ratio <= 1.0:
        # Far slice no wider than the cut: z lies past the peak, for every
        # admissible sigma.
        signs = (past,)
        sig_lo, sig_hi = lo + eps, hi - eps
    else:
        # Far slice wider than the cut: alpha(sigma) * ratio must stay below
        # the peak width, which keeps sigma beyond inverse(1 / ratio) on its
        # own side, and z may sit on sigma's side of the peak or past it.
        bound = fa.inverse(1.0 / ratio)
        if side == "+":
            sig_lo, sig_hi = lo + eps, -bound - eps
        else:
            sig_lo, sig_hi = bound + eps, hi - eps
        signs = (-past, past)
        if not sig_lo < sig_hi:
            # alpha(sigma) * ratio exceeds the peak width for every sigma,
            # as for the box-shaped K of pnorm p = 1 (alpha = 1).
            raise NoBracket(f"no sigma fits the far slice (side {side})")

    def far_cut(sig, sign):
        return sign * fa.inverse(fa(sig) * ratio)

    def residual(sig, sign):
        b = r_anchor / fa(sig)
        ts, rs = _sample_cap(tension, b, t_anchor, sig, far_cut(sig, sign), side)
        return slab_volume(area, ts, rs, nm1) - v_mid

    grid = np.linspace(sig_lo, sig_hi, SCAN_POINTS + 1)
    for sign in signs:
        sigma, vals = _scan_bracket(lambda sig: residual(sig, sign), grid)
        if sigma is not None:
            break
    else:
        raise NoBracket(f"cap volume residual (side {side}) never crosses zero",
                        table=np.stack([grid, vals]))

    z = far_cut(sigma, sign)
    b = r_anchor / fa(sigma)
    tau = t_anchor + b * (z - sigma)
    ts, rs = _sample_cap(tension, b, t_anchor, sigma, z, side)
    v_far = area * (b * fa(z)) ** nm1
    vol_err = abs(slab_volume(area, ts, rs, nm1) - v_mid) / (1.0 + v_mid)
    slice_err = abs(v_far - area * r_far**nm1) / (1.0 + area * r_far**nm1)
    return CompetitorParams(side=side, sigma=float(sigma), tau=float(tau), b=float(b),
                            t1=t1, t2=t2, z_cut=float(z),
                            volume_match_error=vol_err, slice_match_error=slice_err)


# ---------------------------------------------------------------------------
# Surface-energy comparison and the competitor itself
# ---------------------------------------------------------------------------

def compare_surface_energy(e: Profile, params: CompetitorParams):
    """(cap_energy, original_energy) of the lateral surfaces being swapped.

    Both sides are evaluated with the same piecewise-linear reduced-energy
    quadrature, so the fixed-point case (E itself a cap) compares equal to
    rounding.  The cap is sampled on the grid of the parameter solve.
    """
    t_anchor = params.t1 if params.side == "+" else params.t2
    ts, rs = _sample_cap(e.tension, params.b, t_anchor, params.sigma,
                         params.z_cut, params.side)
    cap = lateral_slab_energy(e.tension, e.body.lam, ts, rs)
    return float(e.body.area * np.sum(cap)), lateral_energy_between(e, params.t1, params.t2)


def _violations(e: Profile):
    """Knots where discrete concavity fails, by decreasing chord deficit,
    and those deficits relative to max(1, max r)."""
    t, r = e.knots, e.r
    slopes = np.diff(r) / np.diff(t)
    kink = np.diff(slopes)
    scale = max(1.0, float(np.max(r)))
    ic = np.nonzero(kink > 1e-11 * scale)[0] + 1
    support = r > 0
    ic = ic[support[ic - 1] | support[ic] | support[ic + 1]]
    w = (t[ic + 1] - t[ic]) / (t[ic + 1] - t[ic - 1])
    deficit = w * r[ic - 1] + (1 - w) * r[ic + 1] - r[ic]
    order = np.argsort(-deficit, kind="stable")
    return ic[order], deficit[order] / scale


def find_nonconvexity(e: Profile, epsilon: float):
    """Witness (t1', t2') of failed discrete concavity with gap < epsilon.

    Returns None when the profile is concave on its support.  Otherwise the
    worst chord violation seeds the sweep of ``_sweep``.
    """
    seeds, _ = _violations(e)
    return _sweep(e, int(seeds[0]), epsilon) if len(seeds) else None


def _sweep(e: Profile, i: int, epsilon: float):
    """Witness of the violation at knot i: the chord-deficit function is
    maximized, its superlevel interval at (1 - delta) of the maximum is
    mapped back to heights, and delta shrinks until the gap is below
    epsilon.  None when the deficit vanishes."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    t, r = e.knots, e.r
    t1, t2 = float(t[i - 1]), float(t[i + 1])

    ta, tb = t1, t2
    for _ in range(8):
        if t2 - t1 < epsilon:
            return t1, t2
        inner = t[(t > t1) & (t < t2)]
        mu_knots = np.concatenate([[0.0], (t2 - inner[::-1]) / (t2 - t1), [1.0]])
        heights = t2 - mu_knots * (t2 - t1)
        f = (
            mu_knots * np.interp(t1, t, r)
            + (1 - mu_knots) * np.interp(t2, t, r)
            - np.interp(heights, t, r)
        )
        k = int(np.argmax(f))
        fmax = f[k]
        if fmax <= 0:
            return None
        delta = 0.5
        for _ in range(60):
            level = (1.0 - delta) * fmax
            left = mu_knots[k]
            for j in range(k, 0, -1):
                if f[j - 1] < level:
                    frac = (f[j] - level) / (f[j] - f[j - 1])
                    left = mu_knots[j] + frac * (mu_knots[j - 1] - mu_knots[j])
                    break
                left = mu_knots[j - 1]
            right = mu_knots[k]
            for j in range(k, len(f) - 1):
                if f[j + 1] < level:
                    frac = (f[j] - level) / (f[j] - f[j + 1])
                    right = mu_knots[j] + frac * (mu_knots[j + 1] - mu_knots[j])
                    break
                right = mu_knots[j + 1]
            ta = t2 - right * (t2 - t1)
            tb = t2 - left * (t2 - t1)
            if tb - ta < epsilon:
                return float(ta), float(tb)
            delta *= 0.5
        # Flat maximum: nudge the outer endpoint to break the tie.
        t2 = t2 - 1e-3 * (t2 - t1)
    return float(ta), float(tb)


def repair_profile(e: Profile, tension: SurfaceTension, omega: float,
                   epsilon: Optional[float] = None) -> Optional[Profile]:
    """One competitor repair that lowers the energy by more than
    MIN_ENERGY_DROP, or None when no violation yields one.

    Violations are tried by decreasing chord deficit.  A repair at rounding
    level is passed over for the next violation while that one's relative
    deficit exceeds MIN_DEFICIT: the worst kink can sit on a span so short
    that its repair gains nothing, while a shallower one still gains much.
    When the construction hypotheses fail for the witness interval
    (typically the case-2 mass condition near the apex), the witness gap is
    shrunk geometrically: the sweep guarantees arbitrarily small violating
    intervals, on which the hypotheses eventually hold.  A failure at the
    worst violation is raised; one further down is passed over.
    """
    if epsilon is None:
        epsilon = 0.5 * e.t_max
    seeds, deficits = _violations(e)
    for k in range(len(seeds)):
        if k > 0 and deficits[k] <= MIN_DEFICIT:
            break
        try:
            repaired = _repair_at(e, int(seeds[k]), tension, omega, epsilon)
        except CompetitorFailure:
            if k == 0:
                raise
            continue
        if repaired is not None and repaired.meta["energy_drop"] > MIN_ENERGY_DROP:
            return repaired
    return None


def _repair_at(e: Profile, i: int, tension: SurfaceTension, omega: float,
               epsilon: float) -> Optional[Profile]:
    last: Exception | None = None
    for _ in range(MAX_SHRINKS):
        witness = _sweep(e, i, epsilon)
        if witness is None:
            return None
        try:
            return apply_competitor(e, witness[0], witness[1], tension, omega)
        except CompetitorFailure as exc:
            last = exc
            epsilon *= 0.25
    raise last  # type: ignore[misc]


def _check_hyp1(e: Profile, t1: float, t2: float) -> None:
    r1, r2 = float(e.interp(t1)), float(e.interp(t2))
    inner = e.knots[(e.knots > t1) & (e.knots < t2)]
    probes = np.unique(np.concatenate([inner, [0.5 * (t1 + t2)]]))
    chord = r1 + (probes - t1) / (t2 - t1) * (r2 - r1)
    if not np.all(e.interp(probes) < chord):
        raise HypothesisViolated(
            f"profile does not lie strictly below the chord on ({t1}, {t2})"
        )


def apply_competitor(e: Profile, t1: float, t2: float,
                     tension: SurfaceTension, omega: float) -> Profile:
    """Replace the non-convex section of E by a truncated Wulff cap.

    Case 1 (r(t1) <= r(t2)): splice in the upper cap K_+ and translate the
    top of E down by t2 - tau.  Case 2 (r(t1) > r(t2)): splice in the lower
    cap K_- and translate it and the top of E down by tau - t1; this
    additionally requires the mass above t2 to dominate, hypothesis
    t2 - t1 < |E cap {x_N >= t2}| / sup v_E.

    The returned profile has the volume of E to 1e-8 relative and strictly
    smaller energy; the achieved margin is stored in ``meta``.
    """
    _check_hyp1(e, t1, t2)
    nm1 = tension.dim - 1
    r1, r2 = float(e.interp(t1)), float(e.interp(t2))
    side = "+" if r1 <= r2 else "-"
    if side == "-":
        v_above = section_volume(e, t2, e.t_max)
        v_sup = e.body.area * float(np.max(e.r)) ** nm1
        if not (t2 - t1 < v_above / v_sup):
            raise HypothesisViolated(
                "case-2 mass hypothesis fails: not enough volume above t2"
            )
    params = solve_params(e, t1, t2, side)
    tau = params.tau
    # The cap on exactly the grid of the parameter solve, spanning [t1, tau]
    # for side "+" and [tau, t2] for side "-".
    ts_cap, rs_cap = _sample_cap(e.tension, params.b, t1 if side == "+" else t2,
                                 params.sigma, params.z_cut, side)
    low = e.knots < t1 - 1e-13
    high = e.knots > t2 + 1e-13
    if side == "+":
        new_t = np.concatenate([e.knots[low], ts_cap, e.knots[high] - (t2 - tau)])
    else:
        shift = tau - t1
        new_t = np.concatenate([e.knots[low], ts_cap - shift, e.knots[high] - shift])
    new_r = np.concatenate([e.r[low], rs_cap, e.r[high]])

    order = np.argsort(new_t, kind="stable")
    new_t, new_r = new_t[order], new_r[order]
    good = np.concatenate([[True], np.diff(new_t) > 1e-13])
    new_t, new_r = new_t[good], new_r[good]
    result = Profile(knots=new_t, r=np.maximum(new_r, 0.0), tension=tension,
                     body=e.body, omega=omega)

    vol_old = reduced_volume(e)
    vol_new = reduced_volume(result)
    if abs(vol_new - vol_old) > 1e-8 * (1.0 + vol_old):
        raise NoBracket(
            f"competitor volume mismatch: {vol_new} vs {vol_old} "
            f"(params {params})"
        )
    e_old = reduced_energy(e, omega).total
    e_new = reduced_energy(result, omega).total
    meta = {"params": params, "energy_drop": e_old - e_new,
            "volume_error": abs(vol_new - vol_old)}
    return Profile(knots=result.knots, r=result.r, tension=tension,
                   body=e.body, omega=omega, meta=meta)
