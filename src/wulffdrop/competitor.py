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
energy because mass moves downward).  Every step reads the tension and the
contact coefficient from E itself: its Wulff body's tension and ``E.omega``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import HypothesisViolated, InvalidInput, NoBracket
from ._brent import brentq
from ._quad import slab_volume
from .reduced import Profile, lateral_slab_energy, reduced_energy, reduced_volume
from .tension import SurfaceTension
from .wulff import alpha_table, sorted_distinct

# Exceptions that make a repair attempt unusable (callers may skip and retry).
CompetitorFailure = (HypothesisViolated, NoBracket)

# Absolute tolerance (the xtol of _brent.brentq) of the sigma root solve.
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
class CompetitorParams:
    """Solved parameters of the K_+/K_- construction for (E, t1, t2), and
    the cap they give as sampled by the solve: ascending heights ``ts``
    spanning [t1, tau] for side "+" and [tau, t2] for side "-", and the
    radii ``rs`` at them."""

    side: str
    sigma: float
    tau: float
    b: float
    t1: float
    t2: float
    z_cut: float
    volume_match_error: float
    slice_match_error: float
    ts: np.ndarray = field(repr=False)
    rs: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# Profile section helpers
# ---------------------------------------------------------------------------

def _section(p: Profile, ta: float, tb: float):
    """Sorted heights ta, tb and the knots between them, and r there."""
    ts = sorted_distinct(np.concatenate([[ta, tb], p.knots[(p.knots > ta) & (p.knots < tb)]]))
    return ts, p.interp(ts)


def section_volume(p: Profile, ta: float, tb: float) -> float:
    """|E cap {ta < x_N < tb}| for the piecewise-linear profile (exact)."""
    return slab_volume(p.body.area, *_section(p, ta, tb), p.tension.dim - 1)


def lateral_energy_between(p: Profile, ta: float, tb: float) -> float:
    """Lateral surface energy of the profile restricted to [ta, tb]."""
    slabs = lateral_slab_energy(p.tension, p.body.lam, *_section(p, ta, tb))
    return float(p.body.area * np.sum(slabs))


# ---------------------------------------------------------------------------
# Parameter solves
# ---------------------------------------------------------------------------

def _sign_changes(vals: np.ndarray) -> np.ndarray:
    """Whether each cell between consecutive values holds a root: its ends
    differ in sign, or one is zero.  The test multiplies nothing, so values
    whose product underflows keep their signs; a NaN end never counts."""
    lo, hi = vals[:-1], vals[1:]
    return (np.minimum(lo, hi) <= 0.0) & (np.maximum(lo, hi) >= 0.0)


def _scan_bracket(scan, fn, grid: np.ndarray):
    """Root of fn in the last grid cell where it changes sign, or None.
    scan gives fn's values on the whole grid at once; Brent starts from its
    values at the cell's ends."""
    vals = scan(grid)
    idx = np.flatnonzero(_sign_changes(vals))
    if len(idx) == 0:
        return None
    k = idx[-1]
    return brentq(fn, grid[k], grid[k + 1], xtol=BISECT_TOL,
                  ends=(vals[k], vals[k + 1]))


# Each thread's sigma-scan workspace.  A scan's arrays are large enough
# that the allocator maps them afresh on every call and faults their pages
# in; kept, they are faulted in once.  A thread runs one scan at a time.
_workspace = threading.local()


def _scan_buffers():
    """This thread's workspace, made on its first scan: the (heights,
    radii) pair of ``_sample_cap`` and the pair of ``slab_volume``."""
    if not hasattr(_workspace, "buffers"):
        caps, slabs = (SCAN_POINTS + 1, CAP_SAMPLES), (SCAN_POINTS + 1, CAP_SAMPLES - 1)
        _workspace.buffers = ((np.empty(caps), np.empty(caps)),
                              (np.empty(slabs), np.empty(slabs)))
    return _workspace.buffers


def _sample_cap(tension: SurfaceTension, b: float, t_anchor: float,
                sigma: float, z_cut: float, side: str, out=None):
    """Piecewise-linear sampling of the part of K between sigma and z_cut
    (above sigma for side "+", below for "-"), dilated by b with the cut at
    sigma anchored at height t_anchor, clustered at the far cut (which may
    sit at a pole of alpha).  Heights increase along the last axis; arrays
    b, sigma and z_cut sample one cap per entry.  ``out`` is a pair of
    float arrays of the caps' shape that take the heights and the radii in
    place; by default both are allocated."""
    fa = alpha_table(tension)
    b, sigma, z_cut = (np.asarray(v, dtype=float)[..., None] for v in (b, sigma, z_cut))
    ts, z = out or (None, None)
    if side == "+":
        z = np.multiply(z_cut - sigma, _CAP_RISE, out=z)
        z += sigma
    else:
        z = np.multiply(sigma - z_cut, _CAP_FALL, out=z)
        z += z_cut
    ts = np.subtract(z, sigma, out=ts)
    ts *= b
    ts += t_anchor
    rs = fa(z, out=z)
    rs *= b
    return ts, rs


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
    to a vanishing cap, so a bracket exists), written into this thread's
    kept workspace; Brent starts from the scan's values at the bracket ends.
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

    def residual(sig, sign, cap=None, slabs=None):
        b = r_anchor / fa(sig)
        ts, rs = _sample_cap(tension, b, t_anchor, sig, far_cut(sig, sign), side,
                             out=cap)
        return slab_volume(area, ts, rs, nm1, out=slabs) - v_mid

    grid = np.linspace(sig_lo, sig_hi, SCAN_POINTS + 1)
    work = _scan_buffers()
    for sign in signs:
        sigma = _scan_bracket(lambda sig: residual(sig, sign, *work),
                              lambda sig: residual(sig, sign), grid)
        if sigma is not None:
            break
    else:
        raise NoBracket(f"cap volume residual (side {side}) never crosses zero")

    z = far_cut(sigma, sign)
    b = r_anchor / fa(sigma)
    tau = t_anchor + b * (z - sigma)
    ts, rs = _sample_cap(tension, b, t_anchor, sigma, z, side)
    v_far = area * (b * fa(z)) ** nm1
    vol_err = abs(slab_volume(area, ts, rs, nm1) - v_mid) / (1.0 + v_mid)
    slice_err = abs(v_far - area * r_far**nm1) / (1.0 + area * r_far**nm1)
    return CompetitorParams(side=side, sigma=float(sigma), tau=float(tau), b=float(b),
                            t1=t1, t2=t2, z_cut=float(z),
                            volume_match_error=vol_err, slice_match_error=slice_err,
                            ts=ts, rs=rs)


# ---------------------------------------------------------------------------
# Surface-energy comparison and the competitor itself
# ---------------------------------------------------------------------------

def compare_surface_energy(e: Profile, params: CompetitorParams):
    """(cap_energy, original_energy) of the lateral surfaces being swapped.

    Both sides are evaluated with the same piecewise-linear reduced-energy
    quadrature, so the fixed-point case (E itself a cap) compares equal to
    rounding.  The cap is the one the parameter solve sampled.
    """
    cap = lateral_slab_energy(e.tension, e.body.lam, params.ts, params.rs)
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


def check_epsilon(epsilon: float) -> None:
    """Raise InvalidInput unless the witness gap epsilon is positive."""
    if not epsilon > 0:
        raise InvalidInput(f"epsilon must be positive, got {epsilon}")


def find_nonconvexity(e: Profile, epsilon: float):
    """Witness (t1', t2') of failed discrete concavity with gap < epsilon.

    Returns None when the profile is concave on its support.  Otherwise the
    worst chord violation seeds the sweep of ``_sweep``.  An epsilon that
    is not positive raises InvalidInput.
    """
    check_epsilon(epsilon)
    seeds, _ = _violations(e)
    return _sweep(e, int(seeds[0]), epsilon) if len(seeds) else None


def _sweep(e: Profile, i: int, epsilon: float):
    """Witness of the violation at knot i.  On (t[i-1], t[i+1]) the chord
    deficit is a tent: zero at both ends (up to rounding), its peak at t[i].
    Its superlevel intervals at (1 - delta) of the peak, delta = 1/2, 1/4,
    ..., 2^-60, are mapped back to heights, and the first one shorter than
    epsilon is the witness.  One always is: from delta = 2^-54 on, 1 - delta
    rounds to 1 and the interval is a point.  None when the peak does not
    exceed both ends, as for a kink at rounding level."""
    t, r = e.knots, e.r
    t1, t2 = float(t[i - 1]), float(t[i + 1])
    if t2 - t1 < epsilon:
        return t1, t2
    # Tent abscissae, measured down from t2, and the deficit at them.
    mu = np.array([0.0, (t2 - t[i]) / (t2 - t1), 1.0])
    f = (mu * np.interp(t1, t, r) + (1 - mu) * np.interp(t2, t, r)
         - np.interp(t2 - mu * (t2 - t1), t, r))
    if not f[1] > max(f[0], f[2]):
        return None
    level = (1.0 - np.ldexp(1.0, -np.arange(1, 61))) * f[1]
    left = mu[1] + (f[1] - level) / (f[1] - f[0]) * (mu[0] - mu[1])
    right = np.where(f[2] < level,
                     mu[1] + (f[1] - level) / (f[1] - f[2]) * (mu[2] - mu[1]),
                     mu[2])
    ta, tb = t2 - right * (t2 - t1), t2 - left * (t2 - t1)
    k = int(np.argmax(tb - ta < epsilon))
    return float(ta[k]), float(tb[k])


def repair_profile(e: Profile, epsilon: Optional[float] = None) -> Optional[Profile]:
    """One competitor repair of E that lowers its energy, under E's tension
    and contact coefficient ``e.omega``, by more than MIN_ENERGY_DROP, or
    None when no violation yields one.

    Violations are tried by decreasing chord deficit.  A repair at rounding
    level is passed over for the next violation while that one's relative
    deficit exceeds MIN_DEFICIT: the worst kink can sit on a span so short
    that its repair gains nothing, while a shallower one still gains much.
    When the construction hypotheses fail for the witness interval
    (typically the case-2 mass condition near the apex), the witness gap is
    shrunk geometrically: the sweep guarantees arbitrarily small violating
    intervals, on which the hypotheses eventually hold.  A failure at the
    worst violation is raised, unless its deficit is at rounding level; one
    further down is passed over.  An epsilon that is not positive raises
    InvalidInput; None takes half the profile's height.
    """
    if epsilon is None:
        epsilon = 0.5 * e.t_max
    else:
        check_epsilon(epsilon)
    seeds, deficits = _violations(e)
    for k in range(len(seeds)):
        if k > 0 and deficits[k] <= MIN_DEFICIT:
            break
        try:
            repaired = _repair_at(e, int(seeds[k]), epsilon)
        except CompetitorFailure:
            if k == 0 and deficits[k] > MIN_DEFICIT:
                raise
            continue
        if repaired is not None and repaired.meta["energy_drop"] > MIN_ENERGY_DROP:
            return repaired
    return None


def _repair_at(e: Profile, i: int, epsilon: float) -> Optional[Profile]:
    last: Exception | None = None
    for _ in range(MAX_SHRINKS):
        witness = _sweep(e, i, epsilon)
        if witness is None:
            return None
        try:
            return apply_competitor(e, witness[0], witness[1])
        except CompetitorFailure as exc:
            last = exc
            epsilon *= 0.25
    raise last  # type: ignore[misc]


def _check_hyp1(e: Profile, t1: float, t2: float) -> None:
    r1, r2 = float(e.interp(t1)), float(e.interp(t2))
    inner = e.knots[(e.knots > t1) & (e.knots < t2)]
    probes = sorted_distinct(np.concatenate([inner, [0.5 * (t1 + t2)]]))
    chord = r1 + (probes - t1) / (t2 - t1) * (r2 - r1)
    if not np.all(e.interp(probes) < chord):
        raise HypothesisViolated(
            f"profile does not lie strictly below the chord on ({t1}, {t2})"
        )


def apply_competitor(e: Profile, t1: float, t2: float) -> Profile:
    """Replace the non-convex section of E by a truncated Wulff cap.

    Case 1 (r(t1) <= r(t2)): splice in the upper cap K_+ and translate the
    top of E down by t2 - tau.  Case 2 (r(t1) > r(t2)): splice in the lower
    cap K_- and translate it and the top of E down by tau - t1; this
    additionally requires the mass above t2 to dominate, hypothesis
    t2 - t1 < |E cap {x_N >= t2}| / sup v_E.

    The returned profile has E's body and contact coefficient, the volume
    of E to 1e-8 relative, and strictly smaller energy under ``e.omega``;
    the achieved margin is stored in ``meta``.
    """
    _check_hyp1(e, t1, t2)
    nm1 = e.tension.dim - 1
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
    tau, ts_cap, rs_cap = params.tau, params.ts, params.rs
    # Knots closer together than 1e-13 of the profile's height are one knot.
    tol = 1e-13 * e.t_max
    low = e.knots < t1 - tol
    high = e.knots > t2 + tol
    if side == "+":
        new_t = np.concatenate([e.knots[low], ts_cap, e.knots[high] - (t2 - tau)])
    else:
        shift = tau - t1
        new_t = np.concatenate([e.knots[low], ts_cap - shift, e.knots[high] - shift])
    new_r = np.concatenate([e.r[low], rs_cap, e.r[high]])

    order = np.argsort(new_t, kind="stable")
    new_t, new_r = new_t[order], new_r[order]
    good = np.concatenate([[True], np.diff(new_t) > tol])
    new_t, new_r = new_t[good], new_r[good]
    result = Profile(knots=new_t, r=np.maximum(new_r, 0.0), body=e.body,
                     omega=e.omega)

    vol_old = reduced_volume(e)
    vol_new = reduced_volume(result)
    if abs(vol_new - vol_old) > 1e-8 * (1.0 + vol_old):
        raise NoBracket(
            f"competitor volume mismatch: {vol_new} vs {vol_old} "
            f"(params {params})"
        )
    e_old = reduced_energy(e).total
    e_new = reduced_energy(result).total
    meta = {"params": params, "energy_drop": e_old - e_new,
            "volume_error": abs(vol_new - vol_old)}
    return replace(result, meta=meta)
