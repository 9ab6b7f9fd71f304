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
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import HypothesisViolated, InvalidInput, NoBracket
from ._brent import brentq
from ._quad import slab_volume
from .reduced import Profile, lateral_energy, reduced_energy, reduced_volume
from .wulff import alpha_table, sorted_distinct

# Exceptions that make a repair attempt unusable (callers may skip and retry).
CompetitorFailure = (HypothesisViolated, NoBracket)

# Absolute tolerance (the xtol of _brent.brentq) of the sigma root solve.
BISECT_TOL = 1e-12

# Sampling density of cap profile segments, and the cap's fixed grid: its
# parameter xi and the weights clustering the samples at the far cut.
CAP_SAMPLES = 513
_CAP_XI = np.linspace(0.0, 1.0, CAP_SAMPLES)
_CAP_RISE = np.sin(0.5 * math.pi * _CAP_XI)

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
    return lateral_energy(p.body, *_section(p, ta, tb))


# ---------------------------------------------------------------------------
# Parameter solves
# ---------------------------------------------------------------------------

def _brackets(f_lo: float, f_hi: float) -> bool:
    """Whether ends with these residuals bracket a root: they differ in
    sign, or one is zero.  The test multiplies nothing, so values whose
    product underflows keep their signs; a NaN end never brackets."""
    return f_lo <= 0.0 <= f_hi or f_hi <= 0.0 <= f_lo


def _unit_cap(fa, sigma: float, z_cut: float):
    """Piecewise-linear sampling of the part of K between sigma and z_cut >
    sigma, undilated with its cut at height 0, clustered at the far cut
    (which may sit at a pole of alpha): heights z - sigma and radii
    alpha(z) on the cap grid."""
    z = (z_cut - sigma) * _CAP_RISE + sigma
    return z - sigma, fa(z)


def solve_params(e: Profile, t1: float, t2: float, side: str) -> CompetitorParams:
    """Solve the cut height sigma and truncation height tau of the cap.

    The cap is anchored at t1 (side "+") or t2 (side "-") with its cut slice
    matching E there.  K is even in x_N, so side "-" is solved as side "+"
    of the section reflected in height, and its sigma, z_cut and heights
    are mirrored back.  z_cut = +-inverse(alpha(sigma) * ratio), ratio =
    r_far / r_anchor, matches the far slice exactly: + past the peak, or,
    when ratio > 1, first - on sigma's own side.  One Brent solve in sigma
    then matches the cap volume, b^N times the unit cap's (b = r_anchor /
    alpha(sigma)), to E's middle volume, both on the piecewise-linear
    discretization used for splicing.  Each sign's residual runs from the
    whole rescaled shape down to a vanishing cap across the admissible
    sigma interval, so Brent starts from the residual at its ends; a sign
    whose ends have one sign (or a NaN) brackets nothing and the next is
    tried; none left raises NoBracket.
    """
    if not (0.0 < t1 < t2):
        raise ValueError("need 0 < t1 < t2")
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    nm1 = e.tension.dim - 1
    fa = alpha_table(e.tension)
    lo, hi = fa.t_bot, fa.t_top
    eps = 1e-9 * (hi - lo)
    area = e.body.area
    v_mid = section_volume(e, t1, t2)
    if v_mid <= 0:
        raise HypothesisViolated("middle section of E has no volume")

    r1, r2 = float(e.interp(t1)), float(e.interp(t2))
    # Side "-" reflected: heights run down from t2, and r1 is the far slice.
    t_anchor, r_anchor, r_far, up = (t1, r1, r2, 1.0) if side == "+" else (t2, r2, r1, -1.0)
    if r_anchor <= 0:
        raise HypothesisViolated(f"empty anchor slice at t={t_anchor}")
    ratio = r_far / r_anchor
    if ratio <= 1.0:
        # Far slice no wider than the cut: z lies past the peak, for every
        # admissible sigma.
        signs = (1.0,)
        sig_lo, sig_hi = lo + eps, hi - eps
    else:
        # Far slice wider than the cut: alpha(sigma) * ratio must stay below
        # the peak width, which keeps sigma below -inverse(1 / ratio), and z
        # may sit on sigma's side of the peak or past it.
        signs = (-1.0, 1.0)
        sig_lo, sig_hi = lo + eps, -fa.inverse(1.0 / ratio) - eps
        if not sig_lo < sig_hi:
            # alpha(sigma) * ratio exceeds the peak width for every sigma,
            # as for the box-shaped K of pnorm p = 1 (alpha = 1).
            raise NoBracket(f"no sigma fits the far slice (side {side})")

    def residual(sig, sign):
        a = fa(sig)
        zs, rs = _unit_cap(fa, sig, sign * fa.inverse(a * ratio))
        return (r_anchor / a) ** (nm1 + 1) * slab_volume(area, zs, rs, nm1) - v_mid

    for sign in signs:
        ends = (residual(sig_lo, sign), residual(sig_hi, sign))
        if _brackets(*ends):
            sigma = brentq(lambda sig: residual(sig, sign), sig_lo, sig_hi,
                           xtol=BISECT_TOL, ends=ends)
            break
    else:
        raise NoBracket(f"cap volume residual (side {side}) never crosses zero")

    a = fa(sigma)
    z = sign * fa.inverse(a * ratio)
    b = r_anchor / a
    zs, rs = _unit_cap(fa, sigma, z)
    ts, rs = t_anchor + up * b * zs, b * rs
    tau = t_anchor + up * b * (z - sigma)
    if side == "-":
        # Mirror the reflected cap back: ascending heights, negated cuts.
        ts, rs, sigma, z = ts[::-1], rs[::-1], -sigma, -z
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
    return (lateral_energy(e.body, params.ts, params.rs),
            lateral_energy_between(e, params.t1, params.t2))


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
