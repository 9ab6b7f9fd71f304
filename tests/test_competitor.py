import math

import numpy as np
import pytest

from wulffdrop import competitor as comp
from wulffdrop import reduced
from wulffdrop.errors import HypothesisViolated, InvalidInput, NoBracket
from wulffdrop.tension import make_tension
from wulffdrop._quad import slab_volume
from wulffdrop.wulff import alpha_table, build_wulff_body, chord_deficits, concavity_defect

from conftest import hemisphere_profile


def wulff_cap_profile(tension, body, sigma_base, n=513, omega=-0.5):
    """Profile of the Wulff shape truncated at sigma_base (b = 1)."""
    hi = tension.f_eN
    xi = np.linspace(0.0, 1.0, n)
    z = sigma_base + (hi - sigma_base) * np.sin(0.5 * math.pi * xi)
    return reduced.Profile(knots=z - sigma_base, r=alpha_table(tension)(z),
                           body=body, omega=omega)


def dented_profile(body, omega=-0.5, lo=12, hi=20, factor=0.75):
    t = np.linspace(0.0, 1.0, 41)
    r = np.sqrt(np.maximum(1.0 - t**2, 0.0))
    r[lo:hi] *= factor
    return reduced.Profile(knots=t, r=r, body=body, omega=omega)


# ---------------------------------------------------------------------------
# The concavity rule (``chord_deficits``), read by the report and the seeds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r,knots", [
    ([1.0, 0.8, 0.0, 0.0, 0.5, 0.0], [1, 2, 3, 4]),  # an interior gap
    ([0.0, 0.0, 0.5, 0.8, 0.9, 0.0], [2, 3, 4]),  # leading zeros
    ([0.0, 0.1, 1.0, 1.0, 0.0], [1, 2, 3]),  # a cone tip below the support
    ([1.0, 0.9, 0.0, 0.8, 0.0], [1, 2, 3]),  # a pinched zero
    ([1.0, 0.6, 0.0, 0.0, 0.0], [1]),  # a zero tail
    ([0.0] * 5, []),
    ([1.0, 0.0], []),
    ([1.0], []),
], ids=["gap", "leading-zeros", "cone-tip", "pinched-zero", "zero-tail", "all-zeros",
        "two-knots", "one-knot"])
def test_one_rule_checks_the_knots_from_the_first_to_the_last_positive_radius(
        euclid_body, r, knots):
    # The knots inside the hull of the non-empty slabs; the report is their
    # largest deficit, and the seeds are those of them past a kink.
    r = np.array(r)
    t = np.linspace(0.0, 1.0, len(r))
    ic, deficit = chord_deficits(t, r)
    assert ic.tolist() == knots
    assert concavity_defect(t, r) == (max(deficit) if knots else 0.0)
    seeds, relative = comp._violations(
        reduced.Profile(knots=t, r=r, body=euclid_body, omega=-0.5))
    assert set(seeds.tolist()) <= set(knots)
    assert relative.tolist() == sorted(
        (d / max(1.0, r.max()) for i, d in zip(ic, deficit) if i in seeds), reverse=True)


def test_an_interior_gap_is_not_concave(euclid_body):
    # Two stacked pieces: the report and the seeds both see the empty knots.
    t = np.linspace(0.0, 1.0, 6)
    r = np.array([1.0, 0.8, 0.0, 0.0, 0.5, 0.0])
    assert concavity_defect(t, r) == pytest.approx(0.4, rel=1e-12)
    prof = dented_profile(euclid_body, lo=12, hi=15, factor=0.0)
    seeds, deficits = comp._violations(prof)
    assert seeds.tolist() == [12, 14]
    assert prof.concavity_defect() == deficits[0] == pytest.approx(0.4807221130757, rel=1e-12)


def test_a_zero_tail_is_concave_on_its_support(euclid_body):
    # Cut off above t = 0.8: the first zero knot ends the support's hull, so
    # it seeds no repair, and the report reads the circle's own chords.
    prof = dented_profile(euclid_body, lo=33, hi=41, factor=0.0)
    assert comp._violations(prof)[0].size == 0
    assert comp.find_nonconvexity(prof, 2.0) is None
    assert comp.repair_profile(prof, epsilon=2.0) is None
    assert prof.concavity_defect() == pytest.approx(-3.1284227066e-4, rel=1e-9)


def test_leading_zeros_seed_no_repair(euclid_body):
    # The knot before the first positive radius, where r kinks up from 0,
    # lies outside the support's hull.
    t = np.linspace(0.0, 1.0, 6)
    prof = reduced.Profile(knots=t, r=np.array([0.0, 0.0, 0.5, 0.8, 0.9, 0.0]),
                           body=euclid_body, omega=-0.5)
    assert comp._violations(prof)[0].size == 0
    assert comp.find_nonconvexity(prof, 2.0) is None
    assert prof.concavity_defect() == pytest.approx(-0.1, rel=1e-12)


# ---------------------------------------------------------------------------
# Cap profiles (``_unit_cap``, the one cap sampler)
# ---------------------------------------------------------------------------

def test_cap_profile_upper_hemisphere(euclid):
    # The unit ball above sigma = 0, cut at the pole: a unit hemisphere.
    fa = alpha_table(euclid)
    zs, rs = comp._unit_cap(fa, 0.0, fa.t_top)
    assert zs[0] == 0.0
    assert zs[-1] == pytest.approx(1.0)
    mid = np.searchsorted(zs, 0.5)
    assert rs[mid] == pytest.approx(math.sqrt(1 - zs[mid] ** 2), abs=1e-9)


def test_cap_profile_sigma06(euclid):
    fa = alpha_table(euclid)
    zs, rs = comp._unit_cap(fa, 0.6, fa.t_top)
    assert rs[0] == pytest.approx(0.8, rel=1e-9)  # alpha(0.6)
    assert zs[-1] - zs[0] == pytest.approx(0.4, abs=1e-9)


def test_cap_profile_vanishes_at_top(euclid, euclid_body):
    fa = alpha_table(euclid)
    zs, rs = comp._unit_cap(fa, 0.999, fa.t_top)
    assert rs[0] == pytest.approx(fa(0.999), rel=1e-9)
    assert slab_volume(euclid_body.area, zs, rs, 2) < 1e-4


def test_cap_profile_lower_side(pnorm3):
    # The lower cap below sigma = 0.3 is the upper cap above -0.3 reflected:
    # dilated, hung from t_anchor and mirrored as solve_params mirrors it.
    sigma, t_anchor = 0.3, 1.5
    fa = alpha_table(pnorm3)
    b = 0.7 / fa(sigma)  # a cut slice of radius 0.7
    zs, rs = comp._unit_cap(fa, -sigma, fa.t_top)
    ts, rs = (t_anchor - b * zs)[::-1], (b * rs)[::-1]
    # Anchored from above: the heights rise to the cut at t_anchor.
    assert np.all(np.diff(ts) > 0)
    assert ts[-1] == t_anchor
    assert ts[0] == pytest.approx(t_anchor - b * (sigma - fa.t_bot), abs=1e-12)
    # The cut slice has radius 0.7; the cap vanishes at the bottom pole, and
    # each radius is K's at the reflected height.
    assert rs[-1] == pytest.approx(0.7, rel=1e-12)
    assert rs[0] == 0.0
    np.testing.assert_allclose(rs, b * fa(sigma - (t_anchor - ts) / b),
                               rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# solve_params
# ---------------------------------------------------------------------------

def test_solve_params_fixed_point(euclid, euclid_body):
    sigma_base = -0.2
    prof = wulff_cap_profile(euclid, euclid_body, sigma_base)
    t1, t2 = 0.3, 0.8
    params = comp.solve_params(prof, t1, t2, "+")
    # The construction recovers the cap itself: sigma at the slice height on
    # K, tau at t2, and unit dilation (up to the sampling discretization).
    assert params.sigma == pytest.approx(sigma_base + t1, abs=1e-4)
    assert params.tau == pytest.approx(t2, abs=1e-4)
    assert params.b == pytest.approx(1.0, abs=1e-3)
    assert params.volume_match_error <= 1e-8
    assert params.slice_match_error <= 1e-8


def test_solve_params_dented_tau_below_t2(euclid, euclid_body):
    prof = dented_profile(euclid_body, lo=10, hi=22, factor=0.8)
    # Pick a bracket whose values make the chord strictly above the dent.
    t1, t2 = 0.2, 0.6
    r1, r2 = prof.interp(t1), prof.interp(t2)
    if r1 <= r2:
        params = comp.solve_params(prof, t1, t2, "+")
        assert params.tau < t2
    else:
        params = comp.solve_params(prof, t1, t2, "-")
        assert params.tau > t1
    assert params.volume_match_error <= 1e-8
    assert params.slice_match_error <= 1e-8


def test_solve_params_volume_match_random_dents(euclid, euclid_body):
    rng = np.random.default_rng(31)
    for _ in range(50):
        lo = int(rng.integers(6, 24))
        width = int(rng.integers(3, 10))
        prof = dented_profile(euclid_body, lo=lo, hi=lo + width,
                              factor=float(rng.uniform(0.55, 0.9)))
        witness = comp.find_nonconvexity(prof, epsilon=2.0)
        assert witness is not None
        t1, t2 = witness
        side = "+" if prof.interp(t1) <= prof.interp(t2) else "-"
        params = comp.solve_params(prof, t1, t2, side)
        assert params.volume_match_error <= 1e-8
        assert params.slice_match_error <= 1e-8


def test_ends_bracket_by_their_signs_without_underflow():
    # Ends bracket where they differ in sign or one is zero, as f_lo * f_hi
    # <= 0 selects them; NaN never brackets.  Where that product
    # underflows, only the signs decide.
    rng = np.random.default_rng(3)
    ends = rng.choice([-2.0, -0.5, -0.0, 0.0, 0.5, 3.0, np.nan], size=(2000, 2))
    with np.errstate(invalid="ignore"):
        product = (ends[:, 0] * ends[:, 1] <= 0.0).tolist()
    assert [comp._brackets(a, b) for a, b in ends.tolist()] == product
    tiny = [1e-200, 2e-200, -1e-200, -3e-200, 0.0, 1e-300]
    assert [comp._brackets(a, b) for a, b in zip(tiny, tiny[1:])] == [
        False, True, False, True, True]


def cap_residual_scan(e, t1, t2, side, points=65):
    """solve_params' cap volume residual on ``points`` sigmas spanning its
    admissible interval, in its one frame (side "-" reflected in height, so
    its sigma and z_cut are negated there): the grid, and the values for
    each far-cut sign in the order solve_params tries them."""
    fa = alpha_table(e.tension)
    eps = 1e-9 * (fa.t_top - fa.t_bot)
    r1, r2 = float(e.interp(t1)), float(e.interp(t2))
    r_anchor, r_far = (r1, r2) if side == "+" else (r2, r1)
    ratio, nm1 = r_far / r_anchor, e.tension.dim - 1
    if ratio <= 1.0:
        grid, signs = np.linspace(fa.t_bot + eps, fa.t_top - eps, points), (1.0,)
    else:
        grid = np.linspace(fa.t_bot + eps, -fa.inverse(1.0 / ratio) - eps, points)
        signs = (-1.0, 1.0)
    v_mid = comp.section_volume(e, t1, t2)

    def residual(sig, sign):
        zs, rs = comp._unit_cap(fa, sig, sign * fa.inverse(fa(sig) * ratio))
        return ((r_anchor / fa(sig)) ** (nm1 + 1)
                * slab_volume(e.body.area, zs, rs, nm1) - v_mid)

    return grid, [(sign, np.array([residual(s, sign) for s in grid.tolist()]))
                  for sign in signs]


def crossings(vals):
    """Cells of a residual scan whose ends differ in sign or touch zero."""
    return np.flatnonzero((np.minimum(vals[:-1], vals[1:]) <= 0.0)
                          & (np.maximum(vals[:-1], vals[1:]) >= 0.0))


@pytest.mark.parametrize("family,kw,dim", [
    ("euclid", {}, 3), ("pnorm", {"p": 3.0}, 3), ("weighted", {"c": 2.0}, 3),
    ("euclid", {}, 2)])
def test_each_cap_residual_crosses_zero_once_across_its_interval(monkeypatch, family,
                                                                 kw, dim):
    # The dents of suite_convexity: on every solve their repairs make, a
    # 65-point scan of the residual finds one crossing, in the first sign
    # that has one, and Brent's sigma on the whole interval lies in that
    # cell.  A sign tried before it has ends of one sign.
    tension = make_tension(family, dim=dim, **kw)
    body = build_wulff_body(tension, 1024)
    solves = []

    def spy(e, t1, t2, side):
        solves.append(((e, t1, t2, side), solve_params(e, t1, t2, side)))
        return solves[-1][1]

    solve_params = comp.solve_params
    monkeypatch.setattr(comp, "solve_params", spy)
    t = np.linspace(0.0, 1.0, 41)
    quarter = np.sqrt(np.maximum(1.0 - t**2, 0.0))
    rng = np.random.default_rng(0)
    for _ in range(12):
        i0, width = int(rng.integers(4, 28)), int(rng.integers(3, 10))
        r = quarter.copy()
        r[i0:i0 + width] *= float(rng.uniform(0.5, 0.92))
        comp.repair_profile(reduced.Profile(knots=t, r=r, body=body,
                                            omega=-0.5 * tension.f_eN), epsilon=2.0)
    assert len(solves) >= 12
    for args, params in solves:
        grid, scans = cap_residual_scan(*args)
        up = 1.0 if params.side == "+" else -1.0
        counts = [len(crossings(vals)) for _, vals in scans]
        k = next(i for i, n in enumerate(counts) if n)
        assert counts[k] == 1
        assert all(not comp._brackets(vals[0], vals[-1]) for _, vals in scans[:k])
        sign, vals = scans[k]
        cell = crossings(vals)[0]
        assert grid[cell] <= up * params.sigma <= grid[cell + 1]
        assert math.copysign(1.0, up * params.z_cut) == sign


def test_a_far_slice_wider_than_the_cut_solves_past_the_peak(pnorm3_body):
    # Below the dent the profile narrows (ratio > 1 on side "-"): with the
    # far cut on sigma's side of the peak the residual keeps one sign
    # across the interval, and the cut past the peak solves.  The scan runs
    # in the reflected frame, where sigma's side is -.
    prof = dented_profile(pnorm3_body)
    t1, t2 = float(prof.knots[1]), float(prof.knots[3])
    grid, [(first, near), (second, far)] = cap_residual_scan(prof, t1, t2, "-")
    assert first == -1.0 and len(crossings(near)) == 0
    assert not comp._brackets(near[0], near[-1])
    params = comp.solve_params(prof, t1, t2, "-")
    cell = crossings(far)[0]
    assert grid[cell] <= -params.sigma <= grid[cell + 1]
    assert params.z_cut < 0.0
    assert params.volume_match_error <= 1e-12
    assert params.slice_match_error <= 1e-12


@pytest.mark.parametrize("nan_signs", [(-1.0,), (-1.0, 1.0)])
def test_a_nan_end_brackets_nothing(monkeypatch, pnorm3_body, nan_signs):
    # Caps whose far cut lies on the NaN signs' side (in the reflected
    # frame of side "-", whose first sign is -) give NaN radii, so the
    # residual is NaN at both ends of those signs' intervals: solve_params
    # passes to the next sign, or raises NoBracket, never brentq's
    # ValueError.
    prof = dented_profile(pnorm3_body)
    t1, t2 = float(prof.knots[1]), float(prof.knots[3])
    unit_cap = comp._unit_cap

    def nan_cap(fa, sigma, z_cut):
        zs, rs = unit_cap(fa, sigma, z_cut)
        return zs, rs * math.nan if math.copysign(1.0, z_cut) in nan_signs else rs

    expected = comp.solve_params(prof, t1, t2, "-")
    monkeypatch.setattr(comp, "_unit_cap", nan_cap)
    if len(nan_signs) == 1:
        assert comp.solve_params(prof, t1, t2, "-").sigma == expected.sigma
    else:
        with pytest.raises(NoBracket, match="never crosses zero"):
            comp.solve_params(prof, t1, t2, "-")


@pytest.mark.parametrize("family,kw", [
    ("euclid", {}), ("pnorm", {"p": 3.0}), ("weighted", {"c": 2.0})])
def test_equal_end_slices_give_mirrored_caps(family, kw):
    # A dented cylinder, r(t1) == r(t2): K is even in x_N, so the lower cap
    # is the upper cap reflected, bit for bit.
    tension = make_tension(family, **kw)
    t = np.linspace(0.0, 1.0, 41)
    r = np.ones_like(t)
    r[12:20] *= 0.8
    prof = reduced.Profile(knots=t, r=r, body=build_wulff_body(tension, 1024),
                           omega=-0.5 * tension.f_eN)
    t1, t2 = float(t[11]), float(t[20])
    up = comp.solve_params(prof, t1, t2, "+")
    down = comp.solve_params(prof, t1, t2, "-")
    assert down.sigma == -up.sigma
    assert down.z_cut == -up.z_cut
    assert down.b == up.b
    assert np.array_equal(down.rs[::-1], up.rs)
    assert np.all(np.diff(down.ts) > 0) and down.ts[-1] == t2
    np.testing.assert_allclose(t2 - down.ts[::-1], up.ts - t1, rtol=0, atol=1e-15)
    assert t2 - down.tau == pytest.approx(up.tau - t1, abs=1e-15)


# ---------------------------------------------------------------------------
# compare_surface_energy
# ---------------------------------------------------------------------------

def test_compare_energy_fixed_point_equality(euclid, euclid_body):
    prof = wulff_cap_profile(euclid, euclid_body, -0.2)
    params = comp.solve_params(prof, 0.3, 0.8, "+")
    cap_e, orig_e = comp.compare_surface_energy(prof, params)
    assert cap_e <= orig_e + 1e-8
    assert cap_e == pytest.approx(orig_e, abs=2e-5)  # PL sampling level


def test_compare_energy_dented_strict_decrease(euclid, euclid_body):
    rng = np.random.default_rng(17)
    for _ in range(50):
        lo = int(rng.integers(6, 24))
        prof = dented_profile(euclid_body, lo=lo,
                              hi=lo + int(rng.integers(4, 10)),
                              factor=float(rng.uniform(0.55, 0.85)))
        witness = comp.find_nonconvexity(prof, epsilon=2.0)
        t1, t2 = witness
        side = "+" if prof.interp(t1) <= prof.interp(t2) else "-"
        params = comp.solve_params(prof, t1, t2, side)
        cap_e, orig_e = comp.compare_surface_energy(prof, params)
        assert cap_e < orig_e


def test_compare_energy_conical_notch(euclid, euclid_body):
    # Hemisphere with a conical notch: the spherical cap has smaller area
    # than the cone over the same base/top slices (closed-form comparison).
    t = np.linspace(0.0, 1.0, 201)
    r = np.sqrt(np.maximum(1 - t**2, 0.0))
    t1, t2 = 0.2, 0.7
    inside = (t > t1) & (t < t2)
    chordless = np.interp(t, [t1, t2],
                          [math.sqrt(1 - t1**2), math.sqrt(1 - t2**2)])
    r[inside] = np.minimum(r[inside], chordless[inside] * 0.94)
    prof = reduced.Profile(knots=t, r=r, body=euclid_body, omega=-0.5)
    params = comp.solve_params(prof, t1, t2, "-")
    cap_e, orig_e = comp.compare_surface_energy(prof, params)
    assert cap_e < orig_e


# ---------------------------------------------------------------------------
# find_nonconvexity
# ---------------------------------------------------------------------------

def test_find_nonconvexity_direct_violation(euclid, euclid_body):
    prof = reduced.Profile(knots=np.array([0.0, 0.5, 1.0]),
                           r=np.array([1.0, 0.2, 0.6]),
                           body=euclid_body, omega=-0.5)
    witness = comp.find_nonconvexity(prof, epsilon=2.0)
    assert witness is not None
    t1, t2 = witness
    chord = np.interp(0.5, [t1, t2], [prof.interp(t1), prof.interp(t2)])
    assert prof.interp(0.5) < chord


def test_find_nonconvexity_concave_none(euclid, euclid_body):
    prof = hemisphere_profile(euclid_body)
    assert comp.find_nonconvexity(prof, epsilon=1.0) is None
    t = np.linspace(0.0, 1.0, 33)
    conc = reduced.Profile(knots=t, r=1.0 - t**2, body=euclid_body, omega=-0.5)
    assert comp.find_nonconvexity(conc, epsilon=1.0) is None


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan])
def test_epsilon_is_checked_on_entry(euclid_body, epsilon):
    # A concave profile has no violation to sweep, yet an epsilon that is
    # not positive is still an input error.
    prof = hemisphere_profile(euclid_body)
    with pytest.raises(InvalidInput, match="epsilon must be positive"):
        comp.find_nonconvexity(prof, epsilon=epsilon)
    with pytest.raises(InvalidInput, match="epsilon must be positive"):
        comp.repair_profile(prof, epsilon=epsilon)


def test_find_nonconvexity_epsilon_shrink(euclid, euclid_body):
    prof = dented_profile(euclid_body, lo=12, hi=20, factor=0.7)
    witness = comp.find_nonconvexity(prof, epsilon=1e-3)
    assert witness is not None
    t1, t2 = witness
    assert t2 - t1 < 1e-3
    # The returned pair still satisfies the strict chord hypothesis.
    mid = 0.5 * (t1 + t2)
    chord = np.interp(mid, [t1, t2], [prof.interp(t1), prof.interp(t2)])
    assert prof.interp(mid) < chord


def witness_profiles(body):
    """Four dents of the 41-knot quarter circle, one of a 61-knot one on
    apex-clustered knots, and a line with a 2e-11 kink on spans of 1e-6,
    1e-7 and 1e-8, where the chord deficit is at rounding level."""
    t = np.linspace(0.0, 1.0, 41)
    for lo, hi, factor in ((12, 20, 0.75), (4, 7, 0.5), (25, 34, 0.9), (30, 38, 0.6)):
        r = np.sqrt(np.maximum(1.0 - t**2, 0.0))
        r[lo:hi] *= factor
        yield reduced.Profile(knots=t, r=r, body=body, omega=-0.5)
    t = np.sin(0.5 * np.pi * np.linspace(0.0, 1.0, 61))
    r = np.sqrt(np.maximum(1.0 - t**2, 0.0))
    r[20:30] *= 0.8
    yield reduced.Profile(knots=t, r=r, body=body, omega=-0.5)
    for h in (1e-6, 1e-7, 1e-8):
        t = np.array([0.0, 1.0, 1.0 + h, 1.0 + 2.0 * h, 2.0])
        r = 2.0 - 0.5 * t
        r[3:] += 2e-11 * (t[3:] - t[2])
        yield reduced.Profile(knots=t, r=r, body=body, omega=-0.5)


WITNESS_EPSILONS = (2.0, 0.3, 1e-2, 1e-4, 1e-9)

# find_nonconvexity of each witness profile at each epsilon, as float.hex
# pairs, taken from the sweep that scanned superlevel sets knot by knot.
GOLDEN_WITNESSES = [
    [("0x1.199999999999ap-2", "0x1.4cccccccccccdp-2"),
     ("0x1.199999999999ap-2", "0x1.4cccccccccccdp-2"),
     ("0x1.3000000000001p-2", "0x1.3666666666667p-2"),
     ("0x1.3326666666667p-2", "0x1.3340000000001p-2"),
     ("0x1.3333332cccccep-2", "0x1.333333399999ap-2")],
    [("0x1.3333333333334p-4", "0x1.0000000000000p-3"),
     ("0x1.3333333333334p-4", "0x1.0000000000000p-3"),
     ("0x1.8cccccccccccdp-4", "0x1.a666666666667p-4"),
     ("0x1.9966666666667p-4", "0x1.99ccccccccccdp-4"),
     ("0x1.9999998000000p-4", "0x1.999999b333334p-4")],
    [("0x1.3333333333334p-1", "0x1.4cccccccccccdp-1"),
     ("0x1.3333333333334p-1", "0x1.4cccccccccccdp-1"),
     ("0x1.3e66666666666p-1", "0x1.419999999999ap-1"),
     ("0x1.3ff999999999ap-1", "0x1.4006666666666p-1"),
     ("0x1.3ffffffcccccdp-1", "0x1.4000000333333p-1")],
    [("0x1.7333333333334p-1", "0x1.8cccccccccccdp-1"),
     ("0x1.7333333333334p-1", "0x1.8cccccccccccdp-1"),
     ("0x1.7e66666666666p-1", "0x1.819999999999ap-1"),
     ("0x1.7ff999999999ap-1", "0x1.8006666666666p-1"),
     ("0x1.7ffffffcccccdp-1", "0x1.8000000333333p-1")],
    [("0x1.e89c4e59427b1p-2", "0x1.0b84ee8f52e9cp-1"),
     ("0x1.e89c4e59427b1p-2", "0x1.0b84ee8f52e9cp-1"),
     ("0x1.fd1389cb284f5p-2", "0x1.01709dd1ea5d3p-1"),
     ("0x1.fff44e272ca13p-2", "0x1.0005c27747a97p-1"),
     ("0x1.fffffffa27138p-2", "0x1.00000002e13bap-1")],
    [("0x1.000010c6f7a0bp+0", "0x1.0000000000000p+1"),
     ("0x1.00001d5c31594p+0", "0x1.4000192a73711p+0"),
     ("0x1.0000216c61522p+0", "0x1.0200214ad362ep+0"),
     ("0x1.0000218dac259p+0", "0x1.0004218d6909cp+0"),
     ("0x1.0000218def413p+0", "0x1.00002191ef40ep+0")],
    [("0x1.0000000000000p+0", "0x1.0000035afe535p+0"),
     ("0x1.0000000000000p+0", "0x1.0000035afe535p+0"),
     ("0x1.0000000000000p+0", "0x1.0000035afe535p+0"),
     ("0x1.0000000000000p+0", "0x1.0000035afe535p+0"),
     ("0x1.000001abd1aa8p+0", "0x1.000001af2ca8ep+0")],
    [("0x1.0000000000000p+0", "0x1.00000055e63b9p+0"),
     ("0x1.0000000000000p+0", "0x1.00000055e63b9p+0"),
     ("0x1.0000000000000p+0", "0x1.00000055e63b9p+0"),
     ("0x1.0000000000000p+0", "0x1.00000055e63b9p+0"),
     None],
]


def test_find_nonconvexity_matches_the_golden_witnesses(euclid_body):
    got = [[None if w is None else (w[0].hex(), w[1].hex())
            for w in (comp.find_nonconvexity(prof, eps) for eps in WITNESS_EPSILONS)]
           for prof in witness_profiles(euclid_body)]
    assert got == [[None if w is None else tuple(w) for w in row]
                   for row in GOLDEN_WITNESSES]


# ---------------------------------------------------------------------------
# apply_competitor
# ---------------------------------------------------------------------------

def test_apply_competitor_case1(euclid, euclid_body):
    # Dent in the rising part of an omega > 0 drop: r(t1) < r(t2).
    t = np.linspace(0.0, 1.4, 57)
    r = np.sqrt(np.maximum(1 - (t - 0.4) ** 2, 0.0))
    r[8:14] *= 0.8
    prof = reduced.Profile(knots=t, r=r, body=euclid_body, omega=0.3)
    witness = comp.find_nonconvexity(prof, epsilon=1.0)
    t1, t2 = witness
    assert prof.interp(t1) < prof.interp(t2)
    out = comp.apply_competitor(prof, t1, t2)
    assert out.meta["params"].side == "+"
    assert out.meta["energy_drop"] > 1e-10
    assert out.meta["volume_error"] <= 1e-8 * (1 + reduced.reduced_volume(prof))


def test_apply_competitor_case2(euclid, euclid_body):
    prof = dented_profile(euclid_body, lo=12, hi=20, factor=0.75)
    witness = comp.find_nonconvexity(prof, epsilon=0.5)
    t1, t2 = witness
    assert prof.interp(t1) > prof.interp(t2)
    out = comp.apply_competitor(prof, t1, t2)
    assert out.meta["params"].side == "-"
    assert out.meta["energy_drop"] > 1e-10
    assert out.meta["volume_error"] <= 1e-8 * (1 + reduced.reduced_volume(prof))


@pytest.mark.parametrize("family", ["euclid", "pnorm3", "weighted2"])
def test_repair_splices_the_cap_of_its_params(request, family):
    # The cap the parameter solve sampled is the one spliced in, bit for bit:
    # in place for side "+", moved down by tau - t1 for side "-".  The first
    # five repairs of the dent take both sides, on caps whose knots lie far
    # more than the 1e-13 merge distance apart.
    prof = dented_profile(build_wulff_body(request.getfixturevalue(family), 1024))
    sides = set()
    for _ in range(5):
        out = comp.repair_profile(prof)
        params = out.meta["params"]
        ts = params.ts if params.side == "+" else params.ts - (params.tau - params.t1)
        i = int(np.searchsorted(out.knots, ts[0]))
        assert np.array_equal(out.knots[i:i + len(ts)], ts)
        assert np.array_equal(out.r[i:i + len(ts)], params.rs)
        sides.add(params.side)
        prof = out
    assert sides == {"+", "-"}


def test_apply_competitor_concave_raises(euclid, euclid_body):
    prof = hemisphere_profile(euclid_body)
    with pytest.raises(HypothesisViolated):
        comp.apply_competitor(prof, 0.3, 0.6)


def test_repeated_repair_restores_concavity(euclid, euclid_body):
    prof = dented_profile(euclid_body)
    e0 = reduced.reduced_energy(prof).total
    current = prof
    for _ in range(16):
        witness = comp.find_nonconvexity(current, epsilon=2.0)
        if witness is None:
            break
        try:
            current = comp.apply_competitor(current, witness[0], witness[1])
        except comp.CompetitorFailure:
            break
    assert current.concavity_defect() <= 1e-7
    assert reduced.reduced_energy(current).total < e0
    assert reduced.reduced_volume(current) == pytest.approx(
        reduced.reduced_volume(prof), rel=1e-7)


@pytest.mark.parametrize("h,kink", [(1e-9, 1e-11), (1e-6, 1e-9), (1e-5, 3e-11)])
def test_repair_passes_over_a_rounding_level_worst_violation(euclid_body, h, kink):
    # The line r = 2 - t/2 on knots (0, 1, 1 + h, 1 + 2h, 2), its slope
    # raised by a tiny kink at t = 1.  Rounding leaves violations with
    # relative deficits of 1e-16 to 6e-16, far below MIN_DEFICIT, and no
    # cap fits the worst of them: the profile is concave to rounding.
    t = np.array([0.0, 1.0, 1.0 + h, 1.0 + 2.0 * h, 2.0])
    r = 2.0 - t / 2.0
    r[1:] += kink * (t[1:] - 1.0)
    prof = reduced.Profile(knots=t, r=r, body=euclid_body, omega=-0.5)
    _, deficits = comp._violations(prof)
    assert 0 < deficits[0] <= 1e-15
    assert comp.repair_profile(prof) is None


@pytest.mark.parametrize("omega", [-0.5, 0.3])
def test_repair_keeps_the_body_and_omega_of_its_profile(pnorm3_body, omega):
    # The repair takes its tension and omega from the profile, and its
    # energy drop is measured under that omega.
    prof = dented_profile(pnorm3_body, omega=omega)
    out = comp.repair_profile(prof)
    assert out.body is prof.body and out.omega == omega
    assert out.tension is pnorm3_body.tension
    drop = reduced.reduced_energy(prof).total - reduced.reduced_energy(out).total
    assert out.meta["energy_drop"] == drop > comp.MIN_ENERGY_DROP


@pytest.mark.parametrize("family,kw", [("euclid", {}), ("pnorm", {"p": 3.0}),
                                       ("weighted", {"c": 2.0})])
def test_lateral_energy_of_a_closed_profile_is_its_surface_energy(family, kw):
    # One lateral quadrature: with no flat top, F_s is the lateral energy.
    prof = dented_profile(build_wulff_body(make_tension(family, **kw), 1024))
    assert prof.r[-1] == 0.0
    assert comp.lateral_energy_between(prof, 0.0, prof.t_max) == \
        reduced.reduced_energy(prof).Fs


def test_section_volume_and_lateral_energy(euclid, euclid_body):
    prof = hemisphere_profile(euclid_body, n=4001)
    # |ball cap between t1 and t2| = |K| int (1 - t^2) dt.
    t1, t2 = 0.2, 0.7
    exact = euclid_body.area * ((t2 - t2**3 / 3) - (t1 - t1**3 / 3))
    assert comp.section_volume(prof, t1, t2) == pytest.approx(exact, rel=1e-6)
    # Lateral energy of the unit sphere band: 2 pi (t2 - t1) (times |K|/pi).
    band = comp.lateral_energy_between(prof, t1, t2)
    assert band == pytest.approx(2.0 * euclid_body.area * (t2 - t1), rel=1e-5)
