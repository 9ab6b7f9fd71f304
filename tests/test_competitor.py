import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from wulffdrop import competitor as comp
from wulffdrop import reduced
from wulffdrop.errors import HypothesisViolated, InvalidInput
from wulffdrop.tension import make_tension
from wulffdrop._quad import slab_volume
from wulffdrop.wulff import alpha_table, build_wulff_body

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
# Cap profiles (``_sample_cap``, the one cap sampler)
# ---------------------------------------------------------------------------

def test_cap_profile_upper_hemisphere(euclid):
    # The unit ball above sigma = 0, anchored at t = 2, cut at the pole.
    ts, rs = comp._sample_cap(euclid, 1.0, 2.0, 0.0, alpha_table(euclid).t_top, "+")
    assert ts[0] == pytest.approx(2.0)
    assert ts[-1] == pytest.approx(3.0)  # anchored unit hemisphere
    mid = np.searchsorted(ts, 2.5)
    assert rs[mid] == pytest.approx(math.sqrt(1 - (ts[mid] - 2.0) ** 2), abs=1e-9)


def test_cap_profile_sigma06(euclid):
    ts, rs = comp._sample_cap(euclid, 1.0, 0.0, 0.6, alpha_table(euclid).t_top, "+")
    assert rs[0] == pytest.approx(0.8, rel=1e-9)  # alpha(0.6)
    assert ts[-1] - ts[0] == pytest.approx(0.4, abs=1e-9)


def test_cap_profile_vanishes_at_top(euclid, euclid_body):
    ts, rs = comp._sample_cap(euclid, 1.0, 0.0, 0.999, alpha_table(euclid).t_top, "+")
    assert rs[0] == pytest.approx(alpha_table(euclid)(0.999), rel=1e-9)
    assert slab_volume(euclid_body.area, ts, rs, 2) < 1e-4


def test_cap_profile_lower_side(pnorm3):
    sigma, t_anchor = 0.3, 1.5
    fa = alpha_table(pnorm3)
    b = 0.7 / fa(sigma)  # a cut slice of radius 0.7
    ts, rs = comp._sample_cap(pnorm3, b, t_anchor, sigma, fa.t_bot, "-")
    # Anchored from above: the heights rise to the cut at t_anchor.
    assert np.all(np.diff(ts) > 0)
    assert ts[-1] == pytest.approx(t_anchor, abs=1e-12)
    assert ts[0] == pytest.approx(t_anchor - b * (sigma - fa.t_bot), abs=1e-12)
    # The cut slice has radius 0.7; the cap vanishes at the bottom pole.
    assert rs[-1] == pytest.approx(0.7, rel=1e-12)
    assert rs[0] == 0.0


@pytest.mark.parametrize("side", ["+", "-"])
def test_stacked_caps_match_single_caps(pnorm3, side):
    # The sigma scan samples every cap of its grid in one array; each row
    # must be the cap and the volume that the root solve sees for it.
    fa = alpha_table(pnorm3)
    sigma = np.linspace(fa.t_bot + 0.1, 0.0, 9)
    z_cut = np.full(9, fa.t_top - 0.05 if side == "+" else fa.t_bot + 0.01)
    b = 0.7 / fa(sigma)
    ts, rs = comp._sample_cap(pnorm3, b, 0.2, sigma, z_cut, side)
    vols = slab_volume(3.0, ts, rs, 2)
    assert ts.shape == rs.shape == (9, comp.CAP_SAMPLES)
    for k in range(9):
        ts1, rs1 = comp._sample_cap(pnorm3, b[k], 0.2, sigma[k], z_cut[k], side)
        assert np.array_equal(ts1, ts[k]) and np.array_equal(rs1, rs[k])
        assert slab_volume(3.0, ts1, rs1, 2) == vols[k]

    # Two consecutive scans through this thread's workspace, on both sides
    # and at two far-slice ratios, write the rows that fresh scalar calls
    # return.  The far cut lies past the peak, as solve_params puts it.
    cap, slabs = comp._scan_buffers()
    other = "-" if side == "+" else "+"
    for scan_side, ratio in ((side, 0.8), (other, 0.35)):
        sigma = (np.linspace(fa.t_bot + 0.1, -0.05, comp.SCAN_POINTS + 1)
                 if scan_side == "+" else
                 np.linspace(0.05, fa.t_top - 0.1, comp.SCAN_POINTS + 1))
        past = 1.0 if scan_side == "+" else -1.0
        z_cut = past * fa.inverse(fa(sigma) * ratio)
        b = 0.7 / fa(sigma)
        ts, rs = comp._sample_cap(pnorm3, b, 0.2, sigma, z_cut, scan_side, out=cap)
        vols = slab_volume(3.0, ts, rs, 2, out=slabs)
        assert ts is cap[0] and rs is cap[1]
        for k in range(len(sigma)):
            ts1, rs1 = comp._sample_cap(pnorm3, b[k], 0.2, sigma[k], z_cut[k], scan_side)
            assert ts1.tobytes() == ts[k].tobytes() and rs1.tobytes() == rs[k].tobytes()
            assert slab_volume(3.0, ts1, rs1, 2).hex() == float(vols[k]).hex()


def test_scan_workspace_is_kept_per_thread():
    mine = comp._scan_buffers()
    assert comp._scan_buffers() is mine
    with ThreadPoolExecutor(max_workers=1) as pool:
        theirs = pool.submit(comp._scan_buffers).result()
    mine, theirs = ([a for pair in w for a in pair] for w in (mine, theirs))
    assert not any(np.shares_memory(a, b) for a in mine for b in theirs)


def test_sign_changes_match_the_product_test_without_underflow():
    # Cells whose ends differ in sign or touch zero, as vals[:-1] * vals[1:]
    # <= 0 selects them; NaN never counts.  Where that product underflows,
    # only the signs decide.
    rng = np.random.default_rng(3)
    vals = rng.choice([-2.0, -0.5, -0.0, 0.0, 0.5, 3.0, np.nan], size=4000)
    with np.errstate(invalid="ignore"):
        assert np.array_equal(comp._sign_changes(vals), vals[:-1] * vals[1:] <= 0.0)
    tiny = np.array([1e-200, 2e-200, -1e-200, -3e-200, 0.0, 1e-300])
    assert comp._sign_changes(tiny).tolist() == [False, True, False, True, True]


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
