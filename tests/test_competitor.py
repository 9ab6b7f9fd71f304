import math

import numpy as np
import pytest

from wulffdrop import competitor as comp
from wulffdrop import reduced
from wulffdrop.errors import HypothesisViolated, SigmaOutOfRange
from wulffdrop.tension import make_tension
from wulffdrop._quad import slab_volume
from wulffdrop.wulff import alpha_table, build_wulff_body, wulff_alpha

from conftest import hemisphere_profile


def wulff_cap_profile(tension, body, sigma_base, n=513, omega=-0.5):
    """Profile of the Wulff shape truncated at sigma_base (b = 1)."""
    hi = tension.f_eN
    xi = np.linspace(0.0, 1.0, n)
    z = sigma_base + (hi - sigma_base) * np.sin(0.5 * math.pi * xi)
    return reduced.Profile(knots=z - sigma_base, r=wulff_alpha(tension, z),
                           tension=tension, body=body, omega=omega)


def dented_profile(body, omega=-0.5, lo=12, hi=20, factor=0.75):
    t = np.linspace(0.0, 1.0, 41)
    r = np.sqrt(np.maximum(1.0 - t**2, 0.0))
    r[lo:hi] *= factor
    return reduced.Profile(knots=t, r=r, tension=body.tension, body=body,
                           omega=omega)


# ---------------------------------------------------------------------------
# cap_profile
# ---------------------------------------------------------------------------

def test_cap_profile_upper_hemisphere(euclid, euclid_body):
    seg = comp.cap_profile(euclid, "+", 0.0, 2.0, euclid_body.area,
                           body=euclid_body)
    assert seg.b == pytest.approx(1.0, rel=1e-9)
    assert seg.ts[0] == pytest.approx(2.0)
    assert seg.ts[-1] == pytest.approx(3.0)  # anchored unit hemisphere
    mid = np.searchsorted(seg.ts, 2.5)
    assert seg.rs[mid] == pytest.approx(
        math.sqrt(1 - (seg.ts[mid] - 2.0) ** 2), abs=1e-9)


def test_cap_profile_sigma06(euclid, euclid_body):
    v_anchor = 0.64 * euclid_body.area  # alpha(0.6)^2 |K_h|
    seg = comp.cap_profile(euclid, "+", 0.6, 0.0, v_anchor, body=euclid_body)
    assert seg.b == pytest.approx(1.0, rel=1e-9)
    assert seg.ts[-1] - seg.ts[0] == pytest.approx(0.4, abs=1e-9)


def test_cap_profile_vanishes_at_top(euclid, euclid_body):
    v = euclid_body.area * wulff_alpha(euclid, 0.999) ** 2
    seg = comp.cap_profile(euclid, "+", 0.999, 0.0, v, body=euclid_body)
    vol = slab_volume(euclid_body.area, seg.ts, seg.rs, 2)
    assert vol < 1e-4


@pytest.mark.parametrize("side", ["+", "-"])
def test_stacked_caps_match_single_caps(pnorm3, side):
    # The sigma scan samples every cap of its grid in one array; each row
    # must be the cap and the volume that the root solve sees for it.
    fa = alpha_table(pnorm3)
    sigma = np.linspace(fa.t_bot + 0.1, fa.peak, 9)
    z_cut = np.full(9, fa.t_top - 0.05 if side == "+" else fa.t_bot + 0.01)
    b = 0.7 / fa(sigma)
    ts, rs = comp._sample_cap(pnorm3, b, 0.2, sigma, z_cut, side)
    vols = slab_volume(3.0, ts, rs, 2)
    assert ts.shape == rs.shape == (9, comp.CAP_SAMPLES)
    for k in range(9):
        ts1, rs1 = comp._sample_cap(pnorm3, b[k], 0.2, sigma[k], z_cut[k], side)
        assert np.array_equal(ts1, ts[k]) and np.array_equal(rs1, rs[k])
        assert slab_volume(3.0, ts1, rs1, 2) == vols[k]


def test_cap_profile_sigma_validation(euclid, euclid_body):
    with pytest.raises(SigmaOutOfRange):
        comp.cap_profile(euclid, "+", 1.5, 0.0, 1.0, body=euclid_body)


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
    prof = reduced.Profile(knots=t, r=r, tension=euclid, body=euclid_body,
                           omega=-0.5)
    params = comp.solve_params(prof, t1, t2, "-")
    cap_e, orig_e = comp.compare_surface_energy(prof, params)
    assert cap_e < orig_e


# ---------------------------------------------------------------------------
# find_nonconvexity
# ---------------------------------------------------------------------------

def test_find_nonconvexity_direct_violation(euclid, euclid_body):
    prof = reduced.Profile(knots=np.array([0.0, 0.5, 1.0]),
                           r=np.array([1.0, 0.2, 0.6]),
                           tension=euclid, body=euclid_body, omega=-0.5)
    witness = comp.find_nonconvexity(prof, epsilon=2.0)
    assert witness is not None
    t1, t2 = witness
    chord = np.interp(0.5, [t1, t2], [prof.interp(t1), prof.interp(t2)])
    assert prof.interp(0.5) < chord


def test_find_nonconvexity_concave_none(euclid, euclid_body):
    prof = hemisphere_profile(euclid_body)
    assert comp.find_nonconvexity(prof, epsilon=1.0) is None
    t = np.linspace(0.0, 1.0, 33)
    conc = reduced.Profile(knots=t, r=1.0 - t**2, tension=euclid,
                           body=euclid_body, omega=-0.5)
    assert comp.find_nonconvexity(conc, epsilon=1.0) is None


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


# ---------------------------------------------------------------------------
# apply_competitor
# ---------------------------------------------------------------------------

def test_apply_competitor_case1(euclid, euclid_body):
    # Dent in the rising part of an omega > 0 drop: r(t1) < r(t2).
    t = np.linspace(0.0, 1.4, 57)
    r = np.sqrt(np.maximum(1 - (t - 0.4) ** 2, 0.0))
    r[8:14] *= 0.8
    prof = reduced.Profile(knots=t, r=r, tension=euclid, body=euclid_body,
                           omega=0.3)
    witness = comp.find_nonconvexity(prof, epsilon=1.0)
    t1, t2 = witness
    assert prof.interp(t1) < prof.interp(t2)
    out = comp.apply_competitor(prof, t1, t2, euclid, 0.3)
    assert out.meta["params"].side == "+"
    assert out.meta["energy_drop"] > 1e-10
    assert out.meta["volume_error"] <= 1e-8 * (1 + reduced.reduced_volume(prof))


def test_apply_competitor_case2(euclid, euclid_body):
    prof = dented_profile(euclid_body, lo=12, hi=20, factor=0.75)
    witness = comp.find_nonconvexity(prof, epsilon=0.5)
    t1, t2 = witness
    assert prof.interp(t1) > prof.interp(t2)
    out = comp.apply_competitor(prof, t1, t2, euclid, -0.5)
    assert out.meta["params"].side == "-"
    assert out.meta["energy_drop"] > 1e-10
    assert out.meta["volume_error"] <= 1e-8 * (1 + reduced.reduced_volume(prof))


def test_apply_competitor_concave_raises(euclid, euclid_body):
    prof = hemisphere_profile(euclid_body)
    with pytest.raises(HypothesisViolated):
        comp.apply_competitor(prof, 0.3, 0.6, euclid, -0.5)


def test_repeated_repair_restores_concavity(euclid, euclid_body):
    prof = dented_profile(euclid_body)
    e0 = reduced.reduced_energy(prof).total
    current = prof
    for _ in range(16):
        witness = comp.find_nonconvexity(current, epsilon=2.0)
        if witness is None:
            break
        try:
            current = comp.apply_competitor(current, witness[0], witness[1],
                                            euclid, -0.5)
        except comp.CompetitorFailure:
            break
    assert current.concavity_defect() <= 1e-7
    assert reduced.reduced_energy(current).total < e0
    assert reduced.reduced_volume(current) == pytest.approx(
        reduced.reduced_volume(prof), rel=1e-7)


def test_section_volume_and_lateral_energy(euclid, euclid_body):
    prof = hemisphere_profile(euclid_body, n=4001)
    # |ball cap between t1 and t2| = |K| int (1 - t^2) dt.
    t1, t2 = 0.2, 0.7
    exact = euclid_body.area * ((t2 - t2**3 / 3) - (t1 - t1**3 / 3))
    assert comp.section_volume(prof, t1, t2) == pytest.approx(exact, rel=1e-6)
    # Lateral energy of the unit sphere band: 2 pi (t2 - t1) (times |K|/pi).
    band = comp.lateral_energy_between(prof, t1, t2)
    assert band == pytest.approx(2.0 * euclid_body.area * (t2 - t1), rel=1e-5)
