import math
import signal

import numpy as np
import pytest
from scipy.special import gamma

from wulffdrop.errors import DimensionUnsupported
from wulffdrop.sets import random_convex_polygon
from wulffdrop.tension import make_tension
from wulffdrop.wulff import (
    alpha_table,
    build_wulff_body,
    halfplane_polygon,
    polygon_edges,
    vertical_extent,
    wulff_alpha,
    wulff_alpha_slope,
    wulff_profile,
)


def test_euclid_body_is_disk(euclid_body):
    assert euclid_body.area == pytest.approx(math.pi, rel=1e-3)
    assert euclid_body.aniso_perimeter == pytest.approx(2 * math.pi, rel=1e-3)
    assert euclid_body.lam == pytest.approx(2.0, abs=1e-12)


def test_l1_body_is_square():
    t = make_tension("euclid", h_family="lp", h_p=1.0)
    body = build_wulff_body(t, 1024)
    assert body.area == pytest.approx(4.0, rel=1e-12)
    assert body.aniso_perimeter == pytest.approx(8.0, rel=1e-12)
    assert body.lam == pytest.approx(2.0, rel=1e-12)


def test_l3_body_area_matches_dual_ball_quadrature():
    # K_h for h = l_3 is the dual l_1.5 ball; its area has a closed Gamma
    # form |{x : |x|_q <= 1}| = (2 Gamma(1 + 1/q))^2 / Gamma(1 + 2/q).
    t = make_tension("euclid", h_family="lp", h_p=3.0)
    body = build_wulff_body(t, 1024)
    q = 1.5
    exact = (2 * gamma(1 + 1 / q)) ** 2 / gamma(1 + 2 / q)
    assert body.area == pytest.approx(exact, rel=1e-3)


def test_edges_lie_on_support_planes(euclid_body):
    assert np.max(np.abs(euclid_body.edge_supports - euclid_body.edge_h)) <= 1e-9


def test_body_is_convex(euclid_body):
    v = euclid_body.geometry
    e = np.roll(v, -1, axis=0) - v
    cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    assert np.all(cross > -1e-12)


def test_monotone_refinement(euclid):
    areas, perims = [], []
    for m in (128, 256, 512, 1024):
        b = build_wulff_body(euclid, m)
        areas.append(b.area)
        perims.append(b.aniso_perimeter)
    # Cauchy differences shrink by at least 2x per doubling.
    da = np.abs(np.diff(areas))
    dp = np.abs(np.diff(perims))
    assert np.all(da[1:] <= da[:-1] / 2.0)
    assert np.all(dp[1:] <= dp[:-1] / 2.0)


@pytest.mark.parametrize("h_family,kw", [
    ("lp", {"h_p": 2.0}), ("lp", {"h_p": 3.0}), ("l1reg", {"h_eps": 0.05}),
])
def test_lambda_identity_at_4096(h_family, kw):
    t = make_tension("euclid", h_family=h_family, **kw)
    body = build_wulff_body(t, 4096)
    assert abs(body.lam - 2.0) <= 5e-3


@pytest.mark.parametrize("m", [8, 1024, 4096])
def test_lp2_body_is_the_regular_polygon(euclid, m):
    body = build_wulff_body(euclid, m)
    assert len(body.geometry) == m
    radii = np.linalg.norm(body.geometry, axis=1)
    assert np.max(np.abs(radii * math.cos(math.pi / m) - 1.0)) <= 1e-12
    assert body.area == pytest.approx(m * math.tan(math.pi / m), rel=1e-14)
    # Edge 0 lies on the first normal, theta = 0.
    assert np.max(np.abs(body.edge_normals[0] - [1.0, 0.0])) <= 1e-12


def test_halfplane_polygon_drops_redundant_and_rejects_unbounded():
    normals = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0],
                        [math.sqrt(0.5), math.sqrt(0.5)]])
    poly = halfplane_polygon(normals, np.array([1.0, 1.0, 1.0, 1.0, 3.0]))
    assert poly.tolist() == [[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]]
    # Normals confined to a half circle leave the set unbounded.
    theta = np.linspace(0.0, 0.9 * math.pi, 7)
    normals = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    with pytest.raises(ValueError):
        halfplane_polygon(normals, np.ones(7))


def test_edge_supports_match_the_vertex_maximum():
    rng = np.random.default_rng(11)
    for _ in range(200):
        poly = random_convex_polygon(rng, int(rng.integers(3, 13)))
        _, normals, supports = polygon_edges(poly)
        oracle = np.max(poly @ normals.T, axis=0)
        assert np.max(np.abs(supports - oracle)) <= 1e-14 * np.max(np.abs(poly))


def test_bodies_are_cached_and_read_only(euclid):
    body = build_wulff_body(euclid, 1024)
    assert build_wulff_body(euclid, 1024) is body
    assert build_wulff_body(make_tension("euclid"), 1024) is body
    with pytest.raises(ValueError):
        body.geometry[0, 0] = 0.0
    with pytest.raises(ValueError):
        body.edge_h[0] = 0.0


def test_dimension_guards(euclid):
    with pytest.raises(ValueError):
        build_wulff_body(euclid, 4)
    t4 = make_tension("euclid", dim=4)
    with pytest.raises(DimensionUnsupported):
        build_wulff_body(t4)


def test_interval_body_n2():
    t = make_tension("euclid", dim=2)
    body = build_wulff_body(t)
    assert body.d == 1
    assert body.area == pytest.approx(2.0)
    assert body.lam == pytest.approx(1.0)


def test_alpha_euclid_closed_form(euclid):
    assert wulff_alpha(euclid, 0.0) == pytest.approx(1.0, abs=1e-9)
    assert wulff_alpha(euclid, 1.0) == 0.0
    assert wulff_alpha(euclid, 1.2) == 0.0
    assert wulff_alpha(euclid, 0.6) == pytest.approx(0.8, abs=1e-9)
    for t in (0.3, 0.9, 0.99, -0.7):
        assert wulff_alpha(euclid, t) == pytest.approx(
            math.sqrt(1 - t * t), abs=1e-8)


def test_alpha_slope_is_envelope_derivative(euclid):
    for t in (0.2, 0.6, -0.4):
        assert wulff_alpha_slope(euclid, t) == pytest.approx(
            -t / math.sqrt(1 - t * t), abs=1e-6)


def test_alpha_returns_within_one_ulp_of_the_pole():
    # At t = 1 - 2^-53 the minimizer y* of phi(1, y) - t y is so large that
    # one ulp of it exceeds the golden-section width, so the bracket stops
    # shrinking before it reaches that width.  The alarm turns a search that
    # never ends into a failure.
    tension = make_tension("pnorm", p=1.5)

    def expire(signum, frame):
        raise TimeoutError("wulff_alpha did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        alpha = wulff_alpha(tension, 1.0 - 2.0**-53)
        slope = wulff_alpha_slope(tension, 1.0 - 2.0**-53)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert 0.0 <= alpha < 1e-3
    assert slope < -1e6


@pytest.mark.parametrize("name,kw", [
    ("euclid", {}), ("pnorm", {"p": 3.0}), ("weighted", {"c": 2.0}),
])
def test_alpha_concavity_on_support(name, kw):
    t = make_tension(name, **kw)
    prof = wulff_profile(t, 512)
    assert prof.concavity_defect() <= 1e-9


def test_vertical_extent_weighted():
    t = make_tension("weighted", c=2.0)
    lo, hi = vertical_extent(t)
    assert hi == pytest.approx(math.sqrt(2.0))
    assert lo == pytest.approx(-math.sqrt(2.0))


def test_alpha_volume_table_euclid(euclid):
    table = alpha_table(euclid)
    # int_{-1}^{1} (1 - t^2) dt = 4/3 for the unit-ball profile, N = 3.
    assert table.total == pytest.approx(4.0 / 3.0, rel=1e-10)
    exact_above = 4.0 / 3.0 - (0.6 - 0.6**3 / 3.0 + 2.0 / 3.0)
    assert table.above(0.6) == pytest.approx(exact_above, abs=1e-9)


def test_one_alpha_table_serves_both_names(euclid):
    from wulffdrop import wulff

    assert wulff.alpha_spline is wulff.alpha_volume_table is alpha_table
    table = alpha_table(euclid)
    assert table(0.6) == pytest.approx(0.8, abs=1e-12)
    assert table.peak == pytest.approx(0.0, abs=1e-9)


def test_solve_on_branch_in_and_off_branch(pnorm3):
    fa = alpha_table(pnorm3)
    for lo, hi in ((fa.t_bot, fa.peak), (fa.peak, fa.t_top)):
        for frac in (1e-3, 0.3, 0.9, 0.999):
            target = frac * fa(fa.peak)
            z = fa.solve_on_branch(target, lo, hi)
            assert lo <= z <= hi
            assert abs(fa(z) - target) <= 1e-12
        # No sign change on the branch: the upper end comes back.
        assert fa.solve_on_branch(2.0 * fa(fa.peak), lo, hi) == hi
        assert fa.solve_on_branch(-1.0, lo, hi) == hi
        # Array targets give the scalar answers, off-branch entries too.
        fracs = np.array([1e-3, 0.3, 0.9, 0.999, 2.0, -1.0])
        z = fa.solve_on_branch(fracs * fa(fa.peak), lo, hi)
        assert np.all(z[:4] == [fa.solve_on_branch(f * fa(fa.peak), lo, hi)
                                for f in fracs[:4]])
        assert np.all(z[4:] == hi)
    # Per-entry bounds: one branch per entry, with off-branch entries.
    top = fa(fa.peak)
    z_lo = np.array([fa.t_bot, fa.peak, fa.t_bot, fa.peak])
    z_hi = np.array([fa.peak, fa.t_top, 0.5 * (fa.t_bot + fa.peak), fa.t_top])
    targets = np.array([0.5, 0.5, 0.99, 1.5]) * top
    z = fa.solve_on_branch(targets, z_lo, z_hi)
    assert np.max(np.abs(fa(z[:2]) - targets[:2])) <= 1e-12
    assert z[0] < fa.peak < z[1]
    assert z[2] == z_hi[2] and z[3] == z_hi[3]
