import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import gamma

from wulffdrop import checks
from wulffdrop.errors import DimensionUnsupported
from wulffdrop.sets import convex_polygons, draw_constraints
from wulffdrop.tension import make_tension
from wulffdrop.wulff import (
    active_block,
    alpha_table,
    build_wulff_body,
    concavity_defect,
    polygon_area,
    polygon_areas,
    polygon_block,
    polygon_edges,
    sorted_distinct,
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


def one_polygon(normals, offsets):
    """CCW vertices of {x : nu_j . x <= c_j}, found as build_wulff_body finds
    a body's: one hull pass, then the vertex solve on its active rows."""
    active, kept = active_block(normals, offsets, [len(offsets)])
    return polygon_block(normals[active], offsets[active], kept)[0]


def test_one_polygon_drops_redundant_and_rejects_unbounded():
    # Normals in CCW angular order, as active_block requires.
    normals = np.array([[1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)], [0.0, 1.0],
                        [-1.0, 0.0], [0.0, -1.0]])
    poly = one_polygon(normals, np.array([1.0, 3.0, 1.0, 1.0, 1.0]))
    assert poly.tolist() == [[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]]
    # Normals confined to a half circle leave the set unbounded.
    theta = np.linspace(0.0, 0.9 * math.pi, 7)
    normals = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    with pytest.raises(ValueError):
        one_polygon(normals, np.ones(7))


# SHA-256 of the three built-in tensions' bodies (vertices, edge lengths,
# normals, h and supports, then area, anisotropic perimeter and Lambda),
# taken from the per-polygon vertex solve that the block solve replaced.
BODY_DIGESTS = {
    1024: "f7ea1f98663eb0c8286495f479ada5af98183c716a6ca49ca23dc6e76c1427f6",
    4096: "190ea94f453e030bf462474f0ad5e01a4fe3561d77a0d86372995cc97bcfe12b",
}


# The same digest of the l_8, l_16 and l_50 bodies, taken from the array
# rounds of active_block.  Long runs of their polar points lie within
# rounding of one line, where hull passes that honour the same tolerance
# still keep different points, so any change to the rounds' order of drops
# changes these bodies (test_hull bounds how far outside the kept hull the
# dropped points lie).
STEEP_LP_BODY_DIGESTS = {
    1024: "b09b402feb87213266d669988878da5e83bf4f6007df634aa714ef450b09d7d9",
    4096: "3e05caaae23e611827f60855421d04291ba219dbe4163cd3afb09407db5dfeac",
}


def body_digest(tensions, m):
    digest = hashlib.sha256()
    for tension in tensions:
        b = build_wulff_body(tension, m)
        for arr in (b.geometry, b.edge_lengths, b.edge_normals, b.edge_h,
                    b.edge_supports):
            digest.update(arr.tobytes())
        digest.update(np.float64([b.area, b.aniso_perimeter, b.lam]).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("m", sorted(BODY_DIGESTS))
def test_wulff_bodies_are_bit_identical_to_the_golden_digest(m):
    assert body_digest(checks.builtin_tensions(), m) == BODY_DIGESTS[m]


@pytest.mark.parametrize("m", sorted(STEEP_LP_BODY_DIGESTS))
def test_steep_lp_bodies_are_bit_identical_to_the_golden_digest(m):
    tensions = [make_tension("euclid", h_family="lp", h_p=p) for p in (8.0, 16.0, 50.0)]
    assert body_digest(tensions, m) == STEEP_LP_BODY_DIGESTS[m]


def test_lp_bodies_of_large_p_build():
    # |x|^p of a unit normal's components underflows to 0 from p ~ 2150;
    # the slice norm then rescales by max |x|, so l_p bodies build up to
    # p = inf, and at p = 1e300 the body is the l_inf body.
    flat = build_wulff_body(make_tension("euclid", h_family="lp", h_p=math.inf), 1024)
    steep = build_wulff_body(make_tension("euclid", h_family="lp", h_p=1e300), 1024)
    for field in ("geometry", "edge_lengths", "edge_normals", "edge_h", "edge_supports",
                  "area", "aniso_perimeter", "lam"):
        assert np.array_equal(getattr(steep, field), getattr(flat, field))
    for p in (3000.0, 1e6):
        body = build_wulff_body(make_tension("euclid", h_family="lp", h_p=p), 1024)
        assert 2.0 < body.area < 2.001
        assert abs(body.lam - 2.0) <= 1e-12


def test_polygon_block_solves_each_polygon_as_alone():
    rng = np.random.default_rng(23)
    normals, offsets, counts, alone = [], [], [], []
    for _ in range(40):
        # Jittered angles leave no gap of pi or more; random offsets leave
        # some constraints inactive.
        n = int(rng.integers(5, 13))
        theta = 2.0 * math.pi * (np.arange(n) + rng.uniform(0.0, 0.5, n)) / n
        nu = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        c = rng.uniform(0.5, 1.5, len(theta))
        active = active_block(nu, c, [len(c)])[0]
        normals.append(nu[active])
        offsets.append(c[active])
        counts.append(np.count_nonzero(active))
        alone.append(one_polygon(nu, c))
    poly, n_vertices = polygon_block(np.concatenate(normals), np.concatenate(offsets),
                                     counts)
    assert n_vertices.tolist() == [len(a) for a in alone]
    assert np.array_equal(poly, np.concatenate(alone))
    areas = polygon_areas(poly, n_vertices)
    assert areas.tolist() == [polygon_area(a) for a in alone]
    for got, one in zip(polygon_edges(poly, n_vertices), zip(*map(polygon_edges, alone))):
        assert np.array_equal(got, np.concatenate(one))
    # Three lines through one point leave no edge of positive length.
    through_one_point = np.array([[1.0, 0.0], [math.sqrt(0.5), math.sqrt(0.5)], [0.0, 1.0]])
    with pytest.raises(ValueError):
        polygon_block(through_one_point, np.array([1.0, math.sqrt(2.0), 1.0]), [3])


def test_edge_supports_match_the_vertex_maximum():
    rng = np.random.default_rng(11)
    for _ in range(200):
        poly = convex_polygons([draw_constraints(rng, int(rng.integers(3, 13)))])[0]
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


@pytest.mark.parametrize("h_kw", [{}, {"h_family": "lp", "h_p": 3.0},
                                  {"h_family": "l1reg", "h_eps": 0.05}])
def test_interval_body_is_pinned_exactly(h_kw):
    # K_h = [-h(-1), h(1)]: its two end points are its faces, so P_h = |K_h|
    # and Lambda = 1 hold exactly, not to rounding.
    t = make_tension("euclid", dim=2, **h_kw)
    h_neg, h_pos = (float(t.h.value(np.array([x]))) for x in (-1.0, 1.0))
    body = build_wulff_body(t)
    assert np.array_equal(body.geometry, [-h_neg, h_pos])
    assert np.array_equal(body.edge_lengths, [1.0, 1.0])
    assert np.array_equal(body.edge_normals, [[-1.0], [1.0]])
    assert np.array_equal(body.edge_h, [h_neg, h_pos])
    assert np.array_equal(body.edge_supports, [h_neg, h_pos])
    assert body.area == body.aniso_perimeter == h_pos + h_neg
    assert body.lam == 1.0
    assert np.array_equal(body.centroid, [0.5 * (h_pos - h_neg)])


def test_linf_body_is_the_unit_diamond():
    # K_h for h = l_inf is the l_1 ball |x| + |y| <= 1: area 2 and P_h = 4.
    body = build_wulff_body(make_tension("euclid", h_family="lp", h_p=math.inf), 1024)
    assert body.area == pytest.approx(2.0, rel=2e-3)
    assert body.lam == pytest.approx(2.0, rel=2e-3)
    assert np.abs(body.geometry).sum(axis=1) == pytest.approx(1.0, abs=1e-12)


def test_alpha_euclid_closed_form(euclid):
    fa = alpha_table(euclid)
    assert fa(0.0) == pytest.approx(1.0, abs=1e-9)
    assert fa(1.0) == 0.0
    assert fa(1.2) == 0.0
    assert fa(0.6) == pytest.approx(0.8, abs=1e-9)
    for t in (0.3, 0.9, 0.99, -0.7):
        assert fa(t) == pytest.approx(
            math.sqrt(1 - t * t), abs=1e-8)


def test_alpha_returns_within_one_ulp_of_the_pole():
    # pnorm p = 1.5 has q = 3: alpha(t) = (1 - t^3)^(1/3).  At t = 1 - d,
    # d = 2^-53, the minimizer of phi(1, y) - t y is near 1e10 and a search
    # for it loses alpha to cancellation; the reference expands 1 - t^3.
    tension = make_tension("pnorm", p=1.5)
    d = 2.0**-53
    t = 1.0 - d
    w = 3.0 * d - 3.0 * d * d + d**3
    assert alpha_table(tension)(t) == pytest.approx(w ** (1.0 / 3.0), rel=1e-12)


@pytest.mark.parametrize("name,kw", [
    ("euclid", {}), ("pnorm", {"p": 3.0}), ("weighted", {"c": 2.0}),
])
def test_alpha_concavity_on_support(name, kw):
    fa = alpha_table(make_tension(name, **kw))
    ts = np.linspace(fa.t_bot, fa.t_top, 512)
    assert concavity_defect(ts, fa(ts)) <= 1e-9


def test_vertical_extent_weighted():
    t = make_tension("weighted", c=2.0)
    fa = alpha_table(t)
    lo, hi = fa.t_bot, fa.t_top
    assert hi == pytest.approx(math.sqrt(2.0))
    assert lo == pytest.approx(-math.sqrt(2.0))


def test_one_alpha_table_serves_both_names(euclid):
    from wulffdrop import wulff

    assert wulff.alpha_spline is wulff.alpha_volume_table is alpha_table
    table = alpha_table(euclid)
    assert table(0.6) == pytest.approx(0.8, abs=1e-12)
    assert table.inverse(1.0) == 0.0  # the peak


def test_inverse_on_both_sides_of_the_peak(pnorm3):
    fa = alpha_table(pnorm3)
    for frac in (1e-3, 0.3, 0.9, 0.999):
        z = fa.inverse(frac)
        assert 0.0 <= z <= fa.t_top
        # alpha is even: +z is the root where alpha falls, -z where it rises.
        assert abs(fa(z) - frac) <= 1e-12 and abs(fa(-z) - frac) <= 1e-12
    # The peak and the poles; targets outside [0, 1] are clipped.
    assert fa.inverse(1.0) == 0.0 and fa.inverse(0.0) == fa.t_top
    assert fa.inverse(2.0) == 0.0 and fa.inverse(-1.0) == fa.t_top
    # Array targets give the scalar answers bit for bit, clipped ones too.
    fracs = np.array([1e-3, 0.3, 0.9, 0.999, 0.0, 1.0, 2.0, -1.0])
    z = fa.inverse(fracs)
    assert np.array_equal(z, [fa.inverse(f) for f in fracs])
    assert np.max(np.abs(fa(-z[:4]) - fracs[:4])) <= 1e-12
    assert -z[1] < 0.0 < z[1]


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["euclid", "pnorm", "weighted"]),
    param=st.floats(1.2, 4.0),
    dim=st.sampled_from([2, 3]),
    frac=st.floats(-0.98, 0.98),
)
def test_alpha_closed_form_properties(family, param, dim, frac):
    kw = {"pnorm": {"p": param}, "weighted": {"c": param}}.get(family, {})
    tension = make_tension(family, dim=dim, **kw)
    fa = alpha_table(tension)
    tau = fa.t_top
    t = frac * tau
    a = fa(t)
    # alpha is the infimum of phi(1, y) - t y (convex in y).
    ref = minimize_scalar(lambda y: tension.phi.value(1.0, y) - t * y,
                          bracket=(-1.0, 1.0)).fun
    assert a == pytest.approx(ref, abs=1e-10)
    # The signed inverse lands on either side of the peak with alpha = a.
    z = fa.inverse(a)
    assert fa.t_bot <= -z <= 0.0 <= z <= fa.t_top
    assert fa(-z) == pytest.approx(a, abs=1e-12)
    assert fa(z) == pytest.approx(a, abs=1e-12)
    assert fa.inverse(1.0) == 0.0 and fa.inverse(0.0) == tau
    # Batched calls give the scalar answers bit for bit.
    ts = np.array([t, -t, 0.5 * t, tau, -2.0 * tau])
    assert np.array_equal(fa(ts), [fa(x) for x in ts])
    targets = np.array([a, 0.5 * a, 2.0, -1.0])
    assert np.array_equal(fa.inverse(targets), [fa.inverse(x) for x in targets])


@pytest.mark.parametrize("name,kw", [
    ("euclid", {}), ("pnorm", {"p": 3.0}), ("pnorm", {"p": 1.5}),
    ("weighted", {"c": 2.0}), ("pnorm", {"p": 1.0}), ("pnorm", {"p": 1.001}),
])
def test_alpha_array_matches_scalar_calls(name, kw):
    # Every value of an array call, the poles, the peak, points outside and
    # NaN included, is the scalar call's, bit for bit.  Far outside, |z/tau|^q
    # overflows for p = 1.001 (q = 1001), which is no warning.
    fa = alpha_table(make_tension(name, **kw))
    z = np.linspace(-1.2 * fa.t_top, 1.2 * fa.t_top, 2 * 257).reshape(2, 257)
    z[0, :5] = [0.0, fa.t_top, fa.t_bot, np.nan, -3.0 * fa.t_top]
    values = fa(z)
    assert values.shape == z.shape
    assert np.array([fa(x) for x in z.ravel().tolist()]).tobytes() == values.tobytes()


def test_sorted_distinct_is_np_unique():
    rng = np.random.default_rng(5)
    for values in (rng.integers(0, 9, 50), rng.choice([0.25, -1.0, 3.0, 0.0], 40),
                   rng.normal(size=30), np.array([2.0]), np.array([])):
        assert np.array_equal(sorted_distinct(values), np.unique(values))


def test_alpha_box_limit_of_pnorm_p1():
    # q = inf: K is the box [-1, 1]^2 in (|x'|, x_N), so alpha = 1 inside,
    # and a width below 1 is reached only at the edges of the extent.
    fa = alpha_table(make_tension("pnorm", p=1.0))
    z = np.array([-0.999, -0.5, 0.0, 0.7, 0.999])
    assert np.array_equal(fa(z), np.ones(5))
    assert -fa.inverse(0.5) == -1.0
    assert fa.inverse(0.5) == 1.0
    assert fa.inverse(1.0) == 0.0 and fa.inverse(0.0) == 1.0
