"""The in-repo hull passes against qhull (scipy.spatial.ConvexHull): the
Graham scan of ``wulff.active_constraints`` and, on one polygon or many
laid end to end, the array rounds of ``wulff.active_block`` find the same
active constraints, or a ValueError on both sides."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from wulffdrop import checks
from wulffdrop.tension import L1RegSliceNorm, LpSliceNorm, make_tension
from wulffdrop.wulff import (
    _COLLINEAR_RTOL,
    DEDUP_TOL,
    active_block,
    active_constraints,
    build_wulff_body,
)


def qhull_constraints(normals, offsets):
    """The active constraints as qhull found them before the scan replaced
    it: hull vertices of nu_j / c_j in CCW order from the lowest index."""
    if not np.all(offsets > 0.0):
        raise ValueError("half-plane offsets must be positive")
    try:
        hull = ConvexHull(normals / offsets[:, None])
    except QhullError as exc:
        raise ValueError(str(exc)) from exc
    if np.max(hull.equations[:, -1]) >= -DEDUP_TOL:
        raise ValueError("half-planes do not bound a polygon around the origin")
    first = int(np.argmin(hull.vertices))
    return np.concatenate((hull.vertices[first:], hull.vertices[:first]))


def outcome(find, normals, offsets):
    try:
        return find(normals, offsets).tolist()
    except ValueError:
        return "ValueError"


def block_constraints(normals, offsets):
    return np.flatnonzero(active_block(normals, offsets, [len(offsets)])[0])


def assert_parity(normals, offsets):
    ours = outcome(active_constraints, normals, offsets)
    assert ours == outcome(qhull_constraints, normals, offsets)
    assert ours == outcome(block_constraints, normals, offsets)
    return ours


def assert_block_is_each_alone(drawn):
    # active_block on polygons laid end to end: each one's active rows are
    # those it has alone.
    active, kept = active_block(np.concatenate([nu for nu, _ in drawn]),
                                np.concatenate([c for _, c in drawn]),
                                [len(c) for _, c in drawn])
    alone = [block_constraints(nu, c) for nu, c in drawn]
    assert kept.tolist() == [len(a) for a in alone]
    each = np.split(active, np.cumsum([len(c) for _, c in drawn])[:-1])
    assert [np.flatnonzero(e).tolist() for e in each] == [a.tolist() for a in alone]


def at_angles(theta):
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def test_scan_matches_qhull_on_random_draws():
    # The draws of sets.draw_constraints, before its gap test: sorted
    # angles and random offsets, so some constraints are inactive and some
    # draws leave the origin outside the polar hull.
    rng = np.random.default_rng(7)
    raised, bounded = 0, []
    for _ in range(2000):
        n = int(rng.integers(3, 13))
        theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        normals, offsets = at_angles(theta), rng.uniform(0.5, 1.5, n)
        if assert_parity(normals, offsets) == "ValueError":
            raised += 1
        else:
            bounded.append((normals, offsets))
    assert 0 < raised < 2000
    assert_block_is_each_alone(bounded)


def test_scan_matches_qhull_on_unbounded_draws():
    # Normals within an arc of 0.5 pi to 1.2 pi, rotated: arcs under pi
    # leave the set unbounded; the rest bound it or not by their offsets.
    rng = np.random.default_rng(8)
    bounded = 0
    for _ in range(1000):
        n = int(rng.integers(3, 13))
        arc = rng.uniform(0.5, 1.2) * math.pi
        theta = np.mod(np.sort(rng.uniform(0.0, arc, n)) + rng.uniform(0.0, 2.0 * math.pi),
                       2.0 * math.pi)
        bounded += assert_parity(at_angles(theta), rng.uniform(0.5, 1.5, n)) != "ValueError"
    assert 0 < bounded < 1000


# The slice norms of the built-in tensions and of the check suites' bodies,
# and l_inf and l_1, whose polar points lie on a square's sides: most of
# them are collinear to rounding, and neither side keeps them.
SLICE_NORMS = ([t.h for t in checks.builtin_tensions()]
               + [LpSliceNorm(3.0), L1RegSliceNorm(0.05), LpSliceNorm(math.inf),
                  LpSliceNorm(1.0)])


@pytest.mark.parametrize("m", [8, 64, 1024, 4096])
def test_scan_matches_qhull_on_the_builtin_bodies(m):
    normals = at_angles(2.0 * math.pi * np.arange(m) / m)
    for h in SLICE_NORMS:
        assert assert_parity(normals, h.value(normals)) != "ValueError"
    # The l_inf body is the diamond, the l_1 body the square.
    for p, corners in ((math.inf, [m // 8, 3 * m // 8, 5 * m // 8, 7 * m // 8]),
                       (1.0, [0, m // 4, m // 2, 3 * m // 4])):
        assert active_constraints(normals, LpSliceNorm(p).value(normals)).tolist() == corners


# l_p bodies with p >= 5 and many normals: long runs of their polar points
# lie within rounding of one line.  Neither the scan nor the array rounds
# keep qhull's points there; the rounds drop every other point of a run of
# flagged neighbours, and each point they drop lies within 2 tol (1.81 tol
# at most over l_1 to l_inf at 8 to 8192 normals) outside the final hull;
# dropping whole runs at once would leave points up to 586 tol outside.
@pytest.mark.parametrize("m", [1024, 4096])
def test_block_rounds_drop_points_within_rounding_of_the_hull(m):
    normals = at_angles(2.0 * math.pi * np.arange(m) / m)
    drawn = [(normals, LpSliceNorm(p).value(normals)) for p in (8.0, 16.0, 50.0)]
    assert_block_is_each_alone(drawn)
    for nu, c in drawn:
        points = nu / c[:, None]
        tol = _COLLINEAR_RTOL * np.hypot(*points.T).max()
        # Each point's distance outside the hull edge whose ends bracket it.
        active = block_constraints(nu, c)
        after = np.searchsorted(active, np.arange(m), side="right")
        a, b = points[active[after - 1]], points[active[after % len(active)]]
        (ex, ey), (px, py) = (b - a).T, (points - a).T
        outside = (px * ey - py * ex) / np.hypot(ex, ey)
        assert outside.max() <= 2.0 * tol


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=12),
       start=st.floats(0.0, 2.0 * math.pi), data=st.data())
def test_gap_test_leaves_a_margin_around_the_origin(weights, start, data):
    # sets.draw_constraints keeps normals with every angular gap below
    # 0.9 pi and draws offsets in [0.5, 1.5]; every such draw bounds a
    # polygon whose hull edges lie at least (2/3) cos(0.45 pi) > 0.1 from
    # the origin, so its hull never raises.
    gaps = 2.0 * math.pi * np.array(weights) / sum(weights)
    assume(gaps.max() < 0.9 * math.pi)
    theta = np.sort(np.mod(start + np.cumsum(gaps), 2.0 * math.pi))
    offsets = np.array(data.draw(st.lists(st.floats(0.5, 1.5), min_size=len(theta),
                                          max_size=len(theta))))
    normals = at_angles(theta)
    active = active_constraints(normals, offsets)
    assert len(active) >= 3
    p = normals[active] / offsets[active, None]
    q = np.roll(p, -1, axis=0)
    distance = (p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]) / np.linalg.norm(q - p, axis=1)
    assert distance.min() >= 0.1


def test_scan_rejects_normals_out_of_angular_order():
    normals = at_angles(np.array([0.0, math.pi, 0.5 * math.pi, 1.5 * math.pi]))
    with pytest.raises(ValueError, match="CCW angular order"):
        active_constraints(normals, np.ones(4))
    # A rotation of CCW order is CCW order.
    theta = 2.0 * math.pi * np.arange(8) / 8
    assert active_constraints(at_angles(np.roll(theta, 3)), np.ones(8)).tolist() == list(range(8))


def test_scan_rejects_what_qhull_rejected():
    square = at_angles(0.5 * math.pi * np.arange(4))
    with pytest.raises(ValueError, match="positive"):
        active_constraints(square, np.array([1.0, 1.0, 0.0, 1.0]))
    # Two opposite normals bound a strip, not a polygon.
    with pytest.raises(ValueError, match="fewer than three"):
        active_constraints(square[[0, 2]], np.ones(2))
    # The origin lies on the polar hull's edge from (-1, 0) to (1, 0).
    with pytest.raises(ValueError, match="around the origin"):
        active_constraints(square[:3], np.ones(3))


def test_l1_body_keeps_the_four_sides():
    body = build_wulff_body(make_tension("euclid", h_family="lp", h_p=1.0), 1024)
    assert np.allclose(body.geometry, [[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]],
                       rtol=0.0, atol=1e-15)
