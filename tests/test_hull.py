"""The in-repo hull scan of ``wulff.active_constraints`` against qhull
(scipy.spatial.ConvexHull): the same active constraints, or a ValueError
on both sides."""

import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from wulffdrop import checks
from wulffdrop.tension import L1RegSliceNorm, LpSliceNorm, make_tension
from wulffdrop.wulff import DEDUP_TOL, active_constraints, build_wulff_body


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


def assert_parity(normals, offsets):
    ours = outcome(active_constraints, normals, offsets)
    assert ours == outcome(qhull_constraints, normals, offsets)
    return ours


def at_angles(theta):
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def test_scan_matches_qhull_on_random_draws():
    # The draws of sets._draw_constraints, before its gap test: sorted
    # angles and random offsets, so some constraints are inactive and some
    # draws leave the origin outside the polar hull.
    rng = np.random.default_rng(7)
    raised = 0
    for _ in range(2000):
        n = int(rng.integers(3, 13))
        theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        raised += assert_parity(at_angles(theta), rng.uniform(0.5, 1.5, n)) == "ValueError"
    assert 0 < raised < 2000


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
# and l_1, whose polar points lie on a square's sides: most of them are
# collinear to rounding, and neither side keeps them.
SLICE_NORMS = ([t.h for t in checks.builtin_tensions()]
               + [LpSliceNorm(3.0), L1RegSliceNorm(0.05), LpSliceNorm(1.0)])


@pytest.mark.parametrize("m", [8, 64, 1024, 4096])
def test_scan_matches_qhull_on_the_builtin_bodies(m):
    normals = at_angles(2.0 * math.pi * np.arange(m) / m)
    for h in SLICE_NORMS:
        active = assert_parity(normals, h.value(normals))
        assert active != "ValueError"
    assert active == [0, m // 4, m // 2, 3 * m // 4]


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
