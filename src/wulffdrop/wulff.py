"""Wulff bodies of slice norms and the vertical profile of the full shape.

The slice Wulff body K_h in R^(N-1) is the intersection of the half planes
{x'.nu < h(nu)} over unit normals nu.  For d = 2 it is realized as a convex
polygon from M evenly spread normals; every edge then lies on one of its
support lines, so the triangle fan from the origin gives the exact identity

    P_h(K_h) = d * |K_h|,   i.e.   Lambda = d,

for the polygon itself (the polygon approximates K_h from outside at rate
O(1/M^2) for smooth h).

The polygon {x : nu_j.x <= c_j} with all c_j > 0 is the polar of the
convex hull of the points nu_j / c_j.  The normals come in CCW angular
order, so one Graham scan of those points in that order returns the
hull's vertices in CCW order, which are the active constraints;
consecutive pairs meet at the polygon's vertices, found by one batched
2x2 solve, which also serves many polygons laid end to end
(``polygon_block``).  Each edge's support is then its own vertex . normal,
so a body costs O(M).
``build_wulff_body`` is cached on (tension, M), so every caller of one
tension shares one body, and a body's arrays are read-only.

The full Wulff shape K of f = phi(h(.), x_N) is axially symmetric with
horizontal sections alpha(t) * K_h, where

    alpha(t) = inf_y max{ phi(1, y) - t y, 0 }.

Every phi family is a scaled p-norm |(a, tau b)|_p (each family's p and
tau are listed in :mod:`wulffdrop.tension`), so K is the unit ball of
|(x, z / tau)|_q for the polar exponent q = p / (p - 1) and

    alpha(t) = (1 - |t / tau|^q)^(1/q)  on (-tau, tau),  0 outside,

with tau = phi(0, 1).  The limit p = 1 has q = inf: K is a box, alpha = 1
on (-tau, tau).  ``alpha_table`` evaluates alpha and its inverse from
the same formula.
alpha is even with its peak at t = 0, so one signed inverse serves both
sides: z = tau (1 - a^q)^(1/q) solves alpha(z) = a where alpha falls, and
-z where it rises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionUnsupported, InvalidInput, InvalidTension
from .tension import SurfaceTension

# Edges shorter than this are dropped.  The origin must also sit this far
# inside the polar hull, which bounds the polygon within radius 1e12.
DEDUP_TOL = 1e-12
# A point within this multiple of R = max |nu_j / c_j| of a hull chord lies
# on it: four ulps of R, the rounding of the points themselves.
_COLLINEAR_RTOL = 4.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class WulffBody:
    """Polytopal slice Wulff body with per-edge data.

    ``geometry`` is the CCW vertex array of shape (k, 2) for d = 2, or the
    interval endpoints (lo, hi) for d = 1.  Edge arrays are aligned: edge i
    runs from vertex i to vertex i+1.  Bodies are cached and shared, so
    every array is read-only.
    """

    d: int
    geometry: np.ndarray
    edge_lengths: np.ndarray
    edge_normals: np.ndarray
    edge_h: np.ndarray
    edge_supports: np.ndarray
    area: float
    aniso_perimeter: float
    lam: float
    m_normals: int
    tension: SurfaceTension

    def __post_init__(self):
        for arr in (self.geometry, self.edge_lengths, self.edge_normals,
                    self.edge_h, self.edge_supports):
            arr.flags.writeable = False

    @property
    def centroid(self) -> np.ndarray:
        return slice_centroid(self.geometry)


def segment_starts(counts) -> np.ndarray:
    """First index of each segment, for segments of ``counts`` laid end to end."""
    counts = np.asarray(counts)
    return np.cumsum(counts) - counts


def count_groups(counts, first=None):
    """(members, rows) for each distinct count k, ascending: the segments of
    k elements and their elements' indices as a (members, k) array, segment
    i starting at ``first[i]`` (by default, segments laid end to end)."""
    counts = np.asarray(counts)
    first = segment_starts(counts) if first is None else first
    for k in sorted(set(counts.tolist())):
        members = np.flatnonzero(counts == k)
        yield members, first[members, None] + np.arange(k)


def sorted_distinct(values) -> np.ndarray:
    """The distinct values of a 1-D array, sorted: ``np.unique`` for arrays
    without NaN, without the ``numpy.ma`` import that np.unique makes."""
    out = np.sort(values)
    keep = np.ones(len(out), dtype=bool)
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


def _successors(poly: np.ndarray, counts) -> np.ndarray:
    """Each vertex's successor in its own polygon, for polygons of
    ``counts`` vertices laid end to end."""
    ends = np.cumsum(counts)
    nxt = np.empty_like(poly)
    nxt[:-1] = poly[1:]
    nxt[ends - 1] = poly[ends - counts]
    return nxt


def _shoelace(poly: np.ndarray, counts):
    """Next-vertex array and per-edge cross products of polygons."""
    w = _successors(poly, counts)
    return w, poly[:, 0] * w[:, 1] - w[:, 0] * poly[:, 1]


def polygon_areas(poly: np.ndarray, counts) -> np.ndarray:
    """Signed areas of polygons of ``counts`` vertices laid end to end;
    positive for CCW vertices.  The polygons of one vertex count are summed
    as the rows of one array, which ``np.sum`` adds as it adds a lone
    polygon's cross products."""
    cross, area = _shoelace(poly, counts)[1], np.empty(len(counts))
    for members, rows in count_groups(counts):
        area[members] = np.sum(cross[rows], axis=1)
    return 0.5 * area


def polygon_area(poly: np.ndarray) -> float:
    """Signed area of a polygon; positive for CCW vertices."""
    return float(polygon_areas(poly, [len(poly)])[0])


def slice_centroid(geometry: np.ndarray) -> np.ndarray:
    """Centroid of a slice shape: interval endpoints (lo, hi) for d = 1,
    or the CCW vertex array of a polygon for d = 2."""
    if geometry.ndim == 1:
        return np.array([0.5 * (geometry[0] + geometry[1])])
    w, cr = _shoelace(geometry, [len(geometry)])
    return (geometry + w).T @ cr / (3.0 * np.sum(cr))


def polygon_edges(poly: np.ndarray, counts=None):
    """Edge lengths, unit outward normals and supports of convex CCW
    polygons of ``counts`` vertices laid end to end (one polygon by
    default); each edge's support is its own start vertex . normal."""
    e = _successors(poly, [len(poly)] if counts is None else counts) - poly
    lengths = np.linalg.norm(e, axis=1)
    normals = np.stack([e[:, 1], -e[:, 0]], axis=-1) / lengths[:, None]
    supports = np.einsum("ij,ij->i", poly, normals)
    return lengths, normals, supports


def active_constraints(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Indices of the constraints active on {x : nu_j . x <= c_j}, offsets
    c_j > 0, in CCW order from the lowest index.

    The set is the polar of conv{nu_j / c_j}: the hull's vertices, in CCW
    order, are the active constraints.  The normals must come in CCW
    angular order: their angles, rotated to start at the smallest, do not
    decrease.  The points nu_j / c_j then do too, and one Graham scan in
    that order from the farthest point, a hull vertex, finds the hull in
    O(M).  A point within ``_COLLINEAR_RTOL`` times the farthest point's
    radius of a hull chord is not a vertex.  Raises ValueError for normals
    out of order, and when the constraints do not bound a polygon around
    the origin: fewer than three hull vertices, or a hull edge within
    ``DEDUP_TOL`` of the origin.
    """
    if not np.all(offsets > 0.0):
        raise ValueError("half-plane offsets must be positive")
    x, y = (normals / offsets[:, None]).T.tolist()
    angle = list(map(math.atan2, y, x))
    first = angle.index(min(angle))
    angle = angle[first:] + angle[:first]
    if angle != sorted(angle):
        raise ValueError("half-plane normals are not in CCW angular order")
    radius = list(map(math.hypot, x, y))
    start = radius.index(max(radius))
    tol = _COLLINEAR_RTOL * radius[start]
    # Chords are at most 2 R long, so a cross product above 2 R times a
    # distance bound clears that bound without computing the chord's length.
    clear = 2.0 * radius[start] * tol
    hull = [start]
    for j in [*range(start + 1, len(x)), *range(start + 1)]:
        xj, yj = x[j], y[j]
        # Pop the top while it does not lie beyond tol left of the chord
        # from the vertex below it to point j.
        while len(hull) > 1:
            a, b = hull[-2], hull[-1]
            dx, dy = xj - x[a], yj - y[a]
            cross = (x[b] - x[a]) * dy - (y[b] - y[a]) * dx
            if cross > clear or cross > tol * math.hypot(dx, dy):
                break
            hull.pop()
        hull.append(j)
    hull.pop()  # the start, appended again to close the scan
    if len(hull) < 3:
        raise ValueError("half-planes do not bound a polygon: fewer than three "
                         "active constraints")
    # The input runs CCW from index 0, so sorted indices are the hull in CCW
    # order from the lowest index.
    hull.sort()
    clear = 2.0 * radius[start] * DEDUP_TOL
    for a, b in zip(hull, hull[1:] + hull[:1]):
        # cross / |b - a| is the edge's distance from the origin, positive
        # when the origin lies to its left.
        cross = x[a] * y[b] - y[a] * x[b]
        if cross <= clear and cross <= DEDUP_TOL * math.hypot(x[b] - x[a], y[b] - y[a]):
            raise ValueError("half-planes do not bound a polygon around the origin")
    return np.array(hull)


def polygon_block(normals: np.ndarray, offsets: np.ndarray, counts):
    """CCW vertices of polygons given by their active constraints.

    Polygon i's constraints are the next ``counts[i]`` rows of ``normals``
    and ``offsets``, in CCW order; consecutive pairs meet at its vertices,
    all found by one batched 2x2 solve, and vertex j starts the edge on
    constraint j.  Returns the vertices, laid end to end, and each
    polygon's vertex count.  Raises ValueError when a polygon keeps fewer
    than three vertices; :func:`active_constraints` drops hull points within
    rounding of a chord, so its active constraints are not expected to.
    """
    counts = np.asarray(counts)
    first = segment_starts(counts)
    prev = np.arange(-1, len(offsets) - 1)
    prev[first] = first + counts - 1
    lhs = np.stack([normals[prev], normals], axis=1)
    rhs = np.stack([offsets[prev], offsets], axis=1)
    poly = np.linalg.solve(lhs, rhs[..., None])[..., 0]
    # Constraints through a common vertex leave zero-length edges; drop them.
    keep = np.linalg.norm(_successors(poly, counts) - poly, axis=1) > DEDUP_TOL
    polygon = np.repeat(np.arange(len(counts)), counts)
    kept = np.bincount(polygon[keep], minlength=len(counts))
    if np.any(kept < 3):
        raise ValueError("a polygon degenerated below three vertices")
    return poly[keep], kept


def halfplane_polygon(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """CCW vertices of {x : nu_j . x <= c_j} for offsets c_j > 0: the
    vertex solve of :func:`polygon_block` on the active constraints of
    :func:`active_constraints`.  Vertex i starts the edge on the i-th
    active constraint, counted from the lowest constraint index.  Raises
    ValueError when the constraints do not bound a polygon around the
    origin.
    """
    active = active_constraints(normals, offsets)
    return polygon_block(normals[active], offsets[active], [len(active)])[0]


@lru_cache(maxsize=32)
def build_wulff_body(tension: SurfaceTension, m_normals: int = 1024) -> WulffBody:
    """Construct K_h from m_normals evenly spread support planes."""
    d = tension.dim - 1
    if d == 1:
        h_neg = float(tension.h.value(np.array([-1.0])))
        h_pos = float(tension.h.value(np.array([1.0])))
        measure = h_pos + h_neg
        return WulffBody(
            d=1,
            geometry=np.array([-h_neg, h_pos]),
            edge_lengths=np.array([1.0, 1.0]),
            edge_normals=np.array([[-1.0], [1.0]]),
            edge_h=np.array([h_neg, h_pos]),
            edge_supports=np.array([h_neg, h_pos]),
            area=measure,
            aniso_perimeter=measure,
            lam=1.0,
            m_normals=m_normals,
            tension=tension,
        )
    if d != 2:
        raise DimensionUnsupported(f"slice dimension {d} unsupported (need 1 or 2)")
    if m_normals < 8:
        raise InvalidInput(f"need at least 8 normals for a 2-D body, got {m_normals}")
    theta = 2.0 * math.pi * np.arange(m_normals) / m_normals
    normals = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    offsets = tension.h.value(normals)
    try:
        poly = halfplane_polygon(normals, offsets)
    except ValueError as exc:
        raise InvalidTension(f"slice norm {tension.h} has no Wulff polygon: "
                             f"{exc}") from exc
    lengths, edge_normals, supports = polygon_edges(poly)
    edge_h = tension.h.value(edge_normals)
    area = polygon_area(poly)
    perim = float(np.sum(lengths * edge_h))
    return WulffBody(
        d=2,
        geometry=poly,
        edge_lengths=lengths,
        edge_normals=edge_normals,
        edge_h=edge_h,
        edge_supports=supports,
        area=area,
        aniso_perimeter=perim,
        lam=perim / area,
        m_normals=m_normals,
        tension=tension,
    )


# ---------------------------------------------------------------------------
# Vertical profile alpha(t) of the full Wulff shape
# ---------------------------------------------------------------------------

def _one_minus_pow(x, q, out=None):
    """1 - x^q for 0 <= x < 1, accurate where x^q is close to 1; 1 at
    x = 0 and for q = inf.  Written into ``out`` (which may be x) when
    given."""
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(x, out=out)
        y *= q
        np.expm1(y, out=y)
        return np.negative(y, out=y)


@dataclass(frozen=True)
class AlphaTable:
    """alpha(z) = (1 - |z/tau|^q)^(1/q) on (-tau, tau), 0 outside, and its
    inverse.

    tau = t_top = phi(0, 1) = -t_bot and q is the polar exponent of phi.
    alpha is even with alpha(0) = 1, so ``inverse`` gives the root z >= 0
    where alpha falls and -inverse the root where it rises.  For q = inf
    (a box) alpha is 1 on (-tau, tau).  A call with ``out`` writes alpha
    into that array in place, bit for bit as a fresh call.
    """

    t_bot: float
    t_top: float
    q: float

    # Scalars are evaluated as one-element arrays: numpy's scalar power
    # rounds differently from its array loop, and a batched call must give
    # the scalar answers bit for bit.

    def __call__(self, z, out=None):
        """alpha at z.  An array z may come with ``out``, a float array of
        its shape (z itself, say): every step then writes into it, by the
        same ufuncs in the same order, and it is returned."""
        x = np.abs(np.atleast_1d(np.asarray(z, dtype=float)), out=out)
        x /= self.t_top
        inside = x < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            y = _one_minus_pow(x, self.q, out=x)
            y **= 1.0 / self.q
        np.copyto(y, 0.0, where=~inside)
        return float(y[0]) if np.ndim(z) == 0 else y

    def inverse(self, target):
        """The z >= 0 with alpha(z) = target, for 0 <= target <= 1.

        inverse(0) = tau and inverse(1) = 0, also for the box (q = inf),
        where every target below 1 gives tau.  Targets are clipped to
        [0, 1].  -inverse(target) is the root where alpha rises.
        """
        a = np.clip(np.atleast_1d(np.asarray(target, dtype=float)), 0.0, 1.0)
        z = np.where(a < 1.0, self.t_top * _one_minus_pow(a, self.q) ** (1.0 / self.q), 0.0)
        return float(z[0]) if np.ndim(target) == 0 else z


@lru_cache(maxsize=32)
def alpha_table(tension: SurfaceTension) -> AlphaTable:
    tau = tension.f_eN
    return AlphaTable(t_bot=-tau, t_top=tau, q=tension.phi.polar_exponent)


# The benchmark harness calls the two tables of earlier versions by these
# names and reads their cache_info(); both are the one cached builder.
alpha_spline = alpha_volume_table = alpha_table


def concavity_defect(t: np.ndarray, a: np.ndarray) -> float:
    """Largest dip of the samples a(t) below a local chord on their support;
    concavity means the value is <= 0 (up to rounding)."""
    if len(t) < 3:
        return 0.0
    pos = a > 0
    w = (t[2:] - t[1:-1]) / (t[2:] - t[:-2])
    chord = w * a[:-2] + (1 - w) * a[2:]
    # Knots in the support, plus zero knots pinched between positive ones.
    interior = pos[1:-1] | (pos[:-2] & pos[2:])
    if not interior.any():
        return 0.0
    return float(np.max((chord - a[1:-1])[interior]))
