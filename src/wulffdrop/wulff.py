"""Wulff bodies of slice norms and the vertical profile of the full shape.

The slice Wulff body K_h in R^(N-1) is the intersection of the half planes
{x'.nu < h(nu)} over unit normals nu: the interval [-h(-1), h(1)] for
d = 1, and for d = 2 a convex polygon realized from M evenly spread
normals.  Both are read through their faces (``slice_faces``: the
interval's two end points, the polygon's edges), each on a support plane,
so one path gives P_h(K_h) and the cone from the origin the exact identity

    P_h(K_h) = d * |K_h|,   i.e.   Lambda = d,

for the interval and for the polygon itself (the polygon approximates K_h
from outside at rate O(1/M^2) for smooth h).

The polygon {x : nu_j.x <= c_j} with all c_j > 0 is the polar of the
convex hull of the points nu_j / c_j.  The normals come in CCW angular
order, and array rounds over the points drop those within rounding of
the chord between their neighbours until the hull's vertices, the active
constraints, are left in CCW order (``active_block``).  Consecutive pairs
meet at the polygon's vertices, found by one batched 2x2 solve
(``polygon_block``), and each edge's support is its own vertex . normal.
Both steps take many polygons laid end to end, so a Wulff body and a
block of random polygons take the same pass.
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
# Largest normal count of a body and knot count of a direct solve; a larger
# one is refused before any array is made.
MAX_SIZE = 2**20


@dataclass(frozen=True)
class WulffBody:
    """Polytopal slice Wulff body with per-face ("edge") data.

    ``geometry`` is the CCW vertex array of shape (k, 2) for d = 2, or the
    interval endpoints (lo, hi) for d = 1, whose edges are lo and hi.  Edge
    arrays are aligned: edge i runs from vertex i to vertex i+1.  Bodies
    are cached and shared, so every array is read-only.
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


def slice_faces(geometry: np.ndarray):
    """(face measures, unit outward normals, supports, measure) of a slice
    shape given as to :func:`slice_centroid`: an interval (lo, hi) has its
    end points as faces, of measure 1; a CCW polygon has its edges and its
    signed area."""
    if geometry.ndim == 1:
        lo, hi = float(geometry[0]), float(geometry[1])
        return np.ones(2), np.array([[-1.0], [1.0]]), np.array([-lo, hi]), hi - lo
    return (*polygon_edges(geometry), polygon_area(geometry))


def polygon_edges(poly: np.ndarray, counts=None):
    """Edge lengths, unit outward normals and supports of convex CCW
    polygons of ``counts`` vertices laid end to end (one polygon by
    default); each edge's support is its own start vertex . normal."""
    e = _successors(poly, [len(poly)] if counts is None else counts) - poly
    lengths = np.linalg.norm(e, axis=1)
    normals = np.stack([e[:, 1], -e[:, 0]], axis=-1) / lengths[:, None]
    supports = np.einsum("ij,ij->i", poly, normals)
    return lengths, normals, supports


def _neighbours(counts):
    """(previous, next) position of each element in its own segment, read
    cyclically, for segments of ``counts`` >= 1 elements laid end to end."""
    ends = np.cumsum(counts)
    first = ends - counts
    prev, nxt = np.arange(-1, ends[-1] - 1), np.arange(1, ends[-1] + 1)
    prev[first] = ends - 1
    nxt[ends - 1] = first
    return prev, nxt


def _first_extreme(values, reduce, first, polygon):
    """Index of the first of each polygon's extreme values, ``reduce`` being
    ``np.minimum.reduceat`` or ``np.maximum.reduceat``."""
    index = np.where(values == reduce(values, first)[polygon],
                     np.arange(len(values)), len(values))
    return np.minimum.reduceat(index, first)


def active_block(normals: np.ndarray, offsets: np.ndarray, counts):
    """The constraints active on polygons {x : nu_j . x <= c_j}, offsets
    c_j > 0, laid end to end: polygon i's are the next ``counts[i]`` rows.
    Returns a mask of the active rows and each polygon's count of them.

    Each polygon is the polar of the convex hull of its points nu_j / c_j,
    whose vertices are the active constraints.  Each polygon's normals
    must come in CCW angular order: their angles, rotated to start at the
    smallest, do not decrease.  The hull is found by rounds over all
    polygons at once.  A point is flagged when it does not lie beyond
    ``_COLLINEAR_RTOL`` times its polygon's largest radius R outside the
    chord between its live neighbours; the farthest point of each polygon,
    a hull vertex, never is.  Each round drops every other point of each
    run of flagged neighbours, so every point dropped lies within that
    tolerance of the chord its neighbours still span, and the pass stops
    when no point is flagged.  Later rounds move chords inward, but on the
    l_p bodies measured (up to 8192 normals) no dropped point lies more
    than twice that tolerance outside the final hull.  Raises ValueError
    for normals out of order, and when a polygon's constraints do not
    bound a polygon around the origin: fewer than three hull vertices, or
    a hull edge within ``DEDUP_TOL`` of the origin.
    """
    if not np.all(offsets > 0.0):
        raise ValueError("half-plane offsets must be positive")
    counts = np.asarray(counts)
    if np.any(counts < 3):
        raise ValueError("half-planes do not bound a polygon: fewer than three "
                         "active constraints")
    first = segment_starts(counts)
    polygon = np.repeat(np.arange(len(counts)), counts)
    x, y = (normals / offsets[:, None]).T
    prev, nxt = _neighbours(counts)
    angle = np.arctan2(y, x)
    lowest = _first_extreme(angle, np.minimum.reduceat, first, polygon)
    # Every cyclic pair but the one that wraps round onto the lowest angle;
    # a NaN angle is out of order.
    if np.any(~(angle[nxt] >= angle) & (nxt != lowest[polygon])):
        raise ValueError("half-plane normals are not in CCW angular order")
    radius = np.hypot(x, y)
    far = _first_extreme(radius, np.maximum.reduceat, first, polygon)
    tol = _COLLINEAR_RTOL * radius[far]
    # Each polygon's points rotated to start at its farthest, which is never
    # dropped, so no run of flagged points wraps round a polygon's end.
    shift = (far - first)[polygon]
    live = first[polygon] + (np.arange(len(x)) - first[polygon] + shift) % counts[polygon]
    owner = polygon
    while True:
        # cross / |chord| is the point's distance outside the chord.
        a, j = live[prev], live[nxt]
        dx, dy = x[j] - x[a], y[j] - y[a]
        cross = (x[live] - x[a]) * dy - (y[live] - y[a]) * dx
        flag = ~(cross > tol[owner] * np.hypot(dx, dy)) & (live != far[owner])
        if not flag.any():
            break
        # Drop the first, third, ... point of each run of flagged neighbours:
        # no two neighbours go in one round, so each point dropped was judged
        # against the chord that its neighbours still span.
        index = np.arange(len(live))
        start = flag & ~np.concatenate(([False], flag[:-1]))
        rank = index - np.maximum.accumulate(np.where(start, index, 0))
        keep = ~flag | (rank % 2 == 1)
        live, owner = live[keep], owner[keep]
        prev, nxt = _neighbours(np.bincount(owner, minlength=len(counts)))
    kept = np.bincount(owner, minlength=len(counts))
    if np.any(kept < 3):
        raise ValueError("half-planes do not bound a polygon: fewer than three "
                         "active constraints")
    # cross / |b - a| is the edge's distance from the origin, positive when
    # the origin lies to its left.
    a, b = live, live[nxt]
    cross = x[a] * y[b] - y[a] * x[b]
    if np.any(cross <= DEDUP_TOL * np.hypot(x[b] - x[a], y[b] - y[a])):
        raise ValueError("half-planes do not bound a polygon around the origin")
    active = np.zeros(len(x), dtype=bool)
    active[live] = True
    return active, kept


def polygon_block(normals: np.ndarray, offsets: np.ndarray, counts):
    """CCW vertices of polygons given by their active constraints.

    Polygon i's constraints are the next ``counts[i]`` rows of ``normals``
    and ``offsets``, in CCW order; consecutive pairs meet at its vertices,
    all found by one batched 2x2 solve, and vertex j starts the edge on
    constraint j.  Returns the vertices, laid end to end, and each
    polygon's vertex count.  Raises ValueError when a polygon keeps fewer
    than three vertices; :func:`active_block` drops hull points within
    rounding of a chord, so its active constraints are not expected to.
    """
    counts = np.asarray(counts)
    prev = _neighbours(counts)[0]
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


@lru_cache(maxsize=32)
def build_wulff_body(tension: SurfaceTension, m_normals: int = 1024) -> WulffBody:
    """Construct K_h, read through its faces: the interval [-h(-1), h(1)]
    for d = 1, the polygon of m_normals evenly spread support planes for d = 2.
    m_normals above MAX_SIZE raises InvalidInput in either dimension."""
    d = tension.dim - 1
    if m_normals > MAX_SIZE:
        raise InvalidInput(f"m_normals must be at most {MAX_SIZE}, got {m_normals}")
    if d == 1:
        h_neg, h_pos = tension.h.value(np.array([[-1.0], [1.0]])).tolist()
        geometry = np.array([-h_neg, h_pos])
    elif d != 2:
        raise DimensionUnsupported(f"slice dimension {d} unsupported (need 1 or 2)")
    elif m_normals < 8:
        raise InvalidInput(f"need at least 8 normals for a 2-D body, got {m_normals}")
    else:
        theta = 2.0 * math.pi * np.arange(m_normals) / m_normals
        normals = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        offsets = tension.h.value(normals)
        try:
            active, kept = active_block(normals, offsets, [m_normals])
            geometry = polygon_block(normals[active], offsets[active], kept)[0]
        except ValueError as exc:
            raise InvalidTension(f"slice norm {tension.h} has no Wulff polygon: "
                                 f"{exc}") from exc
    lengths, edge_normals, supports, area = slice_faces(geometry)
    edge_h = tension.h.value(edge_normals)
    perim = float(np.sum(lengths * edge_h))
    return WulffBody(
        d=d,
        geometry=geometry,
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

@dataclass(frozen=True)
class AlphaTable:
    """alpha(z) = (1 - |z/tau|^q)^(1/q) on (-tau, tau), 0 outside, and its
    inverse.

    tau = t_top = phi(0, 1) = -t_bot and q is the polar exponent of phi.
    alpha is even with alpha(0) = 1, so ``inverse`` gives the root z >= 0
    where alpha falls and -inverse the root where it rises.  For q = inf
    (a box) alpha is 1 on (-tau, tau).  Both share one closed form.
    """

    t_bot: float
    t_top: float
    q: float

    def _root(self, x):
        """(1 - x^q)^(1/q) for 0 <= x < 1, accurate where x^q is close to 1
        (1 at x = 0 and for q = inf), and 0 from 1 on, of an array x >= 0;
        what the closed form gives from 1 on (NaN, or an overflow of x^q for
        large q) is discarded without a warning."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(x < 1.0, self._closed_form(x), 0.0)

    def _root_of(self, x: float) -> float:
        """``_root`` of one float, with its ends (0 from 1 on, NaN included,
        and 1 at 0) taken in Python.  In between it runs the closed form on
        a one-element array: numpy's scalar power rounds differently from
        its array loop, and a scalar call must give an array call's answer
        bit for bit."""
        if not x < 1.0:
            return 0.0
        if x == 0.0:
            return 1.0
        return self._closed_form(np.array([x])).item()

    def _closed_form(self, x):
        """(1 - x^q)^(1/q) of an array x, by way of expm1 and log."""
        return (-np.expm1(np.log(x) * self.q)) ** (1.0 / self.q)

    def __call__(self, z):
        """alpha at z."""
        if isinstance(z, (int, float)):
            return self._root_of(abs(z) / self.t_top)
        y = self._root(np.abs(np.atleast_1d(np.asarray(z, dtype=float))) / self.t_top)
        return float(y[0]) if np.ndim(z) == 0 else y

    def inverse(self, target):
        """The z >= 0 with alpha(z) = target, for 0 <= target <= 1.

        inverse(0) = tau and inverse(1) = 0, also for the box (q = inf),
        where every target below 1 gives tau.  Targets are clipped to
        [0, 1].  -inverse(target) is the root where alpha rises.
        """
        if isinstance(target, (int, float)):
            return self.t_top * self._root_of(min(max(target, 0.0), 1.0))
        a = np.clip(np.atleast_1d(np.asarray(target, dtype=float)), 0.0, 1.0)
        z = self.t_top * self._root(a)
        return float(z[0]) if np.ndim(target) == 0 else z


@lru_cache(maxsize=32)
def alpha_table(tension: SurfaceTension) -> AlphaTable:
    tau = tension.f_eN
    return AlphaTable(t_bot=-tau, t_top=tau, q=tension.phi.polar_exponent)


# The benchmark harness calls the two tables of earlier versions by these
# names and reads their cache_info(); both are the one cached builder.
alpha_spline = alpha_volume_table = alpha_table


def chord_deficits(t: np.ndarray, a: np.ndarray):
    """Knots i inside the hull of the non-empty slabs, from the first to the
    last positive a (an end knot never), and at each the chord deficit
    w a[i-1] + (1 - w) a[i+1] - a[i], w = (t[i+1] - t[i]) / (t[i+1] - t[i-1])."""
    pos = np.flatnonzero(a > 0)
    i = np.arange(max(pos[0], 1), min(pos[-1] + 1, len(a) - 1)) if pos.size else pos
    w = (t[i + 1] - t[i]) / (t[i + 1] - t[i - 1])
    return i, w * a[i - 1] + (1 - w) * a[i + 1] - a[i]


def concavity_defect(t: np.ndarray, a: np.ndarray) -> float:
    """Largest chord deficit of a(t) at the knots from the first to the last
    positive a (0.0 if none); the set is convex when it is <= 0, to rounding."""
    deficit = chord_deficits(t, a)[1]
    return float(np.max(deficit)) if deficit.size else 0.0
