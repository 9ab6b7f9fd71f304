"""Wulff bodies of slice norms and the vertical profile of the full shape.

The slice Wulff body K_h in R^(N-1) is the intersection of the half planes
{x'.nu < h(nu)} over unit normals nu.  For d = 2 it is realized as a convex
polygon from M evenly spread normals; every edge then lies on one of its
support lines, so the triangle fan from the origin gives the exact identity

    P_h(K_h) = d * |K_h|,   i.e.   Lambda = d,

for the polygon itself (the polygon approximates K_h from outside at rate
O(1/M^2) for smooth h).

The polygon {x : nu_j.x <= c_j} with all c_j > 0 is the polar of the
convex hull of the points nu_j / c_j.  One qhull call returns the hull's
vertices in CCW order, which are the active constraints; consecutive pairs
meet at the polygon's vertices, found by one batched 2x2 solve.  Each edge's
support is then its own vertex . normal, so a body costs O(M log M).
``build_wulff_body`` is cached on (tension, M), so every caller of one
tension shares one body, and a body's arrays are read-only.

The full Wulff shape K of f = phi(h(.), x_N) is axially symmetric with
horizontal sections alpha(t) * K_h, where

    alpha(t) = inf_y max{ phi(1, y) - t y, 0 }.

Every phi family has the form phi(a, b) = |(a, tau b)|_p, so K is the unit
ball of |(x, z / tau)|_q for the polar exponent q = p / (p - 1) and

    alpha(t) = (1 - |t / tau|^q)^(1/q)  on (-tau, tau),  0 outside,

with tau = phi(0, 1): euclid q = 2, tau = 1; weighted q = 2, tau = sqrt(c);
pnorm q = p / (p - 1), tau = 1.  The limit p = 1 has q = inf: K is a box,
alpha = 1 on (-1, 1).  ``alpha_table`` evaluates alpha, its slope, its
inverse and the cap volumes integral alpha^(N-1) from the same formula.
alpha is even with its peak at t = 0, so one signed inverse serves both
sides: z = tau (1 - a^q)^(1/q) solves alpha(z) = a where alpha falls, and
-z where it rises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.spatial import ConvexHull, QhullError
from scipy.special import beta, betainc, betaincc

from .errors import DimensionUnsupported, InvalidInput
from .tension import SurfaceTension

# Edges shorter than this are dropped.  The origin must also sit this far
# inside the polar hull, which bounds the polygon within radius 1e12.
DEDUP_TOL = 1e-12


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


def _shoelace(poly: np.ndarray):
    """Next-vertex array and per-edge cross products of a polygon."""
    w = np.roll(poly, -1, axis=0)
    return w, poly[:, 0] * w[:, 1] - w[:, 0] * poly[:, 1]


def polygon_area(poly: np.ndarray) -> float:
    """Signed area of a polygon; positive for CCW vertices."""
    return 0.5 * float(np.sum(_shoelace(poly)[1]))


def slice_centroid(geometry: np.ndarray) -> np.ndarray:
    """Centroid of a slice shape: interval endpoints (lo, hi) for d = 1,
    or the CCW vertex array of a polygon for d = 2."""
    if geometry.ndim == 1:
        return np.array([0.5 * (geometry[0] + geometry[1])])
    w, cr = _shoelace(geometry)
    return (geometry + w).T @ cr / (3.0 * np.sum(cr))


def polygon_edges(poly: np.ndarray):
    """Edge lengths, unit outward normals and supports of a convex CCW
    polygon; each edge's support is its own start vertex . normal."""
    e = np.roll(poly, -1, axis=0) - poly
    lengths = np.linalg.norm(e, axis=1)
    normals = np.stack([e[:, 1], -e[:, 0]], axis=-1) / lengths[:, None]
    supports = np.einsum("ij,ij->i", poly, normals)
    return lengths, normals, supports


def halfplane_polygon(normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """CCW vertices of {x : nu_j . x <= c_j} for offsets c_j > 0.

    The set is the polar of conv{nu_j / c_j}: the hull's vertices, in CCW
    order, are the active constraints, and consecutive pairs meet at the
    polygon's vertices.  Vertex i starts the edge on the i-th active
    constraint, counted from the lowest constraint index.  Raises ValueError
    when the constraints do not bound a polygon around the origin.
    """
    if not np.all(offsets > 0.0):
        raise ValueError("half-plane offsets must be positive")
    try:
        hull = ConvexHull(normals / offsets[:, None])
    except QhullError as exc:
        raise ValueError(f"half-plane intersection degenerated: {exc}") from exc
    # Facet equations read n . p + e <= 0 inside; e < 0 keeps 0 strictly inside.
    if np.max(hull.equations[:, -1]) >= -DEDUP_TOL:
        raise ValueError("half-planes do not bound a polygon around the origin")
    active = np.roll(hull.vertices, -int(np.argmin(hull.vertices)))
    prev = np.roll(active, 1)
    lhs = np.stack([normals[prev], normals[active]], axis=1)
    rhs = np.stack([offsets[prev], offsets[active]], axis=1)
    poly = np.linalg.solve(lhs, rhs[..., None])[..., 0]
    # Constraints through a common vertex leave zero-length edges; drop them.
    lengths = np.linalg.norm(np.roll(poly, -1, axis=0) - poly, axis=1)
    return poly[lengths > DEDUP_TOL]


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
    poly = halfplane_polygon(normals, offsets)
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

def vertical_extent(tension: SurfaceTension) -> tuple[float, float]:
    """(inf, sup) of the vertical projection of K: (-phi(0,-1), phi(0,1))."""
    return (-tension.f_neg_eN, tension.f_eN)


def _one_minus_pow(x, q):
    """1 - x^q for 0 <= x < 1, accurate where x^q is close to 1; 1 at
    x = 0 and for q = inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.expm1(q * np.log(x))


@dataclass(frozen=True)
class AlphaTable:
    """alpha(z) = (1 - |z/tau|^q)^(1/q) on (-tau, tau), 0 outside, its
    inverse, and the cap volume above(z) = |K cap {x_N > z}| / |K_h|.

    tau = t_top = phi(0, 1) and q is the polar exponent of phi.  alpha is
    even with alpha(0) = 1, so ``inverse`` gives the root z >= 0 where alpha
    falls and -inverse the root where it rises.  With u = |z/tau|^q the half
    volume is (tau/q) B(1/q, (N-1)/q + 1); the part above z >= 0 is that
    times the upper regularized incomplete beta at u, which equals the
    lower one of the swapped parameters at 1 - u.  For q = inf (a box)
    alpha is 1 and above(z) = tau - z.
    """

    t_bot: float
    t_top: float
    total: float
    q: float
    nm1: int

    # Scalars are evaluated as one-element arrays: numpy's scalar power
    # rounds differently from its array loop, and a batched call must give
    # the scalar answers bit for bit.

    def _eval(self, z, formula):
        zs = np.atleast_1d(np.asarray(z, dtype=float))
        x = np.abs(zs) / self.t_top
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x < 1.0, formula(zs, x, _one_minus_pow(x, self.q)), 0.0)
        return float(out[0]) if np.ndim(z) == 0 else out

    def __call__(self, z):
        return self._eval(z, lambda z, x, w: w ** (1.0 / self.q))

    def slope(self, z):
        """alpha'(z); 0 outside (-tau, tau)."""
        q = self.q
        return self._eval(z, lambda z, x, w: (-np.sign(z) * x ** (q - 1.0)
                                              * w ** (1.0 / q - 1.0) / self.t_top))

    def above(self, z):
        q, tau = self.q, self.t_top
        zs = np.clip(np.atleast_1d(np.asarray(z, dtype=float)), self.t_bot, tau)
        if math.isinf(q):
            out = tau - zs
        else:
            a, b = 1.0 / q, self.nm1 / q + 1.0
            x = np.abs(zs) / tau
            u, w = x ** q, _one_minus_pow(x, q)
            # Each beta function takes the smaller of u and 1 - u: near 1 it
            # would form the complement itself, losing the digits of the tail.
            tail = 0.5 * self.total * np.where(u < w, betaincc(a, b, u), betainc(b, a, w))
            out = np.where(zs >= 0.0, tail, self.total - tail)
        return float(out[0]) if np.ndim(z) == 0 else out

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
    lo, hi = vertical_extent(tension)
    q, nm1 = tension.phi.polar_exponent, tension.dim - 1
    total = 2.0 * hi if math.isinf(q) else 2.0 * hi / q * beta(1.0 / q, nm1 / q + 1.0)
    return AlphaTable(t_bot=lo, t_top=hi, total=float(total), q=q, nm1=nm1)


# The benchmark harness calls the two tables of earlier versions by these
# names and reads their cache_info(); both are the one cached builder.
alpha_spline = alpha_volume_table = alpha_table


def wulff_alpha(tension: SurfaceTension, t):
    """Section scale alpha(t) of the full Wulff shape; 0 outside its extent."""
    return alpha_table(tension)(t)


def wulff_alpha_slope(tension: SurfaceTension, t):
    """alpha'(t); 0 outside the extent."""
    return alpha_table(tension).slope(t)


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


@dataclass(frozen=True)
class WulffProfile:
    """Sampled vertical profile t -> alpha(t) on the support of the shape."""

    ts: np.ndarray
    alphas: np.ndarray

    def concavity_defect(self) -> float:
        return concavity_defect(self.ts, self.alphas)


def wulff_profile(tension: SurfaceTension, n: int = 512) -> WulffProfile:
    lo, hi = vertical_extent(tension)
    ts = np.linspace(lo, hi, n)
    return WulffProfile(ts=ts, alphas=wulff_alpha(tension, ts))
