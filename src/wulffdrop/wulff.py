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

    alpha(t) = inf_y max{ phi(1, y) - t y, 0 },

the infimum running over the whole real line (the clamp handles heights
outside the vertical extent).  ``alpha_table`` interpolates it once per
tension and inverts it on either monotone side of its peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.spatial import ConvexHull, QhullError

from .errors import DimensionUnsupported, InvalidInput
from .tension import SurfaceTension

# Edges shorter than this are dropped.  The origin must also sit this far
# inside the polar hull, which bounds the polygon within radius 1e12.
DEDUP_TOL = 1e-12

# Golden-section width for the alpha(t) minimization.
ALPHA_TOL = 1e-10

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def _alpha_minimize(tension: SurfaceTension, ts: np.ndarray):
    """Vectorized minimization of y -> phi(1, y) - t y for t inside the extent.

    Returns (alpha, y_star); by the envelope theorem alpha'(t) = -y_star(t).
    The bracket starts at the documented range [-2 phi(0,-1), 2 phi(0,1)] and
    is expanded geometrically whenever the objective still decreases at an
    endpoint (the minimizer escapes to infinity as t approaches the poles).
    """
    phi = tension.phi

    def g(y):
        return phi.value(1.0, y) - ts * y

    lo = np.full(ts.shape, -2.0 * tension.f_neg_eN - 1.0)
    hi = np.full(ts.shape, 2.0 * tension.f_eN + 1.0)
    for _ in range(80):
        width = hi - lo
        probe = 1e-6 * width
        grow_hi = g(hi) < g(hi - probe)
        grow_lo = g(lo) < g(lo + probe)
        if not (grow_hi.any() or grow_lo.any()):
            break
        hi = np.where(grow_hi, hi + 2.0 * width, hi)
        lo = np.where(grow_lo, lo - 2.0 * width, lo)

    # 256-point localization, then golden section inside the bracketing cell.
    grid = lo[None, :] + (hi - lo)[None, :] * np.linspace(0.0, 1.0, 257)[:, None]
    vals = phi.value(1.0, grid) - ts[None, :] * grid
    k = np.argmin(vals, axis=0)
    cell = (hi - lo) / 256.0
    a = lo + cell * np.maximum(k - 1, 0)
    b = lo + cell * np.minimum(k + 1, 256)
    c = b - _INV_GOLDEN * (b - a)
    dpt = a + _INV_GOLDEN * (b - a)
    fc, fd = g(c), g(dpt)
    # Near the poles y_star is so large that one ulp of it exceeds
    # ALPHA_TOL; such a bracket stops shrinking, and so does the widest
    # one (every width is non-increasing), which ends the loop there.
    width = np.max(b - a)
    while width > ALPHA_TOL:
        take = fc > fd
        a = np.where(take, c, a)
        b = np.where(take, b, dpt)
        c = b - _INV_GOLDEN * (b - a)
        dpt = a + _INV_GOLDEN * (b - a)
        fc, fd = g(c), g(dpt)
        width, last = np.max(b - a), width
        if width >= last:
            break
    y_star = 0.5 * (a + b)
    return np.maximum(g(y_star), 0.0), y_star


def wulff_alpha(tension: SurfaceTension, t):
    """Section scale alpha(t) of the full Wulff shape; 0 outside its extent."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    lo, hi = vertical_extent(tension)
    out = np.zeros_like(t_arr)
    inside = (t_arr > lo) & (t_arr < hi)
    if inside.any():
        out[inside], _ = _alpha_minimize(tension, t_arr[inside])
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def wulff_alpha_slope(tension: SurfaceTension, t):
    """alpha'(t) = -y_star(t) from the envelope of the defining infimum."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    lo, hi = vertical_extent(tension)
    out = np.zeros_like(t_arr)
    inside = (t_arr > lo) & (t_arr < hi)
    if inside.any():
        _, ystar = _alpha_minimize(tension, t_arr[inside])
        out[inside] = -ystar
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


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


# ---------------------------------------------------------------------------
# Interpolated alpha and its cumulative section volume
# ---------------------------------------------------------------------------

# The alpha table samples 2 * ALPHA_CELLS + 1 heights; the cumulative volume
# applies Simpson's rule to each pair of cells.
ALPHA_CELLS = 2048


@dataclass(frozen=True)
class AlphaTable:
    """Interpolated alpha and C(z) = integral_{t_bot}^{z} alpha(u)^(N-1) du.

    Both splines run in the grading coordinate xi of one set of exact
    golden-section samples, clustered quadratically at both poles so the
    sqrt-type vanishing of alpha never meets the interpolation or the
    quadrature (alpha error ~1e-13).  ``peak`` is the height of the widest
    section and ``above(z)`` returns |K cap {x_N > z}| / |K_h|.  The samples
    rise up to index ``_k_peak`` and fall after it.
    """

    t_bot: float
    t_top: float
    peak: float
    total: float
    _alpha: CubicSpline
    _cumulative: CubicSpline
    _samples: np.ndarray
    _k_peak: int

    def _u_xi(self, z):
        u = (np.asarray(z, dtype=float) - self.t_bot) / (self.t_top - self.t_bot)
        return u, np.arccos(1.0 - 2.0 * np.clip(u, 0.0, 1.0)) / math.pi

    def __call__(self, z):
        u, xi = self._u_xi(z)
        out = np.where((u > 0.0) & (u < 1.0), self._alpha(xi), 0.0)
        return float(out) if np.ndim(z) == 0 else out

    def cumulative(self, z):
        return self._cumulative(self._u_xi(z)[1])

    def above(self, z):
        return self.total - self.cumulative(z)

    def solve_on_branch(self, target, z_lo, z_hi):
        """z in [z_lo, z_hi] with alpha(z) = target, assuming monotonicity.

        The arguments broadcast against each other.  An entry returns z_lo
        when alpha(z_lo) = target, and z_hi when alpha - target keeps one sign
        on its branch.
        """
        target, z_lo, z_hi = np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in (target, z_lo, z_hi)))
        f_lo = self(z_lo) - target
        f_hi = self(z_hi) - target
        z = np.where(f_lo == 0.0, z_lo, z_hi)
        todo = f_lo * f_hi < 0.0
        if todo.any():
            z[todo] = self._invert(target[todo], z_lo[todo], z_hi[todo],
                                   f_hi[todo] > 0.0)
        return float(z) if z.ndim == 0 else z

    def _invert(self, target, z_lo, z_hi, rising):
        """Roots bracketed by [z_lo, z_hi], to 1e-15 in xi.

        A search of the samples on alpha's rising or falling side gives the
        spline cell holding each root; Newton steps on the cell's cubic,
        kept inside the shrinking bracket by bisection, then converge to it.
        """
        x, c, vals, kp = self._alpha.x, self._alpha.c, self._samples, self._k_peak
        xi_lo, xi_hi = self._u_xi(z_lo)[1], self._u_xi(z_hi)[1]
        first = np.where(rising, np.searchsorted(vals[:kp + 1], target),
                         kp + np.searchsorted(-vals[kp:], -target))
        cell = np.clip(first - 1,
                       np.minimum(np.searchsorted(x, xi_lo, "right") - 1, len(x) - 2),
                       np.maximum(np.searchsorted(x, xi_hi) - 1, 0))
        a = np.maximum(x[cell], xi_lo)
        b = np.minimum(x[cell + 1], xi_hi)
        x0, (c0, c1, c2, c3) = x[cell], c[:, cell]
        xi = 0.5 * (a + b)
        moving = np.ones(xi.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(64):
                d = xi - x0
                g = ((c0 * d + c1) * d + c2) * d + c3 - target
                below = (g < 0.0) == rising
                a, b = np.where(below, xi, a), np.where(below, b, xi)
                step = xi - g / ((3.0 * c0 * d + 2.0 * c1) * d + c2)
                step = np.where((step >= a) & (step <= b), step, 0.5 * (a + b))
                # A converged entry stops moving, so batching never changes it.
                xi, moving = np.where(moving, step, xi), moving & (np.abs(step - xi) > 1e-15)
                if not moving.any():
                    break
        z = self.t_bot + (self.t_top - self.t_bot) * 0.5 * (1.0 - np.cos(math.pi * xi))
        return np.clip(z, z_lo, z_hi)


@lru_cache(maxsize=32)
def alpha_table(tension: SurfaceTension) -> AlphaTable:
    lo, hi = vertical_extent(tension)
    span = hi - lo
    xi = np.linspace(0.0, 1.0, 2 * ALPHA_CELLS + 1)
    ts = lo + span * 0.5 * (1.0 - np.cos(math.pi * xi))
    vals = wulff_alpha(tension, ts)
    k_peak = int(np.argmax(vals))
    peak = float(ts[k_peak])
    # Refine the peak in the original coordinate (alpha is concave there).
    grid = np.linspace(max(lo, peak - 0.01 * span), min(hi, peak + 0.01 * span), 201)
    peak = float(grid[int(np.argmax(wulff_alpha(tension, grid)))])
    dt_dxi = span * 0.5 * math.pi * np.sin(math.pi * xi)
    integrand = vals ** (tension.dim - 1) * dt_dxi
    h = xi[1] - xi[0]
    cells = (integrand[0:-2:2] + 4.0 * integrand[1::2] + integrand[2::2]) * (2 * h) / 6.0
    cum = np.concatenate([[0.0], np.cumsum(cells)])
    vals.flags.writeable = False
    return AlphaTable(t_bot=lo, t_top=hi, peak=peak, total=float(cum[-1]),
                      _alpha=CubicSpline(xi, vals),
                      _cumulative=CubicSpline(xi[::2], cum),
                      _samples=vals, _k_peak=k_peak)


# The benchmark harness calls the two tables of earlier versions by these
# names and reads their cache_info(); both are the one cached builder.
alpha_spline = alpha_volume_table = alpha_table
