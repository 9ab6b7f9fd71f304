"""Discrete generalized axially-sliced sets and their exact drop energy.

A :class:`SlicedSet` stacks homothetic copies of one convex base polygon S:
the slice at height t is a(t) S + beta(t) with a piecewise-linear scale path
a and center path beta over strictly increasing knots starting at 0.  For
such sets the lateral surface integrand is exact per edge: the support plane
of edge e moves with normal velocity beta'.n_e + a' sigma_e, so the energy

    F = F_s + omega * (wetted area) + int_E x_N

is computed by per-slab quadrature without any polyhedral machinery, while
still distinguishing every equality/inequality regime of the anisotropic
symmetrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionUnsupported, EmptySlice, IndexOutOfRange
from ._quad import slab_volume
from .reduced import (
    EnergyBreakdown,
    GAUSS_W,
    GAUSS_X,
    Profile,
    check_omega,
    lateral_slab_energy,
)
from .tension import SurfaceTension
from .wulff import (
    WulffBody,
    halfplane_polygon,
    polygon_area,
    polygon_edges,
    slice_centroid,
)


@dataclass(frozen=True, eq=False)
class SlicedSet:
    """Stacked homothetic slices of a convex base polygon.

    d = 2: ``base_vertices`` is the CCW vertex array of S.
    d = 1: ``base_vertices`` is the pair (lo, hi) of interval endpoints.
    """

    d: int
    base_vertices: np.ndarray
    edge_lengths: np.ndarray
    edge_normals: np.ndarray
    edge_supports: np.ndarray
    edge_h: np.ndarray
    base_area: float
    knots: np.ndarray
    scales: np.ndarray
    centers: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.knots, dtype=float)
        a = np.asarray(self.scales, dtype=float)
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("knots must be strictly increasing with t_0 = 0")
        if np.any(a < 0):
            raise ValueError("scales must be non-negative")
        if len(a) != len(t) or len(self.centers) != len(t):
            raise ValueError("knots, scales and centers must have equal length")

    @property
    def base_centroid(self) -> np.ndarray:
        return slice_centroid(self.base_vertices)


def sliced_set(base_vertices, knots, scales, centers,
               tension: SurfaceTension) -> SlicedSet:
    """Build a SlicedSet, deriving the per-edge data from the tension's h."""
    d = tension.dim - 1
    base_vertices = np.asarray(base_vertices, dtype=float)
    centers = np.asarray(centers, dtype=float).reshape(len(knots), d)
    if d == 1:
        lo, hi = float(base_vertices[0]), float(base_vertices[1])
        if hi <= lo:
            raise ValueError("interval base must have positive length")
        lengths = np.array([1.0, 1.0])
        normals = np.array([[-1.0], [1.0]])
        supports = np.array([-lo, hi])
        area = hi - lo
    elif d == 2:
        lengths, normals, supports = polygon_edges(base_vertices)
        area = polygon_area(base_vertices)
        if area <= 0:
            raise ValueError("base polygon must be CCW with positive area")
    else:
        raise DimensionUnsupported(f"slice dimension {d} unsupported")
    edge_h = tension.h.value(normals)
    return SlicedSet(
        d=d,
        base_vertices=base_vertices,
        edge_lengths=lengths,
        edge_normals=normals,
        edge_supports=supports,
        edge_h=edge_h,
        base_area=area,
        knots=np.asarray(knots, dtype=float),
        scales=np.asarray(scales, dtype=float),
        centers=centers,
    )


# ---------------------------------------------------------------------------
# Volume and energy
# ---------------------------------------------------------------------------

def volume(s: SlicedSet) -> float:
    """Exact integral of the slice measure a(t)^(N-1) |S|."""
    return slab_volume(s.base_area, s.knots, s.scales, s.d)


def _edge_speeds(s: SlicedSet) -> np.ndarray:
    """Support-plane velocities w[slab, edge] = beta'.n_e + a' sigma_e."""
    dt = np.diff(s.knots)[:, None]
    da = np.diff(s.scales)[:, None] / dt
    dbeta = np.diff(s.centers, axis=0) / dt
    return dbeta @ s.edge_normals.T + da * s.edge_supports[None, :]


def lateral_integrand(s: SlicedSet, tension: SurfaceTension) -> np.ndarray:
    """Per-slab, per-Gauss-node lateral surface integrand (summed over edges)."""
    n = s.d
    w = _edge_speeds(s)
    phi_edges = tension.phi.value(s.edge_h[None, :], -w)
    a_g = s.scales[:-1, None] + np.diff(s.scales)[:, None] * GAUSS_X[None, :]
    coef = (s.edge_lengths[None, :] ** (n - 1) * phi_edges).sum(axis=1)
    return coef[:, None] * a_g ** (n - 1)


def energy(s: SlicedSet, tension: SurfaceTension, omega) -> EnergyBreakdown:
    """Exact energy F_s + F_c + F_p of the sliced set.

    ``omega`` may be a 1-D array: F_s and F_p are then computed once, and
    ``Fc`` and ``total`` are arrays equal entry for entry to the scalar
    calls.
    """
    check_omega(tension, omega)
    if np.ndim(omega):
        omega = np.asarray(omega, dtype=float)
    n = s.d
    dt = np.diff(s.knots)
    fs = float(np.sum(dt * (lateral_integrand(s, tension) * GAUSS_W[None, :]).sum(axis=1)))
    if s.scales[-1] > 0:
        fs += tension.f_eN * s.scales[-1] ** n * s.base_area
    fc = omega * float(s.scales[0] ** n) * s.base_area

    a, b = s.scales[:-1], s.scales[1:]
    t0 = s.knots[:-1]
    if n == 1:
        grav = t0 * dt * (a + b) / 2.0 + dt**2 * (a + 2.0 * b) / 6.0
    elif n == 2:
        q = (a * a + a * b + b * b) / 3.0
        g2 = a * a / 2.0 + 2.0 * a * (b - a) / 3.0 + (b - a) ** 2 / 4.0
        grav = t0 * dt * q + dt**2 * g2
    else:
        raise DimensionUnsupported(f"slice dimension {n} unsupported")
    fp = float(s.base_area * np.sum(grav))
    return EnergyBreakdown(Fs=fs, Fc=fc, Fp=fp, total=fs + fc + fp)


# ---------------------------------------------------------------------------
# Symmetrization
# ---------------------------------------------------------------------------

def symmetrize(s: SlicedSet, body: WulffBody,
               omega: Optional[float] = None) -> Profile:
    """Slice-measure preserving rearrangement onto dilates of the Wulff body.

    r(t) = (v(t)/|K_h|)^(1/(N-1)) = a(t) (|S|/|K_h|)^(1/(N-1)); for the
    homothetic slice families used here the rearranged profile is again
    piecewise linear, so the volume is preserved exactly.
    """
    ratio = (s.base_area / body.area) ** (1.0 / s.d)
    return Profile(
        knots=s.knots.copy(),
        r=s.scales * ratio,
        tension=body.tension,
        body=body,
        omega=omega,
    )


def jensen_gap(s: SlicedSet, slab_index: int, tension: SurfaceTension,
               body: WulffBody) -> float:
    """Per-slab surface-energy drop under symmetrization (>= 0).

    Integrates the difference between the per-edge lateral integrand and the
    integrand of the measure-matched Wulff rearrangement.  It vanishes (to
    rounding) exactly when the slab's slices are homothetic dilates of K_h
    whose effective center does not drift.
    """
    if not (0 <= slab_index < len(s.knots) - 1):
        raise IndexOutOfRange(f"slab index {slab_index} out of range")
    dt = np.diff(s.knots)[slab_index]
    orig = dt * np.sum(GAUSS_W * lateral_integrand(s, tension)[slab_index])
    p, slab = symmetrize(s, body), slice(slab_index, slab_index + 2)
    symm = lateral_slab_energy(body.tension, body.lam, p.knots[slab], p.r[slab])[0]
    return float(orig - body.area * symm)


# ---------------------------------------------------------------------------
# Barycenter path
# ---------------------------------------------------------------------------

def barycenter_path(s: SlicedSet, body: WulffBody):
    """Per-knot slice-centroid offsets relative to the centered rearrangement.

    Returns (centers, drift) where drift = max_t |beta(t) - beta(t_0)|.
    Requires positive slice measure at every knot.
    """
    if np.any(s.scales <= 0):
        raise EmptySlice("barycenter undefined on empty slices")
    ratio = (s.base_area / body.area) ** (1.0 / s.d)
    r = s.scales * ratio
    cs = s.base_centroid
    ck = body.centroid
    beta = s.centers + s.scales[:, None] * cs[None, :] - r[:, None] * ck[None, :]
    drift = float(np.max(np.linalg.norm(beta - beta[0], axis=1)))
    return beta, drift


# ---------------------------------------------------------------------------
# Seeded random sets (property-test driver)
# ---------------------------------------------------------------------------

def random_convex_polygon(rng: np.random.Generator, n_edges: int) -> np.ndarray:
    """Rejection-sample a bounded convex polygon from sorted random normals."""
    for _ in range(256):
        theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_edges))
        gaps = np.diff(np.concatenate([theta, [theta[0] + 2.0 * math.pi]]))
        if np.max(gaps) >= 0.9 * math.pi:
            continue
        normals = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        offsets = rng.uniform(0.5, 1.5, n_edges)
        try:
            poly = halfplane_polygon(normals, offsets)
        except ValueError:
            continue
        if len(poly) >= 3:
            return poly
    raise RuntimeError("polygon sampling failed to converge")


def random_sliced_set(rng: np.random.Generator, tension: SurfaceTension) -> SlicedSet:
    """Seeded random SlicedSet: random convex base of 3 to 12 edges, clamped
    nonnegative random-walk scale path and random-walk center path on 4 to
    32 knots."""
    if tension.dim != 3:
        raise DimensionUnsupported("random sets are generated for N = 3 only")
    n_edges = int(rng.integers(3, 13))
    poly = random_convex_polygon(rng, n_edges)
    n_knots = int(rng.integers(4, 33))
    dts = rng.uniform(0.05, 0.5, n_knots - 1)
    knots = np.concatenate([[0.0], np.cumsum(dts)])
    a0 = rng.uniform(0.3, 1.2)
    steps = rng.normal(0.0, 0.25, n_knots - 1)
    scales = np.maximum(np.concatenate([[a0], a0 + np.cumsum(steps)]), 0.0)
    if np.all(scales == 0.0):
        scales[0] = a0
    centers = np.concatenate(
        [np.zeros((1, 2)), np.cumsum(rng.normal(0.0, 0.15, (n_knots - 1, 2)), axis=0)]
    )
    return sliced_set(poly, knots, scales, centers, tension)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def sliced_set_to_dict(s: SlicedSet) -> dict:
    return {
        "base_vertices": np.asarray(s.base_vertices).tolist(),
        "knots": s.knots.tolist(),
        "scales": s.scales.tolist(),
        "centers": s.centers.tolist(),
    }


def sliced_set_from_dict(d: dict, tension: SurfaceTension) -> SlicedSet:
    return sliced_set(
        np.asarray(d["base_vertices"], dtype=float),
        np.asarray(d["knots"], dtype=float),
        np.asarray(d["scales"], dtype=float),
        np.asarray(d["centers"], dtype=float),
        tension,
    )
