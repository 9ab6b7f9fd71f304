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

Energies are evaluated over a :class:`SetBlock`, many sets laid end to end
in one array pass per tension; :func:`energy` is that pass on a block of
one, and a set's energy is the same in any block.  The symmetrization
suite (``checks.suite_symmetrization``) still draws its random sets one
by one, in the same order, and evaluates them in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    stacked_energy,
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
    The set is pure geometry: an energy takes each edge's h from the
    tension it is evaluated with.
    """

    d: int
    base_vertices: np.ndarray
    edge_lengths: np.ndarray
    edge_normals: np.ndarray
    edge_supports: np.ndarray
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
    """Build a SlicedSet in the tension's slice dimension N - 1."""
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
    return SlicedSet(
        d=d,
        base_vertices=base_vertices,
        edge_lengths=lengths,
        edge_normals=normals,
        edge_supports=supports,
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


@dataclass(frozen=True, eq=False)
class SetBlock:
    """Sliced sets of one slice dimension laid end to end for one array pass.

    The slabs of all sets run set by set, and the (slab, edge) pairs slab by
    slab.  A slab's edges are summed as one ``np.add.reduceat`` segment
    (``pair_starts``), and a set's slabs by ``np.bincount`` over
    ``slab_set``, which also gives a one-knot set, with no slabs, its empty
    sum 0.  Each sum runs over its own terms in their own order, so a set's
    energy does not depend on the rest of the block.  Nothing here depends
    on the tension.
    """

    sets: tuple
    d: int
    edge_normals: np.ndarray  # (edges, d), the sets' edges in order
    pair_edge: np.ndarray  # edge of each pair
    pair_length: np.ndarray  # its edge length ** (d - 1)
    pair_slope: np.ndarray  # minus its support-plane velocity beta'.n_e + a' sigma_e
    pair_starts: np.ndarray  # first pair of each slab
    slab_set: np.ndarray  # set of each slab
    dt: np.ndarray  # slab widths
    gauss_scales: np.ndarray  # a ** (d - 1) at each slab's Gauss nodes
    area: np.ndarray  # |S| of each set
    bottom: np.ndarray  # a(0) ** d of each set
    top: np.ndarray  # a(T) of each set
    Fp: np.ndarray  # potential energy of each set

    @cached_property
    def profiles(self) -> tuple:
        """(members, knots, scales) for each knot count, the paths stacked."""
        n_knots = np.array([len(s.knots) for s in self.sets])
        return tuple(
            (idx, np.stack([self.sets[i].knots for i in idx]),
             np.stack([self.sets[i].scales for i in idx]))
            for idx in (np.flatnonzero(n_knots == k) for k in np.unique(n_knots)))


def _starts(counts: np.ndarray) -> np.ndarray:
    return np.cumsum(counts) - counts


def set_block(sets) -> SetBlock:
    """Lay the sets out for :func:`block_energy`."""
    sets = tuple(sets)
    d = sets[0].d
    if any(s.d != d for s in sets):
        raise ValueError("a block holds sets of one slice dimension")

    def cat(f):
        return np.concatenate([f(s) for s in sets])

    def slopes(s):
        # -w[slab, edge] = -(beta'.n_e + a' sigma_e), in products rather
        # than @, so that no fused multiply-add depends on the shapes.
        dt = np.diff(s.knots)[:, None]
        dbeta = np.diff(s.centers, axis=0) / dt
        w = dbeta[:, :1] * s.edge_normals[:, 0]
        for k in range(1, d):
            w += dbeta[:, k:k + 1] * s.edge_normals[:, k]
        w += np.diff(s.scales)[:, None] / dt * s.edge_supports
        return np.negative(w, out=w).ravel()

    # Slab k of set i meets each of set i's edges, edge by edge.
    n_slabs = np.array([len(s.knots) - 1 for s in sets])
    n_edges = np.array([len(s.edge_lengths) for s in sets])
    pair_edge = np.concatenate([np.tile(np.arange(e) + first, k) for e, first, k
                                in zip(n_edges, _starts(n_edges), n_slabs)])
    slab_set = np.repeat(np.arange(len(sets)), n_slabs)

    t0, dt = cat(lambda s: s.knots[:-1]), cat(lambda s: np.diff(s.knots))
    a, b = cat(lambda s: s.scales[:-1]), cat(lambda s: s.scales[1:])
    da = cat(lambda s: np.diff(s.scales))
    if d == 1:
        grav = t0 * dt * (a + b) / 2.0 + dt**2 * (a + 2.0 * b) / 6.0
    elif d == 2:
        q = (a * a + a * b + b * b) / 3.0
        g2 = a * a / 2.0 + 2.0 * a * (b - a) / 3.0 + (b - a) ** 2 / 4.0
        grav = t0 * dt * q + dt**2 * g2
    else:
        raise DimensionUnsupported(f"slice dimension {d} unsupported")
    area = np.array([s.base_area for s in sets])
    return SetBlock(
        sets=sets,
        d=d,
        edge_normals=cat(lambda s: s.edge_normals),
        pair_edge=pair_edge,
        pair_length=cat(lambda s: s.edge_lengths ** (d - 1))[pair_edge],
        pair_slope=cat(slopes),
        pair_starts=_starts(np.repeat(n_edges, n_slabs)),
        slab_set=slab_set,
        dt=dt,
        gauss_scales=(a[:, None] + da[:, None] * GAUSS_X) ** (d - 1),
        area=area,
        bottom=np.array([s.scales[0] for s in sets]) ** d,
        top=np.array([s.scales[-1] for s in sets]),
        Fp=area * np.bincount(slab_set, grav, len(sets)),
    )


def _slab_lateral(blk: SetBlock, tension: SurfaceTension) -> np.ndarray:
    """Lateral surface energy of every slab of the block (Gauss rule)."""
    h = tension.h.value(blk.edge_normals)
    phi = tension.phi.value(h[blk.pair_edge], blk.pair_slope)
    coef = np.add.reduceat(blk.pair_length * phi, blk.pair_starts)
    return blk.dt * (coef[:, None] * blk.gauss_scales * GAUSS_W).sum(axis=-1)


def block_energy(blk: SetBlock, tension: SurfaceTension, omega) -> EnergyBreakdown:
    """Exact energy F_s + F_c + F_p of every set of the block.

    ``Fs`` and ``Fp`` hold one entry per set; ``Fc`` and ``total`` too for
    a scalar ``omega``, and one row per set for a 1-D array of them.
    """
    check_omega(tension, omega)
    fs = np.bincount(blk.slab_set, _slab_lateral(blk, tension), len(blk.sets))
    fs = np.where(blk.top > 0, fs + tension.f_eN * blk.top ** blk.d * blk.area, fs)
    omega = np.asarray(omega, dtype=float)
    col = (lambda x: x[:, None]) if omega.ndim else (lambda x: x)
    fc = omega * col(blk.bottom) * col(blk.area)
    return EnergyBreakdown(Fs=fs, Fc=fc, Fp=blk.Fp,
                           total=col(fs) + fc + col(blk.Fp))


def energy(s: SlicedSet, tension: SurfaceTension, omega) -> EnergyBreakdown:
    """Exact energy F_s + F_c + F_p of the sliced set: :func:`block_energy`
    on a block of one.

    ``omega`` may be a 1-D array: F_s and F_p are then computed once, and
    ``Fc`` and ``total`` are arrays equal entry for entry to the scalar
    calls.
    """
    return block_energy(set_block([s]), tension, omega).at(0)


# ---------------------------------------------------------------------------
# Symmetrization
# ---------------------------------------------------------------------------

def _wulff_ratio(s: SlicedSet, body: WulffBody) -> float:
    """r / a of the rearrangement: (|S| / |K_h|)^(1/(N-1))."""
    return (s.base_area / body.area) ** (1.0 / s.d)


def symmetrize(s: SlicedSet, body: WulffBody,
               omega: Optional[float] = None) -> Profile:
    """Slice-measure preserving rearrangement onto dilates of the Wulff body.

    r(t) = (v(t)/|K_h|)^(1/(N-1)) = a(t) (|S|/|K_h|)^(1/(N-1)); for the
    homothetic slice families used here the rearranged profile is again
    piecewise linear, so the volume is preserved exactly.
    """
    return Profile(
        knots=s.knots.copy(),
        r=s.scales * _wulff_ratio(s, body),
        tension=body.tension,
        body=body,
        omega=omega,
    )


def symmetrized_energy(blk: SetBlock, body: WulffBody, omega) -> EnergyBreakdown:
    """``reduced_energy(symmetrize(s, body), omega)`` for every set of the
    block, shaped as :func:`block_energy`'s result.  Profiles with equal
    knot counts are evaluated as one stack."""
    check_omega(body.tension, omega)
    omega = np.asarray(omega, dtype=float)
    n_sets, cols = len(blk.sets), omega.shape
    out = {"Fs": np.empty(n_sets), "Fc": np.empty((n_sets,) + cols),
           "Fp": np.empty(n_sets), "total": np.empty((n_sets,) + cols)}
    ratio = np.array([_wulff_ratio(s, body) for s in blk.sets])
    for idx, knots, scales in blk.profiles:
        e = stacked_energy(body.tension, body, knots, scales * ratio[idx, None], omega)
        for name, arr in out.items():
            arr[idx] = getattr(e, name)
    return EnergyBreakdown(**out)


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
    orig = _slab_lateral(set_block([s]), tension)[slab_index]
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
