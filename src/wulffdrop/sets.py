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
in one array pass per tension, its (slab, edge) terms as one dense
rectangle per edge count; :func:`energy` is that pass on a block of one,
and a set's energy is the same in any block.  Random sets are drawn as a
block too (:func:`random_set_block`), in the order of as many
:func:`random_sliced_set` calls.  The symmetrization suite
(``checks.suite_symmetrization``) draws and evaluates its sets in blocks.
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
    active_constraints,
    count_groups,
    polygon_area,
    polygon_areas,
    polygon_block,
    polygon_edges,
    segment_starts,
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
    knots = np.asarray(knots, dtype=float)
    scales = np.asarray(scales, dtype=float)
    centers = np.asarray(centers, dtype=float).reshape(len(knots), d)
    if not all(np.isfinite(a).all() for a in (base_vertices, knots, scales, centers)):
        raise ValueError("base vertices, knots, scales and centers must be finite")
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
        knots=knots,
        scales=scales,
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

    The sets' own arrays are concatenated, set by set: ``n_edges`` and
    ``n_knots`` give each set's share.  The slabs of all sets run set by
    set; every slab of a set meets the set's edges, so ``rects`` holds one
    (slabs, E) rectangle per edge count E.  A slab's edges are summed by
    ``np.add.reduceat`` along the edge axis, in a lone slab's order (``sum``
    adds pairwise), and a set's slabs by ``np.bincount`` over ``slab_set``,
    which also gives a one-knot set, with no slabs, its empty sum 0.  Each
    sum runs over its own terms in their own order, so a set's energy does
    not depend on the rest of the block.  Nothing here depends on the
    tension.
    """

    d: int
    n_edges: np.ndarray  # edges of each set
    base_vertices: np.ndarray  # the sets' base vertices (d = 2) or (lo, hi) pairs
    edge_lengths: np.ndarray
    edge_normals: np.ndarray  # (edges, d)
    edge_supports: np.ndarray
    area: np.ndarray  # |S| of each set
    n_knots: np.ndarray  # knots of each set
    knots: np.ndarray
    scales: np.ndarray
    centers: np.ndarray  # (knots, d)
    rects: tuple  # (slabs, edges, edge length ** (d - 1), -(beta'.n_e + a' sigma_e))
    slab_set: np.ndarray  # set of each slab
    dt: np.ndarray  # slab widths
    gauss_scales: np.ndarray  # a ** (d - 1) at each slab's Gauss nodes
    bottom: np.ndarray  # a(0) ** d of each set
    top: np.ndarray  # a(T) of each set
    Fp: np.ndarray  # potential energy of each set

    def __len__(self) -> int:
        return len(self.area)

    @cached_property
    def sets(self) -> tuple:
        """The block's sets as SlicedSets; their arrays are views of the block's."""
        def split(arr, counts):
            return np.split(arr, np.cumsum(counts)[:-1])

        return tuple(
            SlicedSet(d=self.d, base_vertices=v, edge_lengths=l, edge_normals=n,
                      edge_supports=h, base_area=a, knots=t, scales=r, centers=c)
            for v, l, n, h, a, t, r, c in zip(
                split(self.base_vertices, self.n_edges),
                split(self.edge_lengths, self.n_edges),
                split(self.edge_normals, self.n_edges),
                split(self.edge_supports, self.n_edges), self.area.tolist(),
                split(self.knots, self.n_knots), split(self.scales, self.n_knots),
                split(self.centers, self.n_knots)))

    @cached_property
    def profiles(self) -> tuple:
        """(members, knots, scales) for each knot count, the paths stacked."""
        return tuple((members, self.knots[rows], self.scales[rows])
                     for members, rows in count_groups(self.n_knots))


def _layout(d, n_edges, base_vertices, edge_lengths, edge_normals,
            edge_supports, area, n_knots, knots, scales, centers) -> SetBlock:
    """Lay out sets given as concatenated arrays for :func:`block_energy`."""
    if d not in (1, 2):
        raise DimensionUnsupported(f"slice dimension {d} unsupported")
    n_slabs, knot0 = n_knots - 1, segment_starts(n_knots)
    slab_set = np.repeat(np.arange(len(n_knots)), n_slabs)
    # Slab j starts at knot j + its set's index: each set ends on a knot.
    lo = np.arange(len(slab_set)) + slab_set
    t0, dt = knots[lo], knots[lo + 1] - knots[lo]
    a, b = scales[lo], scales[lo + 1]
    da = b - a

    # -w = -(beta'.n_e + a' sigma_e) of each slab and its set's edges, in products
    # rather than @, so that no fused multiply-add depends on the shapes.
    dbeta = (centers[lo + 1] - centers[lo]) / dt[:, None]
    da_dt, lengths = da / dt, edge_lengths ** (d - 1)
    rects = []
    for slabs, edges in count_groups(n_edges[slab_set], segment_starts(n_edges)[slab_set]):
        w = dbeta[slabs, None, 0] * edge_normals[edges, 0]
        for k in range(1, d):
            w += dbeta[slabs, None, k] * edge_normals[edges, k]
        w += da_dt[slabs, None] * edge_supports[edges]
        rects.append((slabs, edges, lengths[edges], np.negative(w, out=w)))

    if d == 1:
        grav = t0 * dt * (a + b) / 2.0 + dt**2 * (a + 2.0 * b) / 6.0
    else:
        q = (a * a + a * b + b * b) / 3.0
        g2 = a * a / 2.0 + 2.0 * a * (b - a) / 3.0 + (b - a) ** 2 / 4.0
        grav = t0 * dt * q + dt**2 * g2
    return SetBlock(
        d=d, n_edges=n_edges, base_vertices=base_vertices,
        edge_lengths=edge_lengths, edge_normals=edge_normals,
        edge_supports=edge_supports, area=area, n_knots=n_knots, knots=knots,
        scales=scales, centers=centers,
        rects=tuple(rects),
        slab_set=slab_set,
        dt=dt,
        gauss_scales=(a[:, None] + da[:, None] * GAUSS_X) ** (d - 1),
        bottom=scales[knot0] ** d,
        top=scales[knot0 + n_slabs],
        Fp=area * np.bincount(slab_set, grav, len(n_knots)),
    )


def set_block(sets) -> SetBlock:
    """Lay the sets out for :func:`block_energy`."""
    sets = tuple(sets)
    d = sets[0].d
    if any(s.d != d for s in sets):
        raise ValueError("a block holds sets of one slice dimension")

    def cat(name):
        return np.concatenate([getattr(s, name) for s in sets])

    return _layout(
        d, np.array([len(s.edge_lengths) for s in sets]), cat("base_vertices"),
        cat("edge_lengths"), cat("edge_normals"), cat("edge_supports"),
        np.array([s.base_area for s in sets], dtype=float),
        np.array([len(s.knots) for s in sets]), cat("knots"), cat("scales"),
        cat("centers"))


def _slab_lateral(blk: SetBlock, tension: SurfaceTension) -> np.ndarray:
    """Lateral surface energy of every slab of the block (Gauss rule)."""
    h, coef = tension.h.value(blk.edge_normals), np.empty(len(blk.dt))
    for slabs, edges, lengths, slopes in blk.rects:
        terms = lengths * tension.phi.value(h[edges], slopes)
        coef[slabs] = np.add.reduceat(terms, [0], axis=1)[:, 0]
    return blk.dt * (coef[:, None] * blk.gauss_scales * GAUSS_W).sum(axis=-1)


def block_energy(blk: SetBlock, tension: SurfaceTension, omega) -> EnergyBreakdown:
    """Exact energy F_s + F_c + F_p of every set of the block.

    ``Fs`` and ``Fp`` hold one entry per set; ``Fc`` and ``total`` too for
    a scalar ``omega``, and one row per set for a 1-D array of them.
    """
    check_omega(tension, omega)
    fs = np.bincount(blk.slab_set, _slab_lateral(blk, tension), len(blk))
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

def _wulff_ratio(base_area: float, d: int, body: WulffBody) -> float:
    """r / a of the rearrangement: (|S| / |K_h|)^(1/(N-1))."""
    return (base_area / body.area) ** (1.0 / d)


def symmetrize(s: SlicedSet, body: WulffBody,
               omega: Optional[float] = None) -> Profile:
    """Slice-measure preserving rearrangement onto dilates of the Wulff body.

    r(t) = (v(t)/|K_h|)^(1/(N-1)) = a(t) (|S|/|K_h|)^(1/(N-1)); for the
    homothetic slice families used here the rearranged profile is again
    piecewise linear, so the volume is preserved exactly.
    """
    return Profile(
        knots=s.knots.copy(),
        r=s.scales * _wulff_ratio(s.base_area, s.d, body),
        body=body,
        omega=omega,
    )


def symmetrized_energy(blk: SetBlock, body: WulffBody, omega) -> EnergyBreakdown:
    """``reduced_energy(symmetrize(s, body), omega)`` for every set of the
    block, shaped as :func:`block_energy`'s result.  Profiles with equal
    knot counts are evaluated as one stack."""
    check_omega(body.tension, omega)
    omega = np.asarray(omega, dtype=float)
    n_sets, cols = len(blk), omega.shape
    out = {"Fs": np.empty(n_sets), "Fc": np.empty((n_sets,) + cols),
           "Fp": np.empty(n_sets), "total": np.empty((n_sets,) + cols)}
    ratio = np.array([_wulff_ratio(a, blk.d, body) for a in blk.area.tolist()])
    for idx, knots, scales in blk.profiles:
        e = stacked_energy(body.tension, body, knots, scales * ratio[idx, None], omega)
        for name, arr in out.items():
            arr[idx] = getattr(e, name)
    return EnergyBreakdown(**out)


def jensen_gap(s: SlicedSet, slab_index: int, body: WulffBody) -> float:
    """Per-slab surface-energy drop under symmetrization (>= 0), under the
    tension of ``body``.

    Integrates the difference between the per-edge lateral integrand and the
    integrand of the measure-matched Wulff rearrangement.  It vanishes (to
    rounding) exactly when the slab's slices are homothetic dilates of K_h
    whose effective center does not drift.
    """
    if not (0 <= slab_index < len(s.knots) - 1):
        raise IndexOutOfRange(f"slab index {slab_index} out of range")
    orig = _slab_lateral(set_block([s]), body.tension)[slab_index]
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
    r = s.scales * _wulff_ratio(s.base_area, s.d, body)
    beta = (s.centers + s.scales[:, None] * s.base_centroid[None, :]
            - r[:, None] * body.centroid[None, :])
    drift = float(np.max(np.linalg.norm(beta - beta[0], axis=1)))
    return beta, drift


# ---------------------------------------------------------------------------
# Seeded random sets (property-test driver)
# ---------------------------------------------------------------------------

def _draw_constraints(rng: np.random.Generator, n_edges: int):
    """Rejection-sample the half planes of a bounded convex polygon: sorted
    random normals with no angular gap of 0.9 pi or more, then random
    offsets, until the hull scan finds them bounding a polygon around the
    origin.  Returns the active constraints' normals and offsets in CCW
    order."""
    for _ in range(256):
        theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_edges))
        t = theta.tolist()
        gap = max([t[0] + 2.0 * math.pi - t[-1]] + [b - a for a, b in zip(t, t[1:])])
        if gap >= 0.9 * math.pi:
            continue
        normals = np.array((np.cos(theta), np.sin(theta))).T
        offsets = rng.uniform(0.5, 1.5, n_edges)
        try:
            active = active_constraints(normals, offsets)
        except ValueError:
            continue
        return normals[active], offsets[active]
    raise RuntimeError("polygon sampling failed to converge")


def random_convex_polygon(rng: np.random.Generator, n_edges: int) -> np.ndarray:
    """Rejection-sample a bounded convex polygon from sorted random normals."""
    normals, offsets = _draw_constraints(rng, n_edges)
    return polygon_block(normals, offsets, [len(offsets)])[0]


def _walks(steps: list, n_knots: np.ndarray, start=None) -> np.ndarray:
    """Random walks of ``n_knots`` points from ``start`` (0 by default) with
    the given steps, concatenated.  The steps are padded into rows and
    summed by one row-wise cumsum, so each walk's prefix sums are those of
    ``np.cumsum`` on its own steps."""
    width, tail = int(n_knots.max()), steps[0].shape[1:]
    padded = np.zeros((len(n_knots), width - 1) + tail)
    padded[np.arange(width - 1) < n_knots[:, None] - 1] = np.concatenate(steps)
    walks = np.zeros((len(n_knots), width) + tail)
    walks[:, 1:] = np.cumsum(padded, axis=1)
    if start is not None:
        walks[:, 1:] = start[:, None] + walks[:, 1:]
        walks[:, 0] = start
    return walks[np.arange(width) < n_knots[:, None]]


def random_set_block(rng: np.random.Generator, count: int,
                     tension: SurfaceTension) -> SetBlock:
    """``count`` seeded random sliced sets as one block, each with a random
    convex base of 3 to 12 edges, a clamped nonnegative random-walk scale
    path and a random-walk center path on 4 to 32 knots.

    The generator is read set by set, in one loop that also runs each
    polygon's rejection test and hull scan; the vertices, edges, areas and
    paths are then computed once for the whole block.
    """
    if tension.dim != 3:
        raise DimensionUnsupported("random sets are generated for N = 3 only")
    normals, offsets, n_edges, n_knots = [], [], [], []
    dts, a0, steps, moves = [], [], [], []
    for _ in range(count):
        nu, c = _draw_constraints(rng, int(rng.integers(3, 13)))
        normals.append(nu)
        offsets.append(c)
        n_edges.append(len(c))
        n = int(rng.integers(4, 33))
        n_knots.append(n)
        dts.append(rng.uniform(0.05, 0.5, n - 1))
        a0.append(rng.uniform(0.3, 1.2))
        steps.append(rng.normal(0.0, 0.25, n - 1))
        moves.append(rng.normal(0.0, 0.15, (n - 1, 2)))
    poly, n_edges = polygon_block(np.concatenate(normals), np.concatenate(offsets),
                                  n_edges)
    n_knots = np.array(n_knots)
    # a0 >= 0.3, so the clamp leaves the first slice nonempty.
    scales = np.maximum(_walks(steps, n_knots, np.array(a0)), 0.0)
    return _layout(2, n_edges, poly, *polygon_edges(poly, n_edges),
                   polygon_areas(poly, n_edges), n_knots, _walks(dts, n_knots),
                   scales, _walks(moves, n_knots))


def random_sliced_set(rng: np.random.Generator, tension: SurfaceTension) -> SlicedSet:
    """One seeded random SlicedSet: :func:`random_set_block` of one set."""
    return random_set_block(rng, 1, tension).sets[0]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def sliced_set_from_dict(d: dict, tension: SurfaceTension) -> SlicedSet:
    return sliced_set(d["base_vertices"], d["knots"], d["scales"], d["centers"], tension)
