"""Discrete generalized axially-sliced sets and their exact drop energy.

A :class:`SlicedSet` stacks homothetic copies of one convex base S, a
polygon for N = 3 or an interval for N = 2: the slice at height t is
a(t) S + beta(t) with a piecewise-linear scale path a and center path beta
over strictly increasing knots starting at 0.  The base enters through its
faces, from the same ``wulff.slice_faces`` as a Wulff body's: a polygon's
edges, or an interval's two end points.  For such sets the lateral surface
integrand is exact per face ("edge"): the support plane of edge e moves
with normal velocity beta'.n_e + a' sigma_e, so the energy

    F = F_s + omega * (wetted area) + int_E x_N

is computed by the profiles' exact slab pass (``_quad.slab_energies``, a
slab's faces summed into one lateral coefficient) without any polyhedral
machinery, while still distinguishing every equality/inequality regime of
the anisotropic symmetrization.

Energies are evaluated over a :class:`SetBlock`, many sets laid end to end
in one array pass per tension, its (slab, edge) terms as one dense
rectangle per edge count; :func:`energy` is that pass on a block of one,
and a set's energy is the same in any block.  The block's rearranged
profiles are evaluated by one ``reduced.profile_energies`` pass over the
block's own knots and scales (:func:`symmetrized_energy`).  Random sets are
drawn as a block too (:func:`random_set_block`), in the order of as many
:func:`random_sliced_set` calls.  The symmetrization suite
(``checks.suite_symmetrization``) draws and evaluates its sets in blocks.

A set is evaluated only under a tension, or onto a body, of its own slice
dimension N - 1; any other pairing raises :class:`InvalidInput`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import reduced
from .errors import DimensionUnsupported, EmptySlice, IndexOutOfRange, InvalidInput
from ._quad import slab_energies, slab_lateral, slab_layout, slab_volume
from .reduced import EnergyBreakdown, Profile, check_omega, lateral_energy
from .tension import SurfaceTension
from .wulff import (
    WulffBody,
    active_block,
    count_groups,
    polygon_areas,
    polygon_block,
    polygon_edges,
    segment_starts,
    slice_centroid,
    slice_faces,
)


@dataclass(frozen=True, eq=False)
class SlicedSet:
    """Stacked homothetic slices of a convex base.

    d = 2: ``base_vertices`` is the CCW vertex array of S.
    d = 1: ``base_vertices`` is the pair (lo, hi) of interval endpoints,
    whose edges are its two end points.
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
    """Build a SlicedSet in the tension's slice dimension N - 1; a base of
    another dimension or of no positive measure raises ValueError."""
    d = tension.dim - 1
    base_vertices = np.asarray(base_vertices, dtype=float)
    knots = np.asarray(knots, dtype=float)
    scales = np.asarray(scales, dtype=float)
    centers = np.asarray(centers, dtype=float).reshape(len(knots), d)
    if not all(np.isfinite(a).all() for a in (base_vertices, knots, scales, centers)):
        raise ValueError("base vertices, knots, scales and centers must be finite")
    lengths, normals, supports, area = slice_faces(base_vertices)
    if normals.shape[1] != d or not area > 0:
        raise ValueError(f"the base must have positive measure in N - 1 = {d} "
                         "dimensions: an interval lo < hi or a CCW polygon")
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
    set (``_quad.slab_layout``); every slab of a set meets the set's edges,
    so ``rects`` holds one (slabs, E) rectangle per edge count E.  A slab's
    edges are summed by ``np.add.reduceat`` along the edge axis, in a lone
    slab's order (``sum`` adds pairwise), and a set's slabs by
    ``_quad.slab_energies``.  Each sum runs over its own terms in their own
    order, so a set's energy does not depend on the rest of the block.
    Nothing here depends on the tension.
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


def _layout(d, n_edges, base_vertices, edge_lengths, edge_normals,
            edge_supports, area, n_knots, knots, scales, centers) -> SetBlock:
    """Lay out sets given as concatenated arrays for :func:`block_energy`."""
    if d not in (1, 2):
        raise DimensionUnsupported(f"slice dimension {d} unsupported")
    slab_set, lo = slab_layout(n_knots)
    dt = knots[lo + 1] - knots[lo]

    # -w = -(beta'.n_e + a' sigma_e) of each slab and its set's edges, in products
    # rather than @, so that no fused multiply-add depends on the shapes.
    dbeta = (centers[lo + 1] - centers[lo]) / dt[:, None]
    da_dt, lengths = (scales[lo + 1] - scales[lo]) / dt, edge_lengths ** (d - 1)
    rects = []
    for slabs, edges in count_groups(n_edges[slab_set], segment_starts(n_edges)[slab_set]):
        w = dbeta[slabs, None, 0] * edge_normals[edges, 0]
        for k in range(1, d):
            w += dbeta[slabs, None, k] * edge_normals[edges, k]
        w += da_dt[slabs, None] * edge_supports[edges]
        rects.append((slabs, edges, lengths[edges], np.negative(w, out=w)))
    return SetBlock(
        d=d, n_edges=n_edges, base_vertices=base_vertices,
        edge_lengths=edge_lengths, edge_normals=edge_normals,
        edge_supports=edge_supports, area=area, n_knots=n_knots, knots=knots,
        scales=scales, centers=centers, rects=tuple(rects))


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


def _check_dim(d: int, tension: SurfaceTension) -> None:
    """Raise InvalidInput unless the tension's slice dimension N - 1 is d."""
    if d != tension.dim - 1:
        raise InvalidInput(f"a set of slice dimension {d} under a tension of "
                           f"slice dimension N - 1 = {tension.dim - 1}")


def _lateral(blk: SetBlock, tension: SurfaceTension) -> np.ndarray:
    """Each slab's lateral coefficient sum_e len_e^(d-1) phi(h_e, -w_e)."""
    h, coef = tension.h.value(blk.edge_normals), np.empty(len(blk.knots) - len(blk))
    for slabs, edges, lengths, slopes in blk.rects:
        terms = lengths * tension.phi.value(h[edges], slopes)
        coef[slabs] = np.add.reduceat(terms, [0], axis=1)[:, 0]
    return coef


def block_energy(blk: SetBlock, tension: SurfaceTension, omega) -> EnergyBreakdown:
    """Exact energy F_s + F_c + F_p of every set of the block (one pass).

    ``Fs`` and ``Fp`` hold one entry per set; ``Fc`` and ``total`` too for
    a scalar ``omega``, and one row per set for a 1-D array of them.
    """
    _check_dim(blk.d, tension)
    check_omega(tension, omega)
    return EnergyBreakdown(*slab_energies(blk.knots, blk.scales, blk.n_knots, blk.d,
                                          _lateral(blk, tension), blk.area,
                                          tension.f_eN, omega))


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
    _check_dim(s.d, body.tension)
    return Profile(
        knots=s.knots.copy(),
        r=s.scales * _wulff_ratio(s.base_area, s.d, body),
        body=body,
        omega=omega,
    )


def symmetrized_energy(blk: SetBlock, body: WulffBody, omega) -> EnergyBreakdown:
    """``reduced_energy(symmetrize(s, body, omega))`` for every set of the
    block, shaped as :func:`block_energy`'s result: one
    :func:`reduced.profile_energies` pass over the block's rearranged
    profiles."""
    _check_dim(blk.d, body.tension)
    check_omega(body.tension, omega)
    ratio = [_wulff_ratio(a, blk.d, body) for a in blk.area.tolist()]
    return reduced.profile_energies(body, blk.knots,
                                    blk.scales * np.repeat(ratio, blk.n_knots),
                                    blk.n_knots, np.asarray(omega, dtype=float))


def jensen_gap(s: SlicedSet, slab_index: int, body: WulffBody) -> float:
    """Per-slab surface-energy drop under symmetrization (>= 0), under the
    tension of ``body``.

    Integrates the difference between the per-edge lateral integrand and the
    integrand of the measure-matched Wulff rearrangement.  It vanishes (to
    rounding) exactly when the slab's slices are homothetic dilates of K_h
    whose effective center does not drift.
    """
    _check_dim(s.d, body.tension)
    if not (0 <= slab_index < len(s.knots) - 1):
        raise IndexOutOfRange(f"slab index {slab_index} out of range")
    # The slab alone, laid out as a set of two knots, with no flat top, as
    # lateral_energy.
    slab = slice(slab_index, slab_index + 2)
    coef = _lateral(_layout(s.d, np.array([len(s.edge_lengths)]), s.base_vertices,
                            s.edge_lengths, s.edge_normals, s.edge_supports,
                            np.array([s.base_area]), np.array([2]), s.knots[slab],
                            s.scales[slab], s.centers[slab]), body.tension)
    orig = slab_lateral(s.knots[slab], s.scales[slab], np.array([2]), s.d, coef)
    # The symmetrized slab's radii, as symmetrize gives them.
    radii = s.scales[slab] * _wulff_ratio(s.base_area, s.d, body)
    return float(orig[0] - lateral_energy(body, s.knots[slab], radii))


# ---------------------------------------------------------------------------
# Barycenter path
# ---------------------------------------------------------------------------

def barycenter_path(s: SlicedSet, body: WulffBody):
    """Per-knot slice-centroid offsets relative to the centered rearrangement.

    Returns (centers, drift) where drift = max_t |beta(t) - beta(t_0)|.
    Requires positive slice measure at every knot.
    """
    _check_dim(s.d, body.tension)
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

def draw_constraints(rng: np.random.Generator, n_edges: int):
    """Sample the half planes of a bounded convex polygon: sorted random
    normals, redrawn while they leave an angular gap of 0.9 pi or more,
    then random offsets in [0.5, 1.5].  Returns the normals, in CCW order,
    and the offsets; :func:`convex_polygons` finds the active ones.

    Every such draw bounds a polygon around the origin.  Each direction
    has a normal within 0.45 pi of it, so the polygon lies within radius
    1.5 / cos(0.45 pi); by polarity each hull edge of the points
    nu_j / c_j lies at least (2/3) cos(0.45 pi) > 0.1 from the origin, far
    beyond ``wulff.DEDUP_TOL``, and the origin inside the hull leaves at
    least three vertices.
    """
    for _ in range(256):
        theta = np.sort(rng.uniform(0.0, 2.0 * math.pi, n_edges))
        t = theta.tolist()
        gap = max([t[0] + 2.0 * math.pi - t[-1]] + [b - a for a, b in zip(t, t[1:])])
        if gap < 0.9 * math.pi:
            return np.array((np.cos(theta), np.sin(theta))).T, rng.uniform(0.5, 1.5, n_edges)
    raise RuntimeError("polygon sampling failed to converge")


def convex_polygons(drawn):
    """CCW vertices, laid end to end, and vertex counts of the polygons of
    ``drawn`` (normals, offsets) pairs of :func:`draw_constraints`: one hull
    pass (``wulff.active_block``) and one vertex solve for all of them.
    Such draws always bound a polygon; one that does not raises
    RuntimeError."""
    normals = np.concatenate([nu for nu, _ in drawn])
    offsets = np.concatenate([c for _, c in drawn])
    try:
        active, kept = active_block(normals, offsets, [len(c) for _, c in drawn])
    except ValueError as exc:
        raise RuntimeError(f"drawn half-planes bound no polygon: {exc}") from exc
    return polygon_block(normals[active], offsets[active], kept)


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
    polygon's rejection test; the hulls, vertices, edges, areas and paths
    are then computed once for the whole block.
    """
    if tension.dim != 3:
        raise DimensionUnsupported("random sets are generated for N = 3 only")
    drawn, n_knots, dts, a0, steps, moves = [], [], [], [], [], []
    for _ in range(count):
        drawn.append(draw_constraints(rng, int(rng.integers(3, 13))))
        n = int(rng.integers(4, 33))
        n_knots.append(n)
        dts.append(rng.uniform(0.05, 0.5, n - 1))
        a0.append(rng.uniform(0.3, 1.2))
        steps.append(rng.normal(0.0, 0.25, n - 1))
        moves.append(rng.normal(0.0, 0.15, (n - 1, 2)))
    poly, n_edges = convex_polygons(drawn)
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
