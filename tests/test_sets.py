import hashlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from wulffdrop import _quad, checks, reduced, sets
from wulffdrop.errors import DimensionUnsupported, EmptySlice, IndexOutOfRange, InvalidInput, OmegaOutOfRange
from wulffdrop.tension import make_tension
from wulffdrop.wulff import build_wulff_body


def cylinder(body, tension, radius, height):
    return sets.sliced_set(body.geometry, [0.0, height],
                           [radius, radius], np.zeros((2, 2)), tension)


def test_volume_cylinder(euclid, euclid_body):
    s = cylinder(euclid_body, euclid, 1.0, 2.0)
    assert sets.volume(s) == pytest.approx(2.0 * euclid_body.area, rel=1e-14)


def test_volume_cone(euclid, euclid_body):
    s = sets.sliced_set(euclid_body.geometry, [0.0, 3.0], [1.0, 0.0],
                        np.zeros((2, 2)), euclid)
    # int_0^3 (1 - t/3)^2 |S| dt = |S| (shape of pi for the exact disk).
    assert sets.volume(s) == pytest.approx(euclid_body.area, rel=1e-14)


def test_volume_empty(euclid, euclid_body):
    s = sets.sliced_set(euclid_body.geometry, [0.0, 1.0], [0.0, 0.0],
                        np.zeros((2, 2)), euclid)
    assert sets.volume(s) == 0.0


def test_energy_cylinder_closed_form(euclid, euclid_body):
    r, height, omega = 0.7, 1.3, -0.5
    s = cylinder(euclid_body, euclid, r, height)
    br = sets.energy(s, euclid, omega)
    area, perim = euclid_body.area, euclid_body.aniso_perimeter
    expected = (area * r * r * (omega + 1.0)
                + r * perim * height
                + area * r * r * height**2 / 2.0)
    assert br.total == pytest.approx(expected, rel=1e-14)


def test_energy_omega_validation(euclid, euclid_body):
    s = cylinder(euclid_body, euclid, 1.0, 1.0)
    with pytest.raises(OmegaOutOfRange):
        sets.energy(s, euclid, 1.5)
    with pytest.raises(OmegaOutOfRange):
        sets.energy(s, euclid, np.array([-0.5, 0.0, 1.5, 0.2]))


@pytest.mark.parametrize("tension", checks.builtin_tensions(),
                         ids=lambda t: t.tension_id)
def test_energy_omega_array_matches_scalar_calls(tension):
    rng = np.random.default_rng(3)
    omegas = np.array(checks.omega_samples(tension))
    for _ in range(20):
        s = sets.random_sliced_set(rng, tension)
        br = sets.energy(s, tension, omegas)
        for j, omega in enumerate(omegas):
            one = sets.energy(s, tension, float(omega))
            assert (br.Fs, br.Fp) == (one.Fs, one.Fp)
            assert br.Fc[j] == one.Fc and br.total[j] == one.total


def _symmetrization_reference(seed, trials):
    """The suite as a scalar loop: one set per tension, one call per omega."""
    tensions = checks.builtin_tensions()
    bodies = {t.tension_id: build_wulff_body(t, 1024) for t in tensions}
    rng = np.random.default_rng(seed)
    failures, min_total, checked = [], math.inf, 0
    for k in range(trials):
        geometry = sets.random_sliced_set(rng, tensions[0])
        for tension in tensions:
            s = sets.sliced_set(geometry.base_vertices, geometry.knots,
                                geometry.scales, geometry.centers, tension)
            for omega in checks.omega_samples(tension):
                e_orig = sets.energy(s, tension, omega).total
                prof = sets.symmetrize(s, bodies[tension.tension_id], omega=omega)
                e_symm = reduced.reduced_energy(prof).total
                min_total = min(min_total, e_symm, e_orig)
                checked += 1
                if e_symm > e_orig + 1e-9 * (1.0 + abs(e_orig)):
                    failures.append((k, tension.tension_id, omega, e_orig, e_symm))
    return checked, min_total, failures[:10]


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_symmetrization_matches_scalar_reference(seed):
    details = checks.suite_symmetrization(seed, trials=30)["details"]
    checked, min_total, failures = _symmetrization_reference(seed, 30)
    assert details["checked"] == checked == 360
    assert details["min_energy_seen"] == min_total
    assert details["failures"] == failures


def _convex_ngon(rng, n_edges):
    """A convex polygon with exactly n_edges edges: jittered angles on a circle."""
    theta = 2.0 * math.pi * (np.arange(n_edges) + rng.uniform(0.0, 0.5, n_edges)) / n_edges
    return rng.uniform(0.5, 1.5) * np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def _block_members(tension):
    """Sets over every edge count 3..12 and knot count 4..32, with positive
    tops, interior empty slices and an empty top among them."""
    rng = np.random.default_rng(17)
    members = []
    for n_knots in range(4, 33):
        n_edges = 3 + (n_knots - 4) % 10
        knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.5, n_knots - 1))])
        scales = rng.uniform(0.2, 1.2, n_knots)
        if n_knots % 3 == 0:
            scales[1:-1:2] = 0.0
        if n_knots % 4 == 0:
            scales[-1] = 0.0
        centers = np.cumsum(rng.normal(0.0, 0.15, (n_knots, 2)), axis=0)
        members.append(sets.sliced_set(_convex_ngon(rng, n_edges), knots, scales,
                                       centers, tension))
    return members


def _assert_block_matches_single_calls(members, tension, body):
    omegas = np.array(checks.omega_samples(tension))
    for order in (members, members[::-1]):
        blk = sets.set_block(order)
        got = sets.block_energy(blk, tension, omegas)
        symm = sets.symmetrized_energy(blk, body, omegas)
        for i, s in enumerate(order):
            one = sets.energy(s, tension, omegas)
            assert (got.Fs[i], got.Fp[i]) == (one.Fs, one.Fp)
            assert np.array_equal(got.total[i], one.total)
            assert np.array_equal(got.Fc[i], one.Fc)
            prof = sets.symmetrize(s, body)
            for j, omega in enumerate(omegas.tolist()):
                ref = reduced.reduced_energy(replace(prof, omega=omega))
                assert (symm.Fs[i], symm.Fp[i]) == (ref.Fs, ref.Fp)
                assert (symm.Fc[i, j], symm.total[i, j]) == (ref.Fc, ref.total)


@pytest.mark.parametrize("tension", checks.builtin_tensions(),
                         ids=lambda t: t.tension_id)
def test_block_energies_equal_single_set_calls(tension):
    members = _block_members(tension)
    assert {len(s.edge_lengths) for s in members} == set(range(3, 13))
    assert {len(s.knots) for s in members} == set(range(4, 33))
    assert any(s.scales[-1] > 0 for s in members)
    assert any(np.any(s.scales[1:-1] == 0.0) for s in members)
    _assert_block_matches_single_calls(members, tension,
                                       build_wulff_body(tension, 1024))


def test_one_knot_set_in_a_block(euclid, euclid_body):
    # A set of one knot has no slabs: its energy is its flat top and its
    # contact term, alone or between other sets.
    flat = sets.sliced_set(euclid_body.geometry, [0.0], [0.8], np.zeros((1, 2)), euclid)
    e = sets.energy(flat, euclid, -0.3)
    area = 0.64 * euclid_body.area
    assert e.Fs == pytest.approx(euclid.f_eN * area, rel=1e-15)
    assert e.Fp == 0.0 and e.Fc == pytest.approx(-0.3 * area, rel=1e-15)
    members = _block_members(euclid)[:3]
    _assert_block_matches_single_calls([flat] + members + [flat], euclid, euclid_body)


def test_block_energies_equal_single_set_calls_for_intervals():
    t2 = make_tension("euclid", dim=2)
    rng = np.random.default_rng(19)
    members = []
    for n_knots in (2, 5, 5, 11):
        knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.4, n_knots - 1))])
        lo = rng.uniform(-1.5, -0.5)
        members.append(sets.sliced_set(np.array([lo, lo + rng.uniform(0.5, 2.0)]), knots,
                                       rng.uniform(0.0, 1.0, n_knots),
                                       rng.normal(0.0, 0.2, (n_knots, 1)), t2))
    _assert_block_matches_single_calls(members, t2, build_wulff_body(t2))


@pytest.mark.parametrize("trials", [1, 257])
def test_suite_symmetrization_matches_reference_across_blocks(trials):
    # 257 trials leave a partial block after a full one.
    details = checks.suite_symmetrization(2, trials=trials)["details"]
    checked, min_total, failures = _symmetrization_reference(2, trials)
    assert details["checked"] == checked == 12 * trials
    assert details["min_energy_seen"] == min_total
    assert details["failures"] == failures


@pytest.mark.parametrize("trials", [0, -1])
def test_trials_below_one_are_input_errors(trials):
    # No trial would run, and the suite would pass vacuously.  run_suites
    # checks before any suite runs, whichever suites it is given.
    with pytest.raises(InvalidInput, match="trials must be at least 1"):
        checks.suite_symmetrization(trials=trials)
    with pytest.raises(InvalidInput, match="trials must be at least 1"):
        checks.run_suites(names=["young"], trials=trials)


def test_suite_symmetrization_reports_violations_in_trial_order(monkeypatch):
    # Raise chosen symmetrized energies past the bound, on both sides of a
    # block boundary and out of order, and read back where the suite found
    # them.
    tensions = [t.tension_id for t in checks.builtin_tensions()]
    injected = [(299, tensions[2], 0), (3, tensions[1], 2), (256, tensions[0], 3),
                (3, tensions[0], 1), (255, tensions[2], 3), (3, tensions[1], 0)]
    blocks = []
    draw, evaluate = sets.random_set_block, sets.symmetrized_energy

    def counted_draw(rng, count, tension):
        blocks.append(draw(rng, count, tension))
        return blocks[-1]

    def raised(blk, body, omega):
        e = evaluate(blk, body, omega)
        first = sum(len(b) for b in blocks[:blocks.index(blk)])
        for i in range(len(blk)):
            for k, tid, j in injected:
                if first + i == k and tid == body.tension.tension_id:
                    e.total[i, j] += 1e6
        return e

    monkeypatch.setattr(sets, "random_set_block", counted_draw)
    monkeypatch.setattr(sets, "symmetrized_energy", raised)
    result = checks.suite_symmetrization(0, trials=300)
    assert not result["passed"]
    found = result["details"]["failures"]
    expected = sorted(injected, key=lambda f: (f[0], tensions.index(f[1]), f[2]))
    assert [(k, tid) for k, tid, *_ in found] == [(k, tid) for k, tid, _ in expected]
    omegas = {t.tension_id: checks.omega_samples(t) for t in checks.builtin_tensions()}
    assert [om for _, _, om, _, _ in found] == [omegas[tid][j] for _, tid, j in expected]
    assert all(e_symm > e_orig for *_, e_orig, e_symm in found)


def test_suite_symmetrization_makes_one_profile_pass_per_block_and_tension(monkeypatch):
    # 300 trials are a block of 256 sets and one of 44; each is evaluated
    # under three tensions.
    passes = []
    one_pass = reduced.profile_energies

    def counted(body, knots, r, n_knots, omega):
        passes.append(len(n_knots))
        return one_pass(body, knots, r, n_knots, omega)

    monkeypatch.setattr(reduced, "profile_energies", counted)
    assert checks.suite_symmetrization(0, trials=300)["passed"]
    assert sorted(passes) == [44] * 3 + [256] * 3


@pytest.mark.parametrize("call", ["symmetrize", "symmetrized_energy", "jensen_gap",
                                  "barycenter_path", "block_energy", "energy"])
@pytest.mark.parametrize("set_dim", [1, 2])
def test_a_set_of_another_slice_dimension_is_an_input_error(call, set_dim):
    # A set is evaluated under a tension, or onto a body, of N = set_dim + 1
    # only: the rearrangement onto a body of another dimension would not
    # keep the set's volume.
    t2, t3 = make_tension("euclid", dim=2), make_tension("euclid")
    if set_dim == 1:
        s = sets.sliced_set([-1.0, 1.0], [0.0, 1.0], [1.0, 0.5], np.zeros((2, 1)), t2)
        other = t3
    else:
        s = sets.sliced_set(build_wulff_body(t3, 1024).geometry, [0.0, 1.0], [1.0, 0.5],
                            np.zeros((2, 2)), t3)
        other = t2
    body = build_wulff_body(other, 1024)
    calls = {
        "symmetrize": lambda: sets.symmetrize(s, body),
        "symmetrized_energy": lambda: sets.symmetrized_energy(sets.set_block([s]), body,
                                                              -0.3),
        "jensen_gap": lambda: sets.jensen_gap(s, 0, body),
        "barycenter_path": lambda: sets.barycenter_path(s, body),
        "block_energy": lambda: sets.block_energy(sets.set_block([s]), other, -0.3),
        "energy": lambda: sets.energy(s, other, -0.3),
    }
    with pytest.raises(InvalidInput, match=rf"slice dimension {set_dim} .* "
                                           rf"N - 1 = {other.dim - 1}"):
        calls[call]()


SET_FIELDS = ("base_vertices", "edge_lengths", "edge_normals", "edge_supports",
              "knots", "scales", "centers")


@pytest.mark.parametrize("seed", [0, 1, 5, 13])
def test_random_set_block_equals_successive_draws(seed, euclid):
    blk = sets.random_set_block(np.random.default_rng(seed), 300, euclid)
    rng = np.random.default_rng(seed)
    for s in blk.sets:
        one = sets.random_sliced_set(rng, euclid)
        assert s.d == one.d == 2 and s.base_area == one.base_area
        for name in SET_FIELDS:
            assert np.array_equal(getattr(s, name), getattr(one, name)), name
    # Both leave the generator at the same place.
    after = np.random.default_rng(seed)
    sets.random_set_block(after, 300, euclid)
    assert after.random() == rng.random()
    # The drawn block lays its sets out as set_block does.
    again = sets.set_block(blk.sets)
    for name, value in vars(blk).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, getattr(again, name)), name
    # The (slab, edge) rectangles too, array by array.
    assert len(blk.rects) == len(again.rects) > 1
    for rect, other in zip(blk.rects, again.rects):
        assert len(rect) == len(other)
        for value, expected in zip(rect, other):
            assert np.array_equal(value, expected)


# SHA-256 of the first 1,000 random sets' arrays (SET_FIELDS, then the base
# area, set by set) and the generator's next double after them, taken from
# the set-by-set sampler that random_set_block replaced.  A change to the
# random stream fails here even if the suite and its reference drift
# together.
DRAW_DIGESTS = {
    0: ("1e0a5154f052ea820212169b556b797d815e180f1460fe4fa60688a96d0cd7b9",
        0.2855482765585149),
    1: ("d9e7b217138b50522a992504c43d5ef546a7f56492269c8360d3068cff6ee976",
        0.907247174885173),
}


@pytest.mark.parametrize("seed", sorted(DRAW_DIGESTS))
def test_random_sets_match_the_golden_digest(seed, euclid):
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    for first in range(0, 1000, checks.SYMMETRIZATION_BLOCK):
        count = min(checks.SYMMETRIZATION_BLOCK, 1000 - first)
        for s in sets.random_set_block(rng, count, euclid).sets:
            for name in SET_FIELDS:
                digest.update(getattr(s, name).tobytes())
            digest.update(np.float64(s.base_area).tobytes())
    assert (digest.hexdigest(), rng.random()) == DRAW_DIGESTS[seed]


# SHA-256 of Fs, Fp and total (euclid, then weighted2, at omega_samples)
# of the first 512 random sets of seed 0, evaluated as one block, and of
# one 161-knot dome on the 1024-edge euclid body with drifting centers.
# sets.energy is block_energy on a block of one, so a change of summation
# order moves both sides of the block-equals-single-call tests together;
# it fails here.  Both tensions evaluate phi by products and np.sqrt only,
# so the bits do not depend on the platform's libm.
ENERGY_DIGEST = "d387a3bb47b71037f05c641b18ec0d93834fc7e02e5bff820ca27f55246ab177"


def test_set_energies_match_the_golden_digest(euclid, euclid_body, weighted2):
    blk = sets.random_set_block(np.random.default_rng(0), 512, euclid)
    rng = np.random.default_rng(23)
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.005, 0.02, 160))])
    scales = np.sqrt(np.maximum(1.0 - (knots / knots[-1]) ** 2, 0.0))
    centers = np.concatenate([np.zeros((1, 2)),
                              np.cumsum(rng.normal(0.0, 0.05, (160, 2)), axis=0)])
    dome = sets.sliced_set(euclid_body.geometry, knots, scales, centers, euclid)
    digest = hashlib.sha256()
    for tension in (euclid, weighted2):
        omegas = np.array(checks.omega_samples(tension))
        for e in (sets.block_energy(blk, tension, omegas),
                  sets.energy(dome, tension, omegas)):
            for values in (e.Fs, e.Fp, e.total):
                digest.update(np.ascontiguousarray(values, dtype=float).tobytes())
    assert digest.hexdigest() == ENERGY_DIGEST


def test_suite_symmetrization_golden_values():
    details = checks.suite_symmetrization(0)["details"]
    assert details["checked"] == 12000 and details["failures"] == []
    assert details["min_energy_seen"] == 0.06993257081073902


def test_energy_matches_reduced_parametrization(euclid, euclid_body):
    # A symmetric set and its radial profile are two parametrizations of
    # the same drop; for bases on the support planes the energies coincide.
    rng = np.random.default_rng(4)
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.4, 6))])
    scales = rng.uniform(0.2, 1.2, 7)
    s = sets.sliced_set(euclid_body.geometry, knots, scales,
                        np.zeros((7, 2)), euclid)
    prof = reduced.Profile(knots=knots, r=scales, body=euclid_body, omega=-0.4)
    assert sets.energy(s, euclid, -0.4).total == pytest.approx(
        reduced.reduced_energy(prof).total, rel=1e-12)


def test_energy_nonnegative_random(euclid):
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = sets.random_sliced_set(rng, euclid)
        for omega in (-0.8, -0.3, 0.0, 0.5):
            assert sets.energy(s, euclid, omega).total >= -1e-9


def test_symmetrize_fixed_point(euclid, euclid_body):
    s = cylinder(euclid_body, euclid, 0.8, 1.0)
    prof = sets.symmetrize(s, euclid_body, omega=-0.5)
    assert np.allclose(prof.r, 0.8, atol=1e-14)
    assert reduced.reduced_energy(prof).total == pytest.approx(
        sets.energy(s, euclid, -0.5).total, rel=1e-12)


def test_symmetrize_scaled_wulff_base_is_equality_case():
    # Square base under h = l_1: the base IS a scaled Wulff body, so the
    # symmetrized drop keeps the energy exactly (beta constant).
    t = make_tension("euclid", h_family="lp", h_p=1.0)
    body = build_wulff_body(t, 1024)
    knots = np.array([0.0, 0.5, 1.1])
    scales = np.array([1.0, 0.8, 0.3])
    s = sets.sliced_set(2.0 * body.geometry, knots, scales,
                        np.zeros((3, 2)), t)
    prof = sets.symmetrize(s, body, omega=-0.3)
    assert np.allclose(prof.r, scales * math.sqrt(s.base_area / body.area))
    assert reduced.reduced_energy(prof).total == pytest.approx(
        sets.energy(s, t, -0.3).total, rel=1e-12)
    assert reduced.reduced_volume(prof) == pytest.approx(sets.volume(s),
                                                         rel=1e-13)


def test_symmetrization_inequality_random(euclid, euclid_body):
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = sets.random_sliced_set(rng, euclid)
        e0 = sets.energy(s, euclid, -0.3).total
        prof = sets.symmetrize(s, euclid_body, omega=-0.3)
        e1 = reduced.reduced_energy(prof).total
        assert e1 <= e0 + 1e-9 * (1.0 + abs(e0))
        assert reduced.reduced_volume(prof) == pytest.approx(
            sets.volume(s), rel=1e-12)


def test_jensen_gap_wulff_base_vanishes(euclid, euclid_body):
    s = sets.sliced_set(euclid_body.geometry, [0.0, 1.0], [1.0, 0.7],
                        np.zeros((2, 2)), euclid)
    assert abs(sets.jensen_gap(s, 0, euclid_body)) <= 1e-10


def test_jensen_gap_drifting_center_positive(euclid, euclid_body):
    s = sets.sliced_set(euclid_body.geometry, [0.0, 1.0], [1.0, 1.0],
                        [[0.0, 0.0], [0.3, 0.0]], euclid)
    assert sets.jensen_gap(s, 0, euclid_body) > 1e-4


def test_jensen_gap_square_base_positive(euclid, euclid_body):
    square = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    s = sets.sliced_set(square, [0.0, 1.0], [1.0, 0.7],
                        np.zeros((2, 2)), euclid)
    assert sets.jensen_gap(s, 0, euclid_body) > 1e-3


def test_jensen_gap_index_validation(euclid, euclid_body):
    s = cylinder(euclid_body, euclid, 1.0, 1.0)
    with pytest.raises(IndexOutOfRange):
        sets.jensen_gap(s, 5, euclid_body)


def test_fubini_consistency(euclid, euclid_body):
    rng = np.random.default_rng(9)
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.2, 20))])
    scales = rng.uniform(0.2, 1.0, 21)
    s = sets.sliced_set(euclid_body.geometry, knots, scales,
                        np.zeros((21, 2)), euclid)
    fp = sets.energy(s, euclid, 0.0).Fp
    # Midpoint x slab volume approximates Fp to O(dt^2).
    mids = 0.5 * (knots[:-1] + knots[1:])
    slab_vol = np.array([
        sets.volume(sets.sliced_set(euclid_body.geometry,
                                    [0.0, knots[i + 1] - knots[i]],
                                    scales[i:i + 2], np.zeros((2, 2)), euclid))
        for i in range(20)
    ])
    approx = float(np.sum(mids * slab_vol))
    assert fp == pytest.approx(approx, abs=5e-3 * abs(fp))
    # The closed-form slab integrals are exact; compare against an
    # independent dense-trapezoid evaluation.
    tt = np.linspace(0, knots[-1], 200001)
    aa = np.interp(tt, knots, scales)
    dense = euclid_body.area * np.trapezoid(tt * aa**2, tt)
    assert fp == pytest.approx(dense, rel=1e-8)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_slab_moments_match_exact_rational_integrals(n):
    # int_0^1 r^n dx and int_0^1 x r^n dx for r = (1 - x) a + x b, against
    # the monomial expansion r^n = sum_j C(n, j) a^(n-j) (b - a)^j x^j
    # integrated in exact rationals; ends at 0 included.  Slice dimensions
    # 1 and 2 need n <= 2; n = 3 is refused.
    rng = np.random.default_rng(29)
    a = np.concatenate([[0.0, 1.0, 0.0, 0.3, 2.5], rng.uniform(0.0, 3.0, 200)])
    b = np.concatenate([[1.0, 0.0, 0.0, 1.7, 0.0], rng.uniform(0.0, 3.0, 200)])
    if n == 3:
        with pytest.raises(DimensionUnsupported, match="slab power 3"):
            _quad.slab_moments(a, b, n)
        with pytest.raises(DimensionUnsupported, match="slab power 3"):
            _quad.slab_volume(1.0, np.arange(len(a) + 1.0), np.append(a, 0.0), n)
        return
    mean, moment = _quad.slab_moments(a, b, n)
    eps = Fraction(np.finfo(float).eps)
    for i, (fa, fb) in enumerate(zip(map(Fraction, a.tolist()), map(Fraction, b.tolist()))):
        terms = [math.comb(n, j) * fa ** (n - j) * (fb - fa) ** j for j in range(n + 1)]
        for got, exact in ((mean[i], sum(c / (j + 1) for j, c in enumerate(terms))),
                           (moment[i], sum(c / (j + 2) for j, c in enumerate(terms)))):
            assert abs(Fraction(float(got)) - exact) <= 4 * eps * exact


def test_lateral_quadrature_convergence(euclid, euclid_body):
    # The closed-form slab sums agree with an independent 16-point Gauss
    # evaluation to 1e-9 (the per-edge integrand is polynomial in t within a
    # slab, so both are exact).
    rng = np.random.default_rng(13)
    s = sets.random_sliced_set(rng, euclid)
    fs = sets.energy(s, euclid, 0.0).Fs
    x16, w16 = np.polynomial.legendre.leggauss(16)
    x16 = 0.5 * (x16 + 1.0)
    w16 = 0.5 * w16
    n = s.d
    dt = np.diff(s.knots)
    # Support-plane velocities w[slab, edge] = beta'.n_e + a' sigma_e.
    wsp = (np.diff(s.centers, axis=0) / dt[:, None] @ s.edge_normals.T
           + (np.diff(s.scales) / dt)[:, None] * s.edge_supports[None, :])
    phi_edges = euclid.phi.value(euclid.h.value(s.edge_normals)[None, :], -wsp)
    a_g = s.scales[:-1, None] + np.diff(s.scales)[:, None] * x16[None, :]
    coef = (s.edge_lengths[None, :] ** (n - 1) * phi_edges).sum(axis=1)
    fs16 = float(np.sum(dt * (coef[:, None] * a_g ** (n - 1) * w16[None, :]).sum(axis=1)))
    if s.scales[-1] > 0:
        fs16 += euclid.f_eN * s.scales[-1] ** n * s.base_area
    assert fs == pytest.approx(fs16, abs=1e-9)


def test_barycenter_constant_and_linear(euclid, euclid_body):
    s = sets.sliced_set(euclid_body.geometry, [0.0, 1.0], [1.0, 0.5],
                        [[1.0, 2.0], [1.0, 2.0]], euclid)
    _, drift = sets.barycenter_path(s, euclid_body)
    assert drift <= 1e-12
    s2 = sets.sliced_set(euclid_body.geometry, [0.0, 1.0], [1.0, 1.0],
                         [[0.0, 0.0], [1.0, 0.0]], euclid)
    _, drift2 = sets.barycenter_path(s2, euclid_body)
    assert drift2 == pytest.approx(1.0, abs=1e-12)
    s3 = sets.sliced_set(euclid_body.geometry, [0.0, 1.0], [1.0, 0.0],
                         np.zeros((2, 2)), euclid)
    with pytest.raises(EmptySlice):
        sets.barycenter_path(s3, euclid_body)


def test_serialization_roundtrip(euclid):
    rng = np.random.default_rng(21)
    s = sets.random_sliced_set(rng, euclid)
    d = {"base_vertices": np.asarray(s.base_vertices).tolist(),
         "knots": s.knots.tolist(), "scales": s.scales.tolist(),
         "centers": s.centers.tolist()}
    s2 = sets.sliced_set_from_dict(d, euclid)
    assert np.allclose(s.base_vertices, s2.base_vertices)
    assert np.allclose(s.knots, s2.knots)
    assert np.allclose(s.scales, s2.scales)
    assert np.allclose(s.centers, s2.centers)
    assert sets.energy(s, euclid, -0.2).total == pytest.approx(
        sets.energy(s2, euclid, -0.2).total, rel=1e-15)


def test_interval_base_n2():
    t2 = make_tension("euclid", dim=2)
    body = build_wulff_body(t2)
    s = sets.sliced_set(np.array([-1.0, 1.0]), [0.0, 1.0], [1.0, 0.5],
                        np.zeros((2, 1)), t2)
    assert sets.volume(s) == pytest.approx(1.5)
    br = sets.energy(s, t2, -0.5)
    assert br.total >= -1e-9
    prof = sets.symmetrize(s, body, omega=-0.5)
    assert reduced.reduced_volume(prof) == pytest.approx(1.5, rel=1e-12)
    assert reduced.reduced_energy(prof).total <= br.total + 1e-9


@pytest.mark.parametrize("dim,base", [(2, [1.0, 1.0]), (2, [1.0, -1.0]),
                                      (3, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])],
                         ids=["empty-interval", "reversed-interval", "clockwise-triangle"])
def test_a_base_without_positive_measure_is_rejected(dim, base):
    with pytest.raises(ValueError, match="positive"):
        sets.sliced_set(base, [0.0, 1.0], [1.0, 0.5], np.zeros((2, dim - 1)),
                        make_tension("euclid", dim=dim))


def test_interval_base_faces_and_barycenter_path():
    # The base (-0.5, 1.5) has its end points as faces and the measure and
    # centroid of the body [-1, 1] shifted by 0.5, so r = a and beta is
    # the centers plus a * 0.5, exactly.
    t2 = make_tension("euclid", dim=2)
    s = sets.sliced_set([-0.5, 1.5], [0.0, 1.0, 2.0], [1.0, 0.5, 0.25],
                        [[0.0], [0.25], [-0.5]], t2)
    assert np.array_equal(s.edge_lengths, [1.0, 1.0])
    assert np.array_equal(s.edge_normals, [[-1.0], [1.0]])
    assert np.array_equal(s.edge_supports, [0.5, 1.5])
    assert s.base_area == 2.0
    assert np.array_equal(s.base_centroid, [0.5])
    beta, drift = sets.barycenter_path(s, build_wulff_body(t2))
    assert np.array_equal(beta, [[0.5], [0.5], [-0.375]])
    assert drift == 0.875
