import math
from dataclasses import replace

import numpy as np
import pytest

from wulffdrop import checks, odesolve, reduced
from wulffdrop.errors import EmptyBase, InvalidInput, NonConvergence, OmegaOutOfRange
from wulffdrop.tension import check_admissible, make_tension
from wulffdrop.wulff import build_wulff_body

from conftest import hemisphere_profile, support_is_interval


def test_reduced_energy_cylinder(euclid, euclid_body):
    rho, height, omega = 0.7, 1.3, -0.5
    p = reduced.Profile(knots=np.array([0.0, height]),
                        r=np.array([rho, rho]), body=euclid_body, omega=omega)
    area, perim = euclid_body.area, euclid_body.aniso_perimeter
    expected = (area * rho**2 * (omega + 1.0) + rho * perim * height
                + area * rho**2 * height**2 / 2.0)
    assert reduced.reduced_energy(p).total == pytest.approx(expected, rel=1e-14)


def test_reduced_energy_zero_profile(euclid, euclid_body):
    p = reduced.Profile(knots=np.array([0.0, 1.0]), r=np.zeros(2),
                        body=euclid_body, omega=-0.5)
    assert reduced.reduced_energy(p).total == 0.0


def test_reduced_energy_omega_range(euclid, euclid_body):
    p = hemisphere_profile(euclid_body)
    with pytest.raises(OmegaOutOfRange):
        reduced.reduced_energy(replace(p, omega=2.0))
    with pytest.raises(OmegaOutOfRange):
        reduced.reduced_energy(reduced.Profile(knots=p.knots, r=p.r, body=p.body))


@pytest.mark.parametrize("tension", checks.builtin_tensions(),
                         ids=lambda t: t.tension_id)
def test_reduced_energy_omega_array_matches_scalar_calls(tension):
    body = build_wulff_body(tension, 1024)
    omegas = np.array(checks.omega_samples(tension))
    for p in (hemisphere_profile(body),
              reduced.Profile(knots=np.array([0.0, 0.4, 1.1]),
                              r=np.array([1.2, 0.9, 0.5]), body=body)):
        br = reduced.profile_energies(body, p.knots, p.r, np.array([len(p.knots)]),
                                      omegas).at(0)
        for j, omega in enumerate(omegas.tolist()):
            one = reduced.reduced_energy(replace(p, omega=omega))
            assert (br.Fs, br.Fp) == (one.Fs, one.Fp)
            assert br.Fc[j] == one.Fc and br.total[j] == one.total


def test_check_omega_rejects_one_bad_array_entry(euclid):
    reduced.check_omega(euclid, np.array([-0.9, 0.0, 0.9]))
    for bad in (1.0, -1.0, np.nan):
        with pytest.raises(OmegaOutOfRange):
            reduced.check_omega(euclid, np.array([-0.5, bad, 0.5]))


def test_reduced_volume_examples(euclid, euclid_body):
    p = reduced.Profile(knots=np.array([0.0, 2.0]), r=np.array([1.0, 1.0]),
                        body=euclid_body)
    assert reduced.reduced_volume(p) == pytest.approx(2 * euclid_body.area)
    cone = reduced.Profile(knots=np.array([0.0, 3.0]), r=np.array([1.0, 0.0]),
                           body=euclid_body)
    assert reduced.reduced_volume(cone) == pytest.approx(euclid_body.area)


def test_reduced_volume_refinement_invariant(euclid, euclid_body):
    rng = np.random.default_rng(5)
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.3, 8))])
    r = rng.uniform(0.1, 1.0, 9)
    p = reduced.Profile(knots=knots, r=r, body=euclid_body)
    v0 = reduced.reduced_volume(p)
    mid_t = 0.5 * (knots[:-1] + knots[1:])
    knots2 = np.sort(np.concatenate([knots, mid_t]))
    p2 = reduced.Profile(knots=knots2, r=np.interp(knots2, knots, r),
                         body=euclid_body)
    assert reduced.reduced_volume(p2) == pytest.approx(v0, rel=1e-12)


def test_el_residual_cylinder_not_critical(euclid, euclid_body):
    t = np.linspace(0.0, 1.0, 21)
    p = reduced.Profile(knots=t, r=np.full_like(t, 0.8), body=euclid_body, omega=-0.5)
    res = reduced.el_residual(p, 0.0)
    # The gravity term is unbalanced for a cylinder.
    assert res.max_abs() > 0.5


def test_el_residual_skips_zero_radius(euclid, euclid_body):
    t = np.linspace(0.0, 1.0, 11)
    r = np.maximum(0.5 - t, 0.0)
    p = reduced.Profile(knots=t, r=r, body=euclid_body)
    res = reduced.el_residual(p, 0.0)
    assert len(res.skipped) > 0
    assert np.all(np.interp(res.ts, t, r) > 0)


def test_young_residual_closed_form(euclid, euclid_body):
    # Contact slope -Lambda/s* satisfies Young's condition exactly;
    # s*(omega=-0.8) = 1.5 for the isotropic weight in R^3.
    s_star = odesolve.s_star(euclid, -0.8)
    assert s_star == pytest.approx(1.5, rel=1e-12)
    slope = -euclid_body.lam / s_star
    t = np.linspace(0.0, 0.5, 11)
    p = reduced.Profile(knots=t, r=1.0 + slope * t, body=euclid_body, omega=-0.8)
    assert reduced.young_residual(p) == pytest.approx(0.0, abs=1e-12)
    assert slope == pytest.approx(-4.0 / 3.0, rel=1e-12)


def test_young_residual_empty_base(euclid, euclid_body):
    t = np.linspace(0.0, 1.0, 5)
    p = reduced.Profile(knots=t, r=np.array([0.0, 0.1, 0.1, 0.05, 0.0]),
                        body=euclid_body, omega=-0.5)
    with pytest.raises(EmptyBase):
        reduced.young_residual(p)


def test_minimize_direct_invariants(euclid_direct):
    p = euclid_direct
    assert reduced.reduced_volume(p) == pytest.approx(1.0, rel=1e-10)
    assert p.concavity_defect() <= 1e-7 * np.max(p.r)
    assert support_is_interval(p)
    assert p.r[0] > 0
    assert p.r[-1] == 0.0


def test_minimize_direct_descent_monotone(euclid_body):
    # The energy each Newton step starts from never increases, up to the
    # line search's slack of 1e-14 of the energy.
    prof = reduced.minimize_direct(euclid_body, -0.3, 0.7, grid_size=81)
    energies = [step["energy"] for step in prof.meta["steps"]]
    assert len(energies) > 1
    assert all(b <= a + 1e-14 * abs(a) for a, b in zip(energies, energies[1:]))


def test_minimize_direct_stall_raises_with_its_last_iterate(euclid_body):
    # The one failure path: an unconverged solve raises, and the exception
    # carries the iterate with the diagnostics the bench tracer reads.
    with pytest.raises(NonConvergence) as info:
        reduced.minimize_direct(euclid_body, -0.5, 10.0, max_iter=1)
    meta = info.value.state.meta
    assert meta["iterations"] == 1
    assert meta["converged"] is False
    assert len(meta["steps"]) == 1


def test_minimize_direct_validations(euclid_body):
    with pytest.raises(OmegaOutOfRange):
        reduced.minimize_direct(euclid_body, 1.5, 1.0)
    with pytest.raises(ValueError):
        reduced.minimize_direct(euclid_body, -0.5, -1.0)


@pytest.mark.parametrize("m", [0.0, -1.0, math.nan, math.inf])
def test_minimize_direct_rejects_bad_mass(euclid_body, m):
    # InvalidInput, which generic code still catches as a ValueError.
    with pytest.raises(ValueError, match="mass must be positive and finite") as info:
        reduced.minimize_direct(euclid_body, -0.5, m)
    assert isinstance(info.value, InvalidInput)


def test_minimize_direct_positive_omega_beats_random_sets(euclid, euclid_body):
    # Non-graph regime: r'(0) > 0, and the minimizer energy lower-bounds the
    # symmetrized energies of random same-volume sets.
    from wulffdrop import sets

    prof = reduced.minimize_direct(euclid_body, 0.4, 1.0, grid_size=121)
    slope0 = (prof.r[1] - prof.r[0]) / (prof.knots[1] - prof.knots[0])
    assert slope0 > 0
    assert prof.concavity_defect() <= 1e-6
    e_min = reduced.reduced_energy(prof).total
    rng = np.random.default_rng(15)
    for _ in range(100):
        s = sets.random_sliced_set(rng, euclid)
        v = sets.volume(s)
        scaled = sets.sliced_set(s.base_vertices, s.knots,
                                 s.scales * (1.0 / v) ** 0.5, s.centers, euclid)
        assert sets.energy(scaled, euclid, 0.4).total > e_min


def _random_slice_state(tension, seed, n_knots=33):
    """Seeded random (functional, rho, T) on apex-graded knots, rho_M = 0."""
    rng = np.random.default_rng(seed)
    body = build_wulff_body(tension, 256)
    xi = reduced.apex_graded(n_knots)
    fn = reduced._SliceMeasureFunctional(body, -0.5 * tension.f_eN, xi)
    rho = np.append(rng.uniform(0.2, 1.5, n_knots - 1), 0.0)
    return fn, rho, float(rng.uniform(0.5, 1.5)), rng


SLICE_CASES = [("euclid", 3, {}), ("pnorm", 3, {"p": 3.0}),
               ("weighted", 3, {"c": 2.0}), ("euclid", 2, {})]


@pytest.mark.parametrize("name,dim,kw", SLICE_CASES)
def test_slice_measure_grads_match_central_differences(name, dim, kw):
    # The gradient the direct solver runs on: dE/drho, dE/dT, dV/drho, dV/dT
    # at every free knot (rho_M = 0 is held fixed by the solver).
    tension = make_tension(name, dim=dim, **kw)
    for seed in range(3):
        fn, rho, t_top, _ = _random_slice_state(tension, seed)
        e, g, de_dT, vol, gv, dv_dT, _ = fn.grads(rho, t_top)
        assert e == fn.energy(rho, t_top)[0] and vol == fn.volume(rho, t_top)

        def fd(f, i=None):
            h = 1e-5 * (rho[i] if i is not None else t_top)
            if i is None:
                return (f(rho, t_top + h) - f(rho, t_top - h)) / (2 * h)
            rp, rm = rho.copy(), rho.copy()
            rp[i] += h
            rm[i] -= h
            return (f(rp, t_top) - f(rm, t_top)) / (2 * h)

        def energy(r, t):
            return fn.energy(r, t)[0]

        for i in range(len(rho) - 1):
            assert g[i] == pytest.approx(fd(energy, i), rel=1e-6, abs=1e-8)
            assert gv[i] == pytest.approx(fd(fn.volume, i), rel=1e-6, abs=1e-10)
        assert de_dT == pytest.approx(fd(energy), rel=1e-6, abs=1e-8)
        assert dv_dT == pytest.approx(fd(fn.volume), rel=1e-6, abs=1e-10)


def _dense_hessian(diag, off, col, tt):
    """The bordered-tridiagonal Hessian of grads as one dense matrix."""
    n = len(diag)
    hess = np.diag(np.append(diag, tt))
    hess[np.arange(n - 1), np.arange(1, n)] = off
    hess[np.arange(1, n), np.arange(n - 1)] = off
    hess[:n, n] = hess[n, :n] = col
    return hess


@pytest.mark.parametrize("name,dim,kw", SLICE_CASES)
def test_lagrangian_hessian_matches_gradient_differences(name, dim, kw):
    # Exact Hessian-vector products of the Lagrangian E + lam_mult V in the
    # free unknowns (rho_0..rho_{M-1}, T) against a fourth-order central
    # difference of its gradient along random directions.
    tension = make_tension(name, dim=dim, **kw)
    fn, rho, t_top, rng = _random_slice_state(tension, 7)
    lam_mult = -1.3
    n = len(rho) - 1
    *_, gv, _, (diag, off, col, tt) = fn.grads(rho, t_top)
    hess = _dense_hessian(diag[:n], off[:n - 1],
                          col[:n] + lam_mult * gv[:n] / t_top, tt)

    def lag_grad(z):
        _, g, de_dT, _, gv, dv_dT, _ = fn.grads(np.append(z[:n], 0.0), z[n])
        return np.append(g[:-1] + lam_mult * gv[:-1], de_dT + lam_mult * dv_dT)

    z = np.append(rho[:-1], t_top)
    for _ in range(3):
        v = rng.normal(size=n + 1) * z
        eps = 3e-5
        fd = (8.0 * (lag_grad(z + eps * v) - lag_grad(z - eps * v))
              - (lag_grad(z + 2 * eps * v) - lag_grad(z - 2 * eps * v))) / (12 * eps)
        hv = hess @ v
        assert np.max(np.abs(hv - fd)) <= 1e-7 * np.max(np.abs(fd))


@pytest.mark.parametrize("shift", [0.0, 1e-2])
@pytest.mark.parametrize("name,dim,kw", SLICE_CASES)
def test_banded_kkt_step_matches_dense_solve(name, dim, kw, shift):
    # The banded solve with its 2x2 Schur complement is the dense solve of
    # the same bordered KKT matrix, also with a diagonal shift applied.  The
    # system is the solver's first one on 33 knots (condition number below
    # 1e5): a dense solve itself is only good to about cond * 1e-16.
    tension = make_tension(name, dim=dim, **kw)
    body = build_wulff_body(tension, 256)
    omega = -0.5 * tension.f_eN
    xi = 1.0 - (1.0 - np.linspace(0.0, 1.0, 33)) ** 1.5
    r0, t_top = reduced._winterbottom_init(body, omega, 1.0, xi)
    fn = reduced._SliceMeasureFunctional(body, omega, xi)
    n = len(xi) - 1
    _, g, de_dT, _, gv, dv_dT, (diag, off, col, tt) = fn.grads(r0 ** (dim - 1), t_top)
    grad, a = np.append(g[:-1], de_dT), np.append(gv[:-1], dv_dT)
    lam_mult = -float(grad @ a) / float(a @ a)
    col = col[:n] + lam_mult * gv[:n] / t_top
    diag = diag[:n] + shift * np.abs(diag[:n])
    tt = tt + shift * abs(tt)
    d = reduced._kkt_step(diag, off[:n - 1], col, tt, grad, a)
    kkt = np.zeros((n + 2, n + 2))
    kkt[:n + 1, :n + 1] = _dense_hessian(diag, off[:n - 1], col, tt)
    kkt[:n + 1, n + 1] = kkt[n + 1, :n + 1] = a
    dense = np.linalg.solve(kkt, np.append(-grad, 0.0))[:n + 1]
    assert np.max(np.abs(d - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("where", ["diag", "grad"])
def test_kkt_step_treats_a_non_finite_band_as_singular(where):
    # Overflowing closed forms (pnorm p = 60 and up) give inf or NaN Hessian
    # entries; the shift ladder then skips the step as it does a singular one.
    n = 4
    diag, off, col = np.full(n, 2.0), np.full(n - 1, -1.0), np.zeros(n)
    grad, a = np.ones(n + 1), np.ones(n + 1)
    (diag if where == "diag" else grad)[1] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        reduced._kkt_step(diag, off, col, 1.0, grad, a)


@pytest.mark.parametrize("name,kw", [
    ("euclid", {}), ("pnorm", {"p": 3.0}), ("pnorm", {"p": 1.5}), ("weighted", {"c": 2.0}),
])
def test_winterbottom_init_has_the_target_volume(name, kw):
    # The start is scaled onto volume m as the Newton iteration measures it,
    # in the slice measure on the solver's knots, near both ends of the
    # graph interval.
    tension = make_tension(name, **kw)
    body = build_wulff_body(tension, 256)
    xi = reduced.apex_graded(161)
    for frac in (-0.99, -0.01):
        omega = frac * tension.f_eN
        fn = reduced._SliceMeasureFunctional(body, omega, xi)
        for m in (1e-3, 1.0, 1e3):
            r0, t_top = reduced._winterbottom_init(body, omega, m, xi)
            assert r0[-1] == 0.0 and np.all(r0[:-1] > 0.0)
            assert fn.volume(r0 ** (tension.dim - 1), t_top) == pytest.approx(m, rel=1e-14)


def test_pnorm60_start_has_a_finite_hessian_band():
    # Unscaled, kappa = (p-1) |s t|^(p-2) phi^(1-2p) multiplies an
    # overflowing power by an underflowing one at p = 60, and the first
    # Newton step's band was not finite.
    tension = make_tension("pnorm", p=60.0)
    body = build_wulff_body(tension, 256)
    omega = -0.5 * tension.f_eN
    xi = reduced.apex_graded(161)
    r0, t_top = reduced._winterbottom_init(body, omega, 1.0, xi)
    fn = reduced._SliceMeasureFunctional(body, omega, xi)
    *_, (diag, off, col, tt) = fn.grads(r0 ** 2, t_top)
    assert all(np.isfinite(x).all() for x in (diag, off, col, tt))


def test_minimize_direct_empty_start_is_a_solver_error(euclid_body, monkeypatch):
    monkeypatch.setattr(reduced, "_winterbottom_init",
                        lambda body, omega, m, xi: (np.zeros_like(xi), 1.0))
    with pytest.raises(NonConvergence, match="no volume"):
        reduced.minimize_direct(euclid_body, -0.5, 1.0)


def test_minimize_direct_uses_given_body(euclid):
    body = build_wulff_body(euclid, 256)
    prof = reduced.minimize_direct(body, -0.5, 1.0, grid_size=41)
    assert prof.body is body
    assert reduced.reduced_volume(prof) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("name,kw,m", [
    ("euclid", {}, 1.0),
    ("euclid", {}, 10.0),
    ("pnorm", {"p": 3.0}, 0.1),
    ("pnorm", {"p": 3.0}, 10.0),
    ("weighted", {"c": 2.0}, 0.3),
    ("weighted", {"c": 2.0}, 3.0),
])
def test_minimize_direct_converges(name, kw, m):
    # Default options: a non-converged solve raises, and meta says so.
    tension = make_tension(name, **kw)
    body = build_wulff_body(tension, 1024)
    omega = -0.5 * tension.f_eN
    prof = reduced.minimize_direct(body, omega, m)
    assert prof.meta["converged"]
    assert prof.meta["iterations"] <= 20
    assert reduced.reduced_volume(prof) == pytest.approx(m, rel=1e-10)
    sol = odesolve.shoot(body, omega, m)
    r_shoot = np.interp(prof.knots, sol.profile.knots, sol.profile.r)
    assert np.max(np.abs(prof.r - r_shoot)) <= 0.01 * np.max(sol.profile.r)


def test_minimize_direct_step_records(pnorm3):
    # One deterministic record per Newton step: energies never rise, every
    # step started above the stopping tolerance and was accepted with a
    # shift from the ladder.
    body = build_wulff_body(pnorm3, 1024)
    runs = [reduced.minimize_direct(body, -0.5, 1.0).meta
            for _ in range(2)]
    assert runs[0]["steps"] == runs[1]["steps"]
    steps = runs[0]["steps"]
    assert len(steps) == runs[0]["iterations"] > 0
    energies = [s["energy"] for s in steps]
    assert all(e1 <= e0 * (1 + 1e-14) for e0, e1 in zip(energies, energies[1:]))
    for s in steps:
        assert s["rel_projected_grad"] > reduced.TOL_GRAD
        assert 0.0 < s["step"] <= 1.0
        assert s["shift"] in (0.0, 1e-6, 1e-4, 1e-2, 1.0)


STALLS = pytest.mark.xfail(
    strict=True, raises=NonConvergence,
    reason="large drops: shifted Newton steps shrink towards zero near the "
           "flat top (see meta['steps'])")


@pytest.mark.parametrize("name,kw,frac", [
    pytest.param("euclid", {}, -0.05, marks=STALLS),
    ("euclid", {}, -0.01),
    pytest.param("weighted", {"c": 2.0}, -0.05, marks=STALLS),
    ("weighted", {"c": 2.0}, -0.01),
])
def test_minimize_direct_converges_at_large_mass(name, kw, frac):
    tension = make_tension(name, **kw)
    prof = reduced.minimize_direct(build_wulff_body(tension, 1024),
                                   frac * tension.f_eN, 1e3)
    assert prof.meta["converged"]


CYCLES = pytest.mark.xfail(
    strict=True, raises=NonConvergence,
    reason="non-graph regime: unshifted Newton steps cycle (period 2 on full "
           "steps for p = 1.5, period 4 on halved ones for p = 1.2) and never "
           "reach the gradient tolerance in 100 steps")
LADDER_ENDS = pytest.mark.xfail(
    strict=True, raises=NonConvergence,
    reason="non-graph regime: after 8 steps no shift of the ladder gives a "
           "descent step, at relative projected gradient 1.3e-4")


@pytest.mark.parametrize("name,kw,frac,m,grid_size", [
    pytest.param("pnorm", {"p": 1.5}, 0.3, 1.0, 161, marks=CYCLES),
    pytest.param("pnorm", {"p": 1.5}, 0.3, 1.0, 321, marks=CYCLES),
    pytest.param("pnorm", {"p": 1.5}, 0.3, 1.0, 641, marks=CYCLES),
    pytest.param("pnorm", {"p": 1.2}, 0.1, 1.0, 161, marks=CYCLES),
    pytest.param("euclid", {}, 0.2, 10.0, 161, marks=LADDER_ENDS),
])
def test_minimize_direct_converges_in_the_non_graph_regime(name, kw, frac, m,
                                                           grid_size):
    # omega = frac * phi(0, 1) > 0 for admissible tensions.
    tension = make_tension(name, **kw)
    assert check_admissible(tension).admissible
    prof = reduced.minimize_direct(build_wulff_body(tension, 1024),
                                   frac * tension.f_eN, m, grid_size=grid_size)
    assert prof.meta["converged"]


def _puddle(body, top, radius=2.0, n=101, eps=1e-3):
    """Vertical side r = radius up to top - eps, then a flat top to r = 0."""
    t = np.append(np.linspace(0.0, top - eps, n), top)
    r = np.append(np.full(n, radius), 0.0)
    return reduced.Profile(knots=t, r=r, body=body)


@pytest.mark.parametrize("delta", [1e-2, 1e-1])
def test_cross_difference_puddle_pair(euclid_body, delta):
    # Tops at 0.5 and 0.5 + delta: at equal t the radii differ by the whole
    # radius near the top, while the curves lie within delta of each other.
    shoot, direct = _puddle(euclid_body, 0.5), _puddle(euclid_body, 0.5 + delta)
    linf, hausdorff = checks.cross_difference(shoot, direct)
    assert linf >= 0.5
    assert 0.0 < hausdorff <= delta / 2.0 * (1.0 + 1e-12)
    assert checks.cross_difference(shoot, shoot) == (0.0, 0.0)


def _brute_polyline_distance(px, py, lx, ly):
    # Every (point, segment) pair, with _polyline_distance's expression.
    dx, dy = np.diff(lx), np.diff(ly)
    seg2 = np.maximum(dx * dx + dy * dy, np.finfo(float).tiny)
    rx, ry = px[:, None] - lx[:-1], py[:, None] - ly[:-1]
    u = np.clip((rx * dx + ry * dy) / seg2, 0.0, 1.0)
    return np.sqrt(np.min((rx - u * dx) ** 2 + (ry - u * dy) ** 2, axis=1))


def test_polyline_distance_matches_brute_force(euclid_body):
    # The t-window search evaluates a subset of the segments, which must
    # always hold the nearest one: the result is bit-identical.
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(300):
        n, k = rng.integers(2, 60, size=2)
        scale = 10.0 ** rng.uniform(-6.0, 3.0)
        # Ascending t with spacings over eight decades, decreasing r.
        lt = np.cumsum(rng.exponential(size=n) * 10.0 ** rng.uniform(-8, 0, n))
        lr = np.cumsum(rng.uniform(0.0, 1.0, n))[::-1]
        pt = np.sort(rng.uniform(-0.1, 1.1, k)) * lt[-1]
        pr = rng.uniform(-0.1, 1.1, k) * lr[0]
        pairs += [(pr * scale, pt * scale, lr * scale, lt * scale),
                  (lr * scale, lt * scale, lr * scale, lt * scale)]
    for delta in (1e-2, 1e-1):
        a, b = _puddle(euclid_body, 0.5), _puddle(euclid_body, 0.5 + delta)
        pairs += [(a.r, a.knots, b.r, b.knots), (b.r, b.knots, a.r, a.knots),
                  (a.r, a.knots, a.r, a.knots)]
    for pair in pairs:
        assert np.array_equal(checks._polyline_distance(*pair),
                              _brute_polyline_distance(*pair))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name, params", [("euclid", {}), ("pnorm", {"p": 3.0})])
def test_slice_measure_energy_of_stacked_rows_is_per_row(name, params, dim):
    # Rows of rho stacked on leading axes, each with its own top height,
    # give each row's own call, bit for bit: every sum runs along one row.
    tension = make_tension(name, dim=dim, **params)
    xi = reduced.apex_graded(32)
    fn = reduced._SliceMeasureFunctional(build_wulff_body(tension, 1024),
                                         -0.5 * tension.f_eN, xi)
    rng = np.random.default_rng(31)
    rho = np.append(rng.uniform(0.2, 1.5, (2, 3, 31)), np.zeros((2, 3, 1)), axis=-1)
    tops = rng.uniform(0.5, 1.5, (2, 3))
    stacked = fn.energy(rho, tops)
    assert all(part.shape == (2, 3) for part in stacked)
    for i, j in np.ndindex(2, 3):
        alone = fn.energy(rho[i, j], float(tops[i, j]))
        assert all(type(part) is float for part in alone)
        assert [float(part[i, j]).hex() for part in stacked] == [x.hex() for x in alone]
