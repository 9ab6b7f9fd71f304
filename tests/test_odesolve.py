import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from wulffdrop import odesolve as od
from wulffdrop import reduced
from wulffdrop.errors import (InvalidInput, NoBracket, NonConvergence,
                              OmegaOutOfGraphRange, OutOfRange, StalledInversion)
from wulffdrop.tension import ScaledPNorm, make_tension, phi_partials
from wulffdrop.wulff import build_wulff_body


def test_s_star_closed_forms(euclid):
    assert od.s_star(euclid, -0.8) == pytest.approx(1.5, rel=1e-12)
    assert od.s_star(euclid, -2.0 / math.sqrt(5.0)) == pytest.approx(1.0, rel=1e-12)


def test_s_star_defines_contact_condition(pnorm3, weighted2):
    for tension in (pnorm3, weighted2):
        for omega in (-0.3 * tension.f_eN, -0.7 * tension.f_eN):
            s = od.s_star(tension, omega)
            _, d2, _ = phi_partials(tension, s, float(tension.dim - 1))
            assert -d2 == pytest.approx(omega, abs=1e-10)


def test_s_star_bracket_growth_near_zero(euclid):
    # s* diverges as omega -> 0-, reported as growth of the solution.
    assert od.s_star(euclid, -1e-3) > 100.0
    with pytest.raises(OmegaOutOfGraphRange):
        od.s_star(euclid, 0.1)
    with pytest.raises(OmegaOutOfGraphRange):
        od.s_star(euclid, -1.5)


def test_check_graph_omega_takes_the_open_interval(weighted2):
    lo = -weighted2.f_eN
    for omega in (np.nextafter(lo, 0.0), 0.5 * lo, -1e-300):
        od.check_graph_omega(weighted2, omega)
    for omega in (lo, 0.0, math.nan):
        with pytest.raises(OmegaOutOfGraphRange, match="graph regime"):
            od.check_graph_omega(weighted2, omega)


@pytest.mark.parametrize("m", [0.0, -1.0, math.nan, math.inf])
def test_shoot_rejects_bad_mass(euclid_body, m):
    # InvalidInput, which generic code still catches as a ValueError.
    with pytest.raises(ValueError, match="mass must be positive and finite") as info:
        od.shoot(euclid_body, -0.5, m)
    assert isinstance(info.value, InvalidInput)


def test_small_r_slope_law(euclid):
    # v'(r) = 2 v0 r + O(r^3) for the isotropic weight in R^3
    # (d11 phi(0, 2) = 1/2), read off the dense output at small w.
    v0 = 1.0
    traj = od.integrate_v(euclid, v0, s_stop=1.5)
    for w in (1e-3, 1e-5, 1e-8):
        r = traj(w)[0]
        assert euclid.phi.d1_inverse(w, 2.0) / (2.0 * v0 * r) == pytest.approx(
            1.0, abs=1e-4)


def test_trajectory_monotonicity_and_conservation(euclid):
    traj = od.integrate_v(euclid, 1.0, s_stop=1.5)
    assert traj.ts[-1] == phi_partials(euclid, 1.5, 2.0)[0]
    ss = euclid.phi.d1_inverse(traj.ts, 2.0)  # the slope v' at the nodes
    ws = traj.rs * traj.ts                    # W = r^(N-2) w
    assert np.all(np.diff(traj.vs) > 0)      # v strictly increasing
    assert np.all(np.diff(ss) > 0)           # v strictly convex
    assert ss[-1] == pytest.approx(1.5, abs=1e-11)
    d1 = np.array([phi_partials(euclid, s, 2.0)[0] for s in ss])
    residual = np.abs(traj.rs * d1 - ws) / (1.0 + ws)
    assert np.max(residual) <= 1e-10


def test_delta_positivity(euclid):
    traj = od.integrate_v(euclid, 0.7, s_stop=2.0)
    ss = euclid.phi.d1_inverse(traj.ts, 2.0)
    d1 = np.array([phi_partials(euclid, s, 2.0)[0] for s in ss])
    delta = traj.rs * traj.vs - 0.5 * d1
    assert np.all(delta[traj.rs > 1e-5] > 0)


def test_integrate_requires_stop(euclid):
    for s_stop in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            od.integrate_v(euclid, 1.0, s_stop=s_stop)
    with pytest.raises(ValueError):
        od.integrate_v(euclid, 0.0, s_stop=1.0)
    with pytest.raises(ValueError):
        od.integrate_v(euclid, -0.5, s_stop=1.0)


def test_V_zero_and_monotone(euclid):
    traj = od.integrate_v(euclid, 1.0, s_stop=1.5)
    v_first = od.V_of(traj, 0.0)  # the apex, w = 0
    assert abs(v_first) < 1e-8
    vals = [od.V_of(traj, s) for s in np.linspace(0.05, 1.5, 20)]
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(OutOfRange):
        od.V_of(traj, 2.0)


def test_V_matches_direct_quadrature(euclid):
    traj = od.integrate_v(euclid, 1.0, s_stop=1.5)
    s_query = 1.2
    V = od.V_of(traj, s_query)
    # Reference: 2 pi int_0^r(s) rho (v(r(s)) - v(rho)) drho by the trapezoid
    # rule on the dense output sampled finely in w.
    w_query = phi_partials(euclid, s_query, 2.0)[0]
    rr, vv = traj(np.linspace(0.0, w_query, 20001))
    quad = 2.0 * math.pi * np.trapezoid(rr * (vv[-1] - vv), rr)
    assert V == pytest.approx(quad, rel=1e-6)


def test_dV_dv0_negative_and_stable(euclid):
    s_star = od.s_star(euclid, -0.5)
    d1 = od.dV_dv0(euclid, 1.0, s_star, h_fd=1e-4)
    d2 = od.dV_dv0(euclid, 1.0, s_star, h_fd=5e-5)
    assert d1 < 0 and d2 < 0
    assert d1 == pytest.approx(d2, rel=1e-2)  # Richardson sanity


def _reference_end(tension, v0, s_stop, sigma=False):
    """(r, v) at w* = d1phi(s_stop, N-1) from a tight DOP853 solve in w, or
    in sigma with w = sigma^2, which keeps the right-hand side smooth at the
    apex when s(w) ~ sqrt(w) (p-norm weights with p = 3)."""
    nm1 = tension.dim - 1

    def rhs_w(w, y):
        r, v = y
        den = nm1 * v - (nm1 - 1) * w / r if r > 0.0 else v
        return [1.0 / den, tension.phi.d1_inverse(w, float(nm1)) / den]

    def rhs_sigma(sig, y):
        dr, dv = rhs_w(sig * sig, y)
        return [2.0 * sig * dr, 2.0 * sig * dv]

    w_end = float(phi_partials(tension, s_stop, float(nm1))[0])
    fun, end = (rhs_sigma, math.sqrt(w_end)) if sigma else (rhs_w, w_end)
    sol = solve_ivp(fun, (0.0, end), [0.0, v0], method="DOP853",
                    rtol=1e-13, atol=1e-16)
    assert sol.success
    return sol.y[:, -1]


@pytest.mark.parametrize("family", ["euclid", "pnorm3", "weighted2"])
def test_end_state_matches_tight_reference(request, family):
    # The module tolerance (rtol 1e-12) against rtol 1e-13.  For pnorm3 the
    # sigma-form reference settles whether the non-smooth s(w) ~ sqrt(w) at
    # the apex costs accuracy: both references agree, so it does not.
    tension = request.getfixturevalue(family)
    s_stop = od.s_star(tension, -0.5 * tension.f_eN)
    traj = od.integrate_v(tension, 1.0, s_stop=s_stop)
    end = np.array([traj.rs[-1], traj.vs[-1]])
    refs = [_reference_end(tension, 1.0, s_stop)]
    if family == "pnorm3":
        refs.append(_reference_end(tension, 1.0, s_stop, sigma=True))
    for ref in refs:
        assert np.max(np.abs(end - ref) / np.abs(ref)) < 1e-10


def test_reconstruct_boundary_conditions(euclid, euclid_body, euclid_shoot):
    sol = euclid_shoot
    prof, lam_mult = od.reconstruct_profile(sol.trajectory, euclid_body, omega=-0.5)
    r_max, t_max = float(sol.profile.r[0]), sol.profile.t_max
    assert t_max > 0
    assert prof.r[0] == pytest.approx(r_max)       # u(R_max) = 0
    assert prof.r[-1] == 0.0                        # apex closes
    assert prof.knots[-1] == pytest.approx(t_max)
    # u'(0) = 0: the apex is flat in the graph variable, i.e. the profile
    # has a vertical tangent; the top quarter must steepen monotonically.
    slopes = np.diff(prof.r) / np.diff(prof.knots)
    assert slopes[-1] < slopes[len(slopes) // 2] < slopes[0] < 0


def test_reconstruct_rejects_a_body_of_another_tension(euclid_shoot, weighted2):
    # The profile's tension is its body's: a body built for another tension
    # cannot stand in for the trajectory's.
    with pytest.raises(InvalidInput, match="body built for"):
        od.reconstruct_profile(euclid_shoot.trajectory,
                               build_wulff_body(weighted2, 1024), omega=-0.5)


def test_shoot_matches_volume_and_young(euclid_shoot):
    d = euclid_shoot.diagnostics
    assert d["achieved_volume"] == pytest.approx(1.0, rel=1e-6)
    assert abs(d["young_residual"]) < 1e-8
    assert euclid_shoot.profile.concavity_defect() <= 1e-7
    assert euclid_shoot.profile.support_is_interval()


def test_shoot_volume_monotone_in_v0(euclid_shoot):
    hist = sorted(euclid_shoot.diagnostics["v0_history"])
    v0s = np.array([h[0] for h in hist])
    vols = np.array([h[1] for h in hist])
    assert np.all(np.diff(vols) < 0)
    assert len(v0s) >= 3


def test_shoot_probes_are_few_and_distinct(euclid_shoot):
    # Each history entry is one integrate_v probe.
    v0s = [h[0] for h in euclid_shoot.diagnostics["v0_history"]]
    assert len(v0s) <= 8
    assert len(set(v0s)) == len(v0s)


def test_shoot_reconstructs_twice(euclid_body, monkeypatch):
    # Probes read the closed-form volume V_{v0}(s*); only the first probe
    # (for the bridge constant) and the root are reconstructed.
    calls = []
    reconstruct = od.reconstruct_profile

    def counted(*args, **kwargs):
        calls.append(args[0].v0)
        return reconstruct(*args, **kwargs)

    monkeypatch.setattr(od, "reconstruct_profile", counted)
    sol = od.shoot(euclid_body, -0.5, 1.0)
    assert calls == [1.0, sol.v0]
    assert len(sol.diagnostics["v0_history"]) > 2


_SHOOT_CELLS = [(family, m) for family in ("euclid", "pnorm3", "weighted2")
                for m in (1e-3, 0.1, 1.0, 10.0, 100.0)]


@pytest.fixture(scope="module")
def cell_shoots(request):
    """shoot at omega = -0.5 phi(0,1) per (family, m) cell, or its NoBracket."""
    out = {}
    for family, m in _SHOOT_CELLS:
        tension = request.getfixturevalue(family)
        body = build_wulff_body(tension, 1024)
        try:
            out[family, m] = od.shoot(body, -0.5 * tension.f_eN, m)
        except NoBracket as exc:
            out[family, m] = exc
    return out


@pytest.mark.parametrize("family, m", _SHOOT_CELLS)
def test_shoot_volume_and_young_across_families(cell_shoots, family, m):
    # The probes solve on the scaled closed-form volume; the reconstructed
    # profile at the root still meets the volume within 1e-6.  pnorm3's
    # probe volumes level off near 27.5 as v0 -> 0, so m = 100 stays a
    # NoBracket, as test_pnorm3_shoot_reaches_mass_30 records.
    sol = cell_shoots[family, m]
    if (family, m) == ("pnorm3", 100.0):
        assert isinstance(sol, NoBracket)
        return
    d = sol.diagnostics
    assert d["achieved_volume"] == pytest.approx(m, rel=1e-6)
    assert abs(d["young_residual"]) < 1e-8
    traj = sol.trajectory
    assert traj.tension.phi.d1_inverse(traj.ts[-1], 2.0) == pytest.approx(
        sol.s_star, abs=1e-11)
    (vol,) = [vol for v0, vol in d["v0_history"] if v0 == sol.v0]
    assert vol == pytest.approx(d["achieved_volume"], rel=1e-6)


def test_shoot_mean_probe_count(cell_shoots):
    # 110 probes over the 14 solved cells when measured (7.86 each); unit
    # steps in log2 v0 on the reconstructed volume took 140.
    probes = [len(sol.diagnostics["v0_history"])
              for sol in cell_shoots.values() if not isinstance(sol, NoBracket)]
    assert len(probes) == len(_SHOOT_CELLS) - 1
    assert sum(probes) / len(probes) <= 8.0


def test_shoot_bridge_constant(euclid_shoot):
    assert euclid_shoot.diagnostics["bridge_constant"] == pytest.approx(
        od.bridge_prediction(euclid_shoot.profile.body), rel=1e-4)


def test_shoot_rejects_bad_inputs(euclid_body):
    with pytest.raises(OmegaOutOfGraphRange):
        od.shoot(euclid_body, 0.3, 1.0)
    with pytest.raises(ValueError):
        od.shoot(euclid_body, -0.5, 0.0)


def test_el_residual_convergence_appendix_equivalence(euclid, euclid_body,
                                                      euclid_shoot):
    # The reconstructed profile satisfies the radial Euler-Lagrange equation:
    # its discrete residual vanishes under refinement at second order,
    # confirming the u-equation and the r_E-equation agree.
    residuals = []
    for n in (101, 201, 401):
        prof, lam_mult = od.reconstruct_profile(
            euclid_shoot.trajectory, euclid_body, omega=-0.5, n_knots=n)
        t_max = prof.t_max
        residuals.append(reduced.el_residual(prof, lam_mult).max_abs(0.9 * t_max))
    rates = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert all(rate >= 1.8 for rate in rates), (residuals, rates)


def test_lambda_recovered_consistently(euclid_shoot):
    assert reduced.lambda_estimate(euclid_shoot.profile) == pytest.approx(
        euclid_shoot.lam, rel=1e-4)


def test_shoot_n2_planar():
    t2 = make_tension("euclid", dim=2)
    b2 = build_wulff_body(t2)
    sol = od.shoot(b2, -0.5, 1.0)
    assert sol.diagnostics["achieved_volume"] == pytest.approx(1.0, rel=1e-6)
    assert abs(sol.diagnostics["young_residual"]) < 1e-8
    assert sol.profile.concavity_defect() <= 1e-5
    assert sol.profile.support_is_interval()


def test_scaling_sanity_zero_gravity_bound(euclid, euclid_body, euclid_shoot):
    # Doubling the volume cannot raise the drop above the height of the
    # volume-matched zero-gravity (truncated Wulff) shape.  Plumbing test.
    from wulffdrop.wulff import alpha_table, vertical_extent

    lo, hi = vertical_extent(euclid)
    sigma0 = 0.5  # Winterbottom truncation height for omega = -0.5
    cap = alpha_table(euclid).above(sigma0)
    for m, sol in ((1.0, euclid_shoot), (2.0, od.shoot(euclid_body, -0.5, 2.0))):
        b = (m / (euclid_body.area * cap)) ** (1.0 / 3.0)
        assert sol.profile.t_max <= b * (hi - sigma0) + 1e-9


@pytest.mark.parametrize("v0", [1e-6, 1e-4])
def test_V_small_v0_matches_tight_reference(euclid, v0):
    # Large masses need a small apex value v0; the solve must start at the
    # apex itself (V = 74.33 at v0 = 1e-6; a start radius of 1/v0 * 1e-6
    # reads 81.65).
    s_stop = od.s_star(euclid, -0.9)
    traj = od.integrate_v(euclid, v0, s_stop=s_stop)
    r, v = _reference_end(euclid, v0, s_stop)
    w_end = phi_partials(euclid, s_stop, 2.0)[0]
    reference = od.unit_ball_volume(2) * r * (r * v - w_end)
    assert od.V_of(traj, s_stop) == pytest.approx(reference, rel=1e-9)


@pytest.mark.parametrize("family, params, frac", [
    pytest.param("euclid", {}, 0.05, id="euclid-0.05"),
    pytest.param("euclid", {}, 0.01, id="euclid-0.01"),
    pytest.param("pnorm", {"p": 1.5}, 0.05, id="pnorm1.5-0.05"),
])
def test_shoot_near_zero_contact_coefficient(family, params, frac):
    # Small |omega| means a large contact slope s*, with w* close to the
    # asymptote phi(1, 0): the trajectory must end exactly at s*, where V_of
    # reads it.
    tension = make_tension(family, **params)
    sol = od.shoot(build_wulff_body(tension, 1024), -frac * tension.f_eN, 1.0)
    d = sol.diagnostics
    assert d["achieved_volume"] == pytest.approx(1.0, rel=1e-6)
    assert abs(d["young_residual"]) < 1e-8


def test_tableau_is_scipys_dop853():
    # The stepper's tableau is pinned as literals; each must be scipy's
    # DOP853 entry bit for bit, zeros included, so that a stage sum is the
    # same float expression as a row of scipy's matrices.
    from scipy.integrate import DOP853

    def bits(values):
        return [float(x).hex() for x in values]

    assert od._END == DOP853.n_stages == 12
    rows = [*DOP853.A, DOP853.B, *DOP853.A_EXTRA]
    assert len(od._A) == len(rows) == 16
    for i, (got, row) in enumerate(zip(od._A, rows)):
        assert bits(got) == bits(row[:i])
        # Beyond the first i entries a row of scipy's holds only zeros.
        assert not np.any(row[i:])
    assert od._C.dtype == np.float64
    assert bits(od._C) == bits([*DOP853.C, 1.0, *DOP853.C_EXTRA])
    assert bits(od._E3) == bits(DOP853.E3)
    assert bits(od._E5) == bits(DOP853.E5)
    assert len(od._D) == len(DOP853.D)
    for got, row in zip(od._D, DOP853.D):
        assert bits(got) == bits(row)


@pytest.mark.parametrize("family", ["euclid", "pnorm3", "weighted2"])
def test_stepper_matches_solve_ivp_dop853(request, family):
    # integrate_v runs scipy's DOP853 step control itself.  Against
    # solve_ivp at the module tolerances it takes as many steps, and its
    # end state and dense output agree to rounding level; the nodes are not
    # bit-identical, because the error estimate is a cancelling sum whose
    # summation order differs.
    tension = request.getfixturevalue(family)
    nm1 = tension.dim - 1
    phi = tension.phi

    def rhs(w, y):
        r, v = y.tolist()
        den = nm1 * v - (nm1 - 1) * w / r if r > 0.0 else v
        return 1.0 / den, phi.d1_inverse(w, float(nm1)) / den

    for frac in (-0.99, -0.5, -0.05):
        s_stop = od.s_star(tension, frac * tension.f_eN)
        w_end = float(phi.d1(s_stop, float(nm1)))
        for v0 in (1e-5, 3e-3, 1.0, 1e3):
            traj = od.integrate_v(tension, v0, s_stop=s_stop)
            ref = solve_ivp(rhs, (0.0, w_end), (0.0, v0), method="DOP853",
                            rtol=od._RTOL, atol=od._ATOL, dense_output=True)
            assert ref.success
            assert len(traj.ts) == len(ref.t)
            assert traj.ts[-1] == ref.t[-1] == w_end
            end = np.array([traj.rs[-1], traj.vs[-1]])
            assert np.all(np.abs(end - ref.y[:, -1]) <= 1e-12 * ref.y[:, -1])
            w = np.linspace(0.0, w_end, 200)
            got, want = traj(w), ref.sol(w)
            assert got.shape == (2, len(w))
            assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))
            assert traj(0.5 * w_end).shape == (2,)


_FAMILIES = [("euclid", {}), ("weighted", {"c": 2.0}), ("pnorm", {"p": 3.0}),
             ("pnorm", {"p": 1.5})]


@pytest.mark.parametrize("family, params", _FAMILIES)
def test_d1_inverse_round_trip(family, params):
    phi = make_tension(family, **params).phi
    w = np.linspace(0.0, 0.999 * float(phi.value(1.0, 0.0)), 1001)
    s = phi.d1_inverse(w, 2.0)
    assert s[0] == 0.0 and np.all(np.diff(s) > 0)
    assert np.max(np.abs(phi.d1(s, 2.0) - w)) <= 1e-14


@pytest.mark.parametrize("family, params", _FAMILIES)
def test_d2_inverse_round_trip(family, params):
    phi = make_tension(family, **params).phi
    v = np.linspace(0.0, float(phi.value(0.0, 1.0)), 1001)[1:-1]
    s = phi.d2_inverse(v, 2.0)
    assert np.all(s > 0) and np.all(np.diff(s) < 0)
    assert np.max(np.abs(phi.d2(s, 2.0) - v) / v) <= 1e-14


def _float_and_array_agree(inverse, x):
    got = inverse(x, 2.0)
    want = np.array([inverse(xi, 2.0) for xi in x.tolist()])
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("family, params", _FAMILIES[:2])
def test_array_d1_inverse_is_the_scalar_one_bit_for_bit(family, params):
    # Both forms are the same arithmetic with correctly rounded np.sqrt.  The
    # p-norm forms are not compared: numpy's array power may differ from C
    # pow in the last bit.
    phi = make_tension(family, **params).phi
    w = np.concatenate(([0.0, 1e-30, 0.999],
                        np.random.default_rng(1).uniform(0.0, 0.999, 500)))
    assert _float_and_array_agree(phi.d1_inverse, w)


@pytest.mark.parametrize("family, params", _FAMILIES[:2])
def test_array_d2_inverse_is_the_scalar_one_bit_for_bit(family, params):
    phi = make_tension(family, **params).phi
    top = float(phi.value(0.0, 1.0))
    v = top * np.concatenate(([1e-30, 0.999],
                              np.random.default_rng(2).uniform(0.001, 0.999, 500)))
    assert _float_and_array_agree(phi.d2_inverse, v)


@pytest.mark.parametrize("inverse", ["d1_inverse", "d2_inverse"])
def test_manhattan_weight_has_no_slope_inverse(inverse):
    phi = make_tension("pnorm", p=1.0).phi
    with pytest.raises(NoBracket, match="p = 1"):
        getattr(phi, inverse)(0.5, 2.0)


def test_integrate_v_stalls_at_the_asymptote(euclid):
    # w* = 1e8 / hypot(1e8, 2) rounds to the asymptote phi(1, 0) = 1.
    with pytest.raises(StalledInversion):
        od.integrate_v(euclid, 1.0, s_stop=1e8)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_slope_is_a_nonconvergence(euclid, monkeypatch, value):
    # Python floats raise or propagate where numpy arrays warned: a NaN
    # slope fails every error test down to the minimum step, an infinite one
    # zeroes the initial step; both end in NonConvergence, not in an
    # arithmetic exception or a hang.
    monkeypatch.setattr(ScaledPNorm, "d1_inverse",
                        lambda self, w, t: np.full(np.shape(w), value))
    with pytest.raises(NonConvergence, match="capillary ODE solve failed"):
        od.integrate_v(euclid, 1.0, s_stop=1.5)


def test_shoot_pnorm_1000_is_warning_free():
    # The residuals read d2phi alone; the d11 that phi_partials also forms
    # overflows for p = 1000, which the RuntimeWarning filter turns into an
    # error.
    sol = od.shoot(build_wulff_body(make_tension("pnorm", p=1000.0), 1024),
                   -0.5, 1.0)
    d = sol.diagnostics
    assert sol.v0 == pytest.approx(0.36155, rel=1e-4)
    assert d["achieved_volume"] == pytest.approx(1.0, rel=1e-6)
    assert abs(d["young_residual"]) < 1e-8


@pytest.mark.xfail(strict=True, raises=NoBracket,
                   reason="pnorm3 probe volumes level off near 27.5 as v0 -> 0")
def test_pnorm3_shoot_reaches_mass_30(pnorm3, pnorm3_body):
    od.shoot(pnorm3_body, -0.5 * pnorm3.f_eN, 30.0)


@pytest.mark.parametrize("family", ["euclid", "pnorm3", "weighted2"])
def test_invert_v_meets_its_stopping_rule(request, family):
    # Every interior knot of reconstruct_profile ends with v(w) exact to
    # rounding, or with a Newton step below 4 ulp of w.
    tension = request.getfixturevalue(family)
    traj = od.integrate_v(tension, 1.0,
                          s_stop=od.s_star(tension, -0.5 * tension.f_eN))
    v_end = traj.vs[-1]
    targets = v_end - (v_end - traj.v0) * np.sin(
        0.5 * math.pi * np.linspace(0.0, 1.0, 801))[1:-1]
    w, rho = od._invert_v(traj, targets)
    r, v = traj(w)
    assert np.array_equal(r, rho)
    f = v - targets
    step = f * (2.0 * v - w / r) / tension.phi.d1_inverse(w, 2.0)
    eps = np.finfo(float).eps
    assert np.all((np.abs(f) <= 4.0 * eps * v_end)
                  | (np.abs((w - step) - w) <= 4.0 * eps * w))
