import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from wulffdrop import odesolve as od
from wulffdrop import reduced
from wulffdrop.errors import (InvalidInput, NoBracket, NonConvergence,
                              OmegaOutOfGraphRange, StalledInversion)
from wulffdrop.tension import ScaledPNorm, make_tension, phi_partials
from wulffdrop.wulff import build_wulff_body

from conftest import support_is_interval


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


@pytest.mark.parametrize("dim", [2, 3])
def test_integrate_v0_range_ends_solve(dim):
    tension = make_tension("euclid", dim=dim)
    s_st = od.s_star(tension, -0.5)
    for v0 in (2.0**-400, 2.0**400):
        traj = od.integrate_v(tension, v0, s_stop=s_st)
        assert math.isfinite(od.V_of(traj))
        assert math.isfinite(od.dV_dv0(traj))


@pytest.mark.parametrize("v0", [2.0**-401, 1e-300, 2.0**401, 1e155, math.inf, math.nan])
def test_integrate_rejects_v0_outside_its_range(euclid, v0):
    # Above about 1e155 the sensitivity's r * r underflows, and below about
    # 1e-265 the steps fall under the spacing of w: rejected up front.
    s_st = od.s_star(euclid, -0.5)
    with pytest.raises(InvalidInput, match=r"v0 must lie in \[2\^-400, 2\^400\]"):
        od.integrate_v(euclid, v0, s_st)


def test_V_zero_and_monotone(euclid):
    # V of trajectories stopped at each s: it vanishes towards the apex and
    # grows with s.
    def V(s):
        return od.V_of(od.integrate_v(euclid, 1.0, s_stop=s))

    assert 0.0 < V(1e-3) < 1e-8
    vals = [V(s) for s in np.linspace(0.05, 1.5, 20)]
    assert np.all(np.diff(vals) > 0)


def test_V_matches_direct_quadrature(euclid):
    s_query = 1.2
    traj = od.integrate_v(euclid, 1.0, s_stop=s_query)
    V = od.V_of(traj)
    # Reference: 2 pi int_0^r(s) rho (v(r(s)) - v(rho)) drho by the trapezoid
    # rule on the dense output sampled finely in w.
    w_query = phi_partials(euclid, s_query, 2.0)[0]
    assert w_query == traj.ts[-1]
    rr, vv = traj(np.linspace(0.0, w_query, 20001))
    quad = 2.0 * math.pi * np.trapezoid(rr * (vv[-1] - vv), rr)
    assert V == pytest.approx(quad, rel=1e-6)


def test_dV_dv0_negative_and_stable():
    # The carried sensitivity d(r, v)/dv0 at the end node against central
    # differences of the end state, in both of its components, in the plane
    # and in R^3; dV/dv0 is negative and needs no difference step, so two
    # calls agree bit for bit.
    for dim in (2, 3):
        tension = make_tension("euclid", dim=dim)
        s_star = od.s_star(tension, -0.5)
        d = od.dV_dv0(od.integrate_v(tension, 1.0, s_stop=s_star))
        assert d < 0
        assert od.dV_dv0(od.integrate_v(tension, 1.0, s_stop=s_star)) == d
        h = 1e-4
        ends = [od.integrate_v(tension, v0, s_stop=s_star).ys[:, -1]
                for v0 in (1.0 + h, 1.0 - h)]
        fd = (ends[0] - ends[1]) / (2.0 * h)
        got = np.array(od.integrate_v(tension, 1.0, s_stop=s_star).dy_dv0)
        assert np.all(np.abs(got - fd) <= 1e-6 * np.abs(fd))


def test_dV_dv0_matches_central_differences_on_the_monotonicity_cases():
    # The 48 cases of checks.suite_monotonicity: the exact derivative against
    # a central difference of V_of with step 1e-4 v0.
    from wulffdrop.checks import builtin_tensions

    cases = 0
    for tension in builtin_tensions():
        s_st = od.s_star(tension, -0.5 * tension.f_eN)
        for v0 in np.geomspace(0.1, 10.0, 16).tolist():
            h = 1e-4 * v0
            fd = (od.V_of(od.integrate_v(tension, v0 + h, s_stop=s_st))
                  - od.V_of(od.integrate_v(tension, v0 - h, s_stop=s_st))) / (2 * h)
            d = od.dV_dv0(od.integrate_v(tension, v0, s_stop=s_st))
            assert d == pytest.approx(fd, rel=1e-6)
            cases += 1
    assert cases == 48


@pytest.mark.parametrize("family", ["euclid", "pnorm3", "weighted2"])
def test_sensitivity_leaves_the_trajectory_unchanged(request, monkeypatch, family):
    # The sensitivity is carried beside the step control, never into it: with
    # every sensitivity stage poisoned by NaN, the nodes, states and
    # interpolant rows are the same bits.
    tension = request.getfixturevalue(family)

    def poisoned(nm1, gr, gv, h, ws, ss, rk, kr, qr, qv):
        return math.nan, math.nan, math.nan, math.nan

    cells = [(v0, od.s_star(tension, frac * tension.f_eN))
             for frac in (-0.99, -0.5, -0.05) for v0 in (1e-5, 1.0, 1e3)]
    clean = [od.integrate_v(tension, v0, s_stop=s) for v0, s in cells]
    monkeypatch.setattr(od, "_carry_sensitivity", poisoned)
    for (v0, s), want in zip(cells, clean):
        got = od.integrate_v(tension, v0, s_stop=s)
        assert all(map(math.isnan, got.dy_dv0))
        assert not any(map(math.isnan, want.dy_dv0))
        for name in ("ts", "ys", "coeffs"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


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
    assert support_is_interval(euclid_shoot.profile)


def test_shoot_volume_monotone_in_v0(euclid_shoot):
    hist = sorted(euclid_shoot.diagnostics["v0_history"])
    v0s = np.array([h[0] for h in hist])
    vols = np.array([h[1] for h in hist])
    assert np.all(np.diff(vols) < 0)
    assert len(v0s) >= 3


def test_shoot_probes_are_few_and_distinct(euclid_shoot):
    # Each history entry is one integrate_v probe; 5 when measured.
    v0s = [h[0] for h in euclid_shoot.diagnostics["v0_history"]]
    assert len(v0s) <= 5
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
    # 73 probes over the 14 solved cells when measured (5.21 each, at most
    # 7); secant steps and Brent's method took 110, unit steps in log2 v0 on
    # the reconstructed volume 140.
    probes = [len(sol.diagnostics["v0_history"])
              for sol in cell_shoots.values() if not isinstance(sol, NoBracket)]
    assert len(probes) == len(_SHOOT_CELLS) - 1
    assert sum(probes) / len(probes) <= 5.5
    assert max(probes) <= 7


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
    assert support_is_interval(sol.profile)


def test_scaling_sanity_zero_gravity_bound(euclid, euclid_body, euclid_shoot):
    # Doubling the volume cannot raise the drop above the height of the
    # volume-matched zero-gravity (truncated Wulff) shape.  Plumbing test.
    from wulffdrop.wulff import alpha_table

    hi = alpha_table(euclid).t_top
    sigma0 = 0.5  # Winterbottom truncation height for omega = -0.5
    # The unit ball's cap above sigma0: the integral of 1 - t^2 up to hi.
    cap = (hi - sigma0) - (hi**3 - sigma0**3) / 3.0
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
    assert od.V_of(traj) == pytest.approx(reference, rel=1e-9)


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


def _row_sum(a, k):
    # Plain left-to-right addition over the full row, zeros included.  This
    # is sum()'s float result up to Python 3.11; from 3.12 on sum() adds
    # floats with compensation, which the generated code does not.
    acc = 0.0
    for x, y in zip(a, k):
        acc += x * y
    return acc


def _add_stages(stop, nm1, r, v, h, ws, ss, kr, kv, rk):
    for i in range(len(kr), stop):
        a = od._A[i]
        ri = r + _row_sum(a, kr) * h
        vi = v + _row_sum(a, kv) * h
        den = nm1 * vi - (nm1 - 1) * ws[i] / ri if ri > 0.0 else vi
        kr.append(1.0 / den)
        kv.append(ss[i] / den)
        rk.append(ri)
    return ri, vi


def _carry_sensitivity(nm1, gr, gv, h, ws, ss, rk, kr, qr, qv):
    for i in range(1, od._END + 1):
        a = od._A[i]
        gri = gr + _row_sum(a, qr) * h
        gvi = gv + _row_sum(a, qv) * h
        ri = rk[i]
        dden = nm1 * gvi + (nm1 - 1) * ws[i] * gri / (ri * ri) if ri > 0.0 else gvi
        q = -dden * kr[i] * kr[i]
        qr.append(q)
        qv.append(q * ss[i])
    return gri, gvi


def _row_loop_dop853(phi, nm1, v0, w_end):
    """The stepper as it was before its stage arithmetic was generated: each
    stage, error and interpolant sum a loop over a full row of the tableau,
    zeros included.  Its step control copies the module's, on the module's
    constants."""
    _A, _C, _D, _END = od._A, od._C, od._D, od._END
    t = float(nm1)

    def rms(a, b):
        return math.hypot(a, b) / math.sqrt(2.0)

    w, r, v, fr, fv = 0.0, 0.0, v0, 1.0 / v0, 0.0
    gr, gv, qr, qv = 0.0, 1.0, [-fr * fr], [0.0]
    sr, sv = od._ATOL, od._ATOL + v0 * od._RTOL
    d0, d1 = rms(0.0, v / sv), rms(fr / sr, fv / sv)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, w_end)
    r1, v1 = h0 * fr, v + h0 * fv
    (s1,) = phi.d1_inverse(np.array([h0]), t).tolist()
    den = nm1 * v1 - (nm1 - 1) * h0 / r1
    d2 = rms((1.0 / den - fr) / sr, (s1 / den - fv) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    h_abs = min(100.0 * h0, h1, w_end)

    ts, rs, vs, rows = [w], [r], [v], []
    while w < w_end:
        min_step = 10.0 * (math.nextafter(w, math.inf) - w)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise NonConvergence("capillary ODE solve failed: required "
                                     "step size is less than spacing between "
                                     f"numbers at w={w}")
            w_new = min(w + h_abs, w_end)
            h = h_abs = w_new - w
            wk = w + _C * h
            sk = phi.d1_inverse(wk, t).tolist()
            wk = wk.tolist()
            kr, kv, rk = [fr], [fv], [r]
            r_new, v_new = _add_stages(_END + 1, nm1, r, v, h, wk, sk, kr, kv, rk)
            sr = od._ATOL + max(abs(r), abs(r_new)) * od._RTOL
            sv = od._ATOL + max(abs(v), abs(v_new)) * od._RTOL
            e5r, e5v = _row_sum(od._E5, kr) / sr, _row_sum(od._E5, kv) / sv
            e3r, e3v = _row_sum(od._E3, kr) / sr, _row_sum(od._E3, kv) / sv
            e5, e3 = e5r * e5r + e5v * e5v, e3r * e3r + e3v * e3v
            if e5 == 0.0 and e3 == 0.0:
                err = 0.0
            else:
                err = h * e5 / math.sqrt(2.0 * (e5 + 0.01 * e3))
            if err < 1.0:
                factor = (od._MAX_FACTOR if err == 0.0
                          else min(od._MAX_FACTOR, od._SAFETY * err ** od._EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(od._MIN_FACTOR, od._SAFETY * err ** od._EXPONENT)
            rejected = True

        _add_stages(len(_A), nm1, r, v, h, wk, sk, kr, kv, rk)
        qr, qv = qr[-1:], qv[-1:]
        gr, gv = _carry_sensitivity(nm1, gr, gv, h, wk, sk, rk, kr, qr, qv)
        dr, dv = r_new - r, v_new - v
        row = [h * _row_sum(d, k) for d in reversed(_D) for k in (kr, kv)]
        row += (2.0 * dr - h * (kr[_END] + fr), 2.0 * dv - h * (kv[_END] + fv),
                h * fr - dr, h * fv - dv, dr, dv)
        rows.append(row)
        w, r, v, fr, fv = w_new, r_new, v_new, kr[_END], kv[_END]
        ts.append(w)
        rs.append(r)
        vs.append(v)
    return ts, rs, vs, rows, (gr, gv)


def _row_loop_solve(tension, v0, s_stop):
    """integrate_v's (ts, ys, coeffs, dy_dv0) on the row-loop stepper, its
    failures raised as integrate_v raises them."""
    nm1 = tension.dim - 1
    w_end = float(tension.phi.d1(s_stop, float(nm1)))
    try:
        ts, rs, vs, rows, dy_dv0 = _row_loop_dop853(tension.phi, nm1, float(v0), w_end)
    except (ZeroDivisionError, OverflowError) as exc:
        raise NonConvergence(f"capillary ODE solve failed: {exc}") from exc
    return np.array(ts), np.array([rs, vs]), np.array(rows).T.reshape(7, 2, -1), dy_dv0


def _solve_or_raise(solve, tension, v0, s_stop):
    try:
        return solve(tension, v0, s_stop)
    except NonConvergence as exc:
        return type(exc)


@pytest.mark.parametrize("dim", [2, 3])
def test_generated_stages_match_the_row_loop_stepper(dim):
    # The straight-line stage code leaves out the tableau's zero entries but
    # keeps the row loop's left-to-right order, so each sum is the same
    # float.  A sum whose terms are all -0.0 would be -0.0 there and +0.0 in
    # the loop, so the bits are compared: integrate_v's nodes, its
    # interpolant rows, built from the stage values it keeps, and its
    # sensitivity against the row loop's.
    # Both ends of the graph regime and of the v0 scan, for every family;
    # p = 1.2 at omega = -0.01 phi(0,1) and v0 = 2^-21 raises NonConvergence.
    families = [("euclid", {}), ("pnorm", {"p": 3.0}), ("pnorm", {"p": 1.5}),
                ("pnorm", {"p": 1.2}), ("pnorm", {"p": 5.0}), ("weighted", {"c": 2.0})]
    cases = [(make_tension(name, dim=dim, **params), frac, v0)
             for name, params in families for frac in (-0.99, -0.01)
             for v0 in (2.0**-21, 2.0**21)]
    for tension, frac, v0 in cases:
        s_stop = od.s_star(tension, frac * tension.f_eN)
        new = _solve_or_raise(od.integrate_v, tension, v0, s_stop)
        old = _solve_or_raise(_row_loop_solve, tension, v0, s_stop)
        if isinstance(old, type):
            assert new is old
            continue
        for a, b in zip((new.ts, new.ys, new.coeffs), old[:3]):
            assert a.shape == b.shape
            assert list(map(float.hex, a.ravel().tolist())) == \
                list(map(float.hex, b.ravel().tolist()))
        assert list(map(float.hex, new.dy_dv0)) == list(map(float.hex, old[3]))


# dV_dv0 at v0 = 1.3, omega = -0.5 phi(0, 1), as the solve that built every
# step's interpolant rows gave it.
DV_DV0 = {"euclid": "-0x1.0ca8fcfe346a2p-1", "pnorm3": "-0x1.24b2efea20586p-2"}


@pytest.mark.parametrize("name", sorted(DV_DV0))
def test_dV_dv0_builds_no_interpolant_rows(request, monkeypatch, name):
    # The rows are built when the dense output is first read: dV_dv0 reads
    # the end state and its sensitivity alone, the reconstruction reads the
    # dense output.
    tension = request.getfixturevalue(name)
    s_stop = od.s_star(tension, -0.5 * tension.f_eN)

    def no_rows(*args):
        raise AssertionError("interpolant rows built")

    monkeypatch.setattr(od, "_interpolant", no_rows)
    assert od.dV_dv0(od.integrate_v(tension, 1.3, s_stop)).hex() == DV_DV0[name]
    traj = od.integrate_v(tension, 1.3, s_stop)
    with pytest.raises(AssertionError, match="interpolant rows built"):
        od.reconstruct_profile(traj, build_wulff_body(tension, 1024))


@pytest.mark.parametrize("name", ["euclid", "pnorm3"])
def test_shoot_builds_interpolant_rows_only_for_reconstructed_trajectories(
        request, monkeypatch, name):
    # Each probe reads V and dV/dv0 at its last node; only the trajectories
    # handed to reconstruct_profile, at v0 = 1 and at the root, build their
    # rows, one _interpolant call per step.
    tension = request.getfixturevalue(name)
    body = request.getfixturevalue(name + "_body")
    integrate, reconstruct, interpolant = (od.integrate_v, od.reconstruct_profile,
                                           od._interpolant)
    solves, reconstructed, rows = [], [], []

    def counted_integrate(*args, **kwargs):
        solves.append(integrate(*args, **kwargs))
        return solves[-1]

    def counted_reconstruct(traj, *args, **kwargs):
        reconstructed.append(traj)
        return reconstruct(traj, *args, **kwargs)

    def counted_rows(*args):
        rows.append(args)
        return interpolant(*args)

    monkeypatch.setattr(od, "integrate_v", counted_integrate)
    monkeypatch.setattr(od, "reconstruct_profile", counted_reconstruct)
    monkeypatch.setattr(od, "_interpolant", counted_rows)
    sol = od.shoot(body, -0.5 * tension.f_eN, 1.0)
    assert len(solves) == len(sol.diagnostics["v0_history"]) > 2
    built = [traj for traj in solves if "coeffs" in vars(traj)]
    assert built == reconstructed == [solves[0], sol.trajectory]
    assert len(rows) == sum(len(traj.steps) for traj in built)


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


@pytest.mark.parametrize("dim, v0", [(3, 1e200), (2, 5e-324)])
def test_stage_division_by_zero_is_a_nonconvergence(monkeypatch, dim, v0):
    # A division by zero inside the generated stage code ends the solve as
    # NonConvergence, as it did in the row-loop stepper: at v0 = 1e200 stage
    # 1's r * r underflows to 0 in the sensitivity, and at the subnormal v0
    # in the plane stage 12's den is 0.  integrate_v rejects both v0 up
    # front, so its range is lifted here to reach the stage code.
    monkeypatch.setattr(od, "_V0_MIN", 0.0)
    monkeypatch.setattr(od, "_V0_MAX", math.inf)
    tension = make_tension("euclid", dim=dim)
    with pytest.raises(NonConvergence, match="capillary ODE solve failed: float "
                       "division by zero") as info:
        od.integrate_v(tension, v0, s_stop=1.5)
    assert isinstance(info.value.__cause__, ZeroDivisionError)
    with pytest.raises(NonConvergence) as ref:
        _row_loop_solve(tension, v0, 1.5)
    assert str(ref.value) == str(info.value)
    assert type(ref.value.__cause__) is type(info.value.__cause__)


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


def test_n2_first_integral_holds_at_every_node():
    # At N = 2 the denominator is v, so v dv = s(w) dw, and by Euler's
    # identity the integral of s(w) from 0 is phi(0, 1) - d2phi(s(w), 1):
    # v(w)^2 = v0^2 + 2 (phi(0, 1) - d2phi(s(w), 1)) holds exactly.
    worst = 0.0
    for name, kw in (("euclid", {}), ("pnorm", {"p": 3.0}), ("pnorm", {"p": 1.5}),
                     ("weighted", {"c": 2.0}), ("weighted", {"c": 0.5})):
        tension = make_tension(name, dim=2, **kw)
        tau = tension.f_eN
        for frac in (-0.5, -0.05):
            s_stop = od.s_star(tension, frac * tau)
            for v0 in (0.1, 1.0, 10.0):
                traj = od.integrate_v(tension, v0, s_stop=s_stop)
                s = tension.phi.d1_inverse(traj.ts, 1.0)
                exact = v0 * v0 + 2.0 * (tau - tension.phi.d2(s, 1.0))
                worst = max(worst, np.max(np.abs(traj.ys[1] ** 2 / exact - 1.0)))
    assert worst <= 1e-10
