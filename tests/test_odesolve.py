import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from wulffdrop import odesolve as od
from wulffdrop import reduced
from wulffdrop.errors import NoBracket, OmegaOutOfGraphRange, OutOfRange, StalledInversion
from wulffdrop.tension import SurfaceTension, make_tension, phi_partials
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


def test_small_r_slope_law(euclid):
    # v'(r) = 2 v0 r + O(r^3) for the isotropic weight in R^3
    # (d11 phi(0, 2) = 1/2).
    traj = od.integrate_v(euclid, 1.0, r_stop=1e-3)
    ratio = traj.ss[-1] / (2.0 * 1.0 * traj.rs[-1])
    assert ratio == pytest.approx(1.0, abs=1e-4)


def test_trajectory_monotonicity_and_conservation(euclid):
    traj = od.integrate_v(euclid, 1.0, s_stop=1.5)
    assert traj.terminated == "s_stop"
    assert np.all(np.diff(traj.vs) > 0)      # v strictly increasing
    assert np.all(np.diff(traj.ss) > 0)      # v strictly convex
    assert traj.ss[-1] == pytest.approx(1.5, abs=1e-11)
    d1 = np.array([phi_partials(euclid, s, 2.0)[0] for s in traj.ss])
    residual = np.abs(traj.rs * d1 - traj.ws) / (1.0 + traj.ws)
    assert np.max(residual) <= 1e-10


def test_delta_positivity(euclid):
    traj = od.integrate_v(euclid, 0.7, s_stop=2.0)
    d1 = np.array([phi_partials(euclid, s, 2.0)[0] for s in traj.ss])
    delta = traj.rs * traj.vs - 0.5 * d1
    assert np.all(delta[traj.rs > 1e-5] > 0)


def test_negative_v0_decreasing(euclid):
    try:
        traj = od.integrate_v(euclid, -0.5, r_stop=3.0)
    except StalledInversion as stall:
        traj = stall.trajectory
    assert np.all(np.diff(traj.vs) < 0)


def test_integrate_requires_stop(euclid):
    with pytest.raises(ValueError):
        od.integrate_v(euclid, 1.0)
    with pytest.raises(ValueError):
        od.integrate_v(euclid, 0.0, s_stop=1.0)


def test_V_zero_and_monotone(euclid):
    traj = od.integrate_v(euclid, 1.0, s_stop=1.5)
    v_first = od.V_of(traj, traj.ss[0])
    assert abs(v_first) < 1e-8
    vals = [od.V_of(traj, s) for s in np.linspace(0.05, 1.5, 20)]
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(OutOfRange):
        od.V_of(traj, 2.0)


def test_V_matches_direct_quadrature(euclid):
    traj = od.integrate_v(euclid, 1.0, s_stop=1.5)
    s_query = 1.2
    V = od.V_of(traj, s_query)
    r_of_s = CubicSpline(traj.ss, traj.rs)
    v_of_r = CubicSpline(traj.rs, traj.vs)
    rq = float(r_of_s(s_query))
    rr = np.linspace(0.0, rq, 20001)
    vv = np.where(rr < traj.rs[0], traj.vs[0],
                  v_of_r(np.clip(rr, traj.rs[0], None)))
    quad = 2.0 * math.pi * np.trapezoid(rr * (float(v_of_r(rq)) - vv), rr)
    assert V == pytest.approx(quad, rel=1e-6)


def test_dV_dv0_negative_and_stable(euclid):
    s_star = od.s_star(euclid, -0.5)
    d1 = od.dV_dv0(euclid, 1.0, s_star, h_fd=1e-4)
    d2 = od.dV_dv0(euclid, 1.0, s_star, h_fd=5e-5)
    assert d1 < 0 and d2 < 0
    assert d1 == pytest.approx(d2, rel=1e-2)  # Richardson sanity


def test_step_doubling_convergence(euclid):
    r_ends = []
    for rtol in (1e-9, 1e-10):
        opts = od.StepOptions(rtol=rtol)
        traj = od.integrate_v(euclid, 1.0, s_stop=1.5, step_opts=opts)
        r_ends.append(traj.rs[-1])
    assert abs(r_ends[1] - r_ends[0]) / r_ends[1] < 1e-8


def test_reconstruct_boundary_conditions(euclid, euclid_body, euclid_shoot):
    sol = euclid_shoot
    prof, lam_mult, r_max, t_max = od.reconstruct_profile(
        sol.trajectory, euclid, euclid_body, omega=-0.5)
    assert t_max > 0
    assert prof.r[0] == pytest.approx(r_max)       # u(R_max) = 0
    assert prof.r[-1] == 0.0                        # apex closes
    assert prof.knots[-1] == pytest.approx(t_max)
    # u'(0) = 0: the apex is flat in the graph variable, i.e. the profile
    # has a vertical tangent; the top quarter must steepen monotonically.
    slopes = np.diff(prof.r) / np.diff(prof.knots)
    assert slopes[-1] < slopes[len(slopes) // 2] < slopes[0] < 0


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
    # Each history entry is one integrate_v + reconstruct_profile probe.
    v0s = [h[0] for h in euclid_shoot.diagnostics["v0_history"]]
    assert len(v0s) <= 10
    assert len(set(v0s)) == len(v0s)


@pytest.mark.parametrize("m", [0.1, 10.0])
@pytest.mark.parametrize("family", ["euclid", "pnorm3", "weighted2"])
def test_shoot_volume_and_young_across_families(request, family, m):
    tension = request.getfixturevalue(family)
    sol = od.shoot(tension, -0.5 * tension.f_eN, m,
                   body=build_wulff_body(tension, 1024))
    d = sol.diagnostics
    assert d["achieved_volume"] == pytest.approx(m, rel=1e-6)
    assert abs(d["young_residual"]) < 1e-8
    assert sol.trajectory.ss[-1] == pytest.approx(sol.s_star, abs=1e-11)


def test_shoot_bridge_constant(euclid_shoot):
    d = euclid_shoot.diagnostics
    assert d["bridge_constant"] == pytest.approx(d["bridge_predicted"], rel=1e-4)


def test_shoot_rejects_bad_inputs(euclid):
    with pytest.raises(OmegaOutOfGraphRange):
        od.shoot(euclid, 0.3, 1.0)
    with pytest.raises(ValueError):
        od.shoot(euclid, -0.5, 0.0)


def test_el_residual_convergence_appendix_equivalence(euclid, euclid_body,
                                                      euclid_shoot):
    # The reconstructed profile satisfies the radial Euler-Lagrange equation:
    # its discrete residual vanishes under refinement at second order,
    # confirming the u-equation and the r_E-equation agree.
    residuals = []
    for n in (101, 201, 401):
        prof, lam_mult, _, t_max = od.reconstruct_profile(
            euclid_shoot.trajectory, euclid, euclid_body, omega=-0.5, n_knots=n)
        residuals.append(reduced.el_residual(prof, lam_mult).max_abs(0.9 * t_max))
    rates = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert all(rate >= 1.8 for rate in rates), (residuals, rates)


def test_lambda_recovered_consistently(euclid_shoot):
    assert euclid_shoot.diagnostics["lambda_est"] == pytest.approx(
        euclid_shoot.lam, rel=1e-4)


def test_shoot_n2_planar():
    t2 = make_tension("euclid", dim=2)
    b2 = build_wulff_body(t2)
    sol = od.shoot(t2, -0.5, 1.0, body=b2)
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
    for m, sol in ((1.0, euclid_shoot), (2.0, od.shoot(euclid, -0.5, 2.0,
                                                       body=euclid_body))):
        b = (m / (euclid_body.area * cap)) ** (1.0 / 3.0)
        assert sol.t_max <= b * (hi - sigma0) + 1e-9


class _AnonPhi:
    """pnorm p=3 under an unregistered family name: no closed forms apply."""

    family = "anon"

    def __init__(self, base):
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


@pytest.fixture(scope="module")
def anon_pnorm3(pnorm3):
    return SurfaceTension(dim=3, phi=_AnonPhi(pnorm3.phi), h=pnorm3.h)


def test_generic_s_star_matches_closed_form(pnorm3, anon_pnorm3):
    for frac in (0.05, 0.3, 0.5, 0.9, 0.999):
        omega = -frac * pnorm3.f_eN
        assert od.s_star(anon_pnorm3, omega) == pytest.approx(
            od.s_star(pnorm3, omega), rel=1e-12)


def test_generic_d1_inverse_matches_closed_form(pnorm3, anon_pnorm3):
    closed = od._d1_inverse(pnorm3, 2.0)
    generic = od._d1_inverse(anon_pnorm3, 2.0)
    # Beyond about 0.99 the map flattens toward its asymptote and the inverse
    # is ill-conditioned for either form.
    for w in (1e-9, 1e-4, 0.1, -0.5, 0.9, 0.99):
        assert generic(w) == pytest.approx(closed(w), rel=1e-12)
    assert generic(0.0) == 0.0
    with pytest.raises(StalledInversion):
        generic(1.0)


@pytest.mark.parametrize("v0", [0.3, 0.8, 2.0])
def test_generic_integrate_v_matches_closed_form(pnorm3, anon_pnorm3, v0):
    # Rounding-level slope differences may shift the adaptive nodes, so the
    # comparison is at the stop slope, where shooting reads the trajectory.
    s_stop = od.s_star(pnorm3, -0.5 * pnorm3.f_eN)
    closed = od.integrate_v(pnorm3, v0, s_stop=s_stop)
    generic = od.integrate_v(anon_pnorm3, v0, s_stop=s_stop)
    assert generic.terminated == closed.terminated == "s_stop"
    for a, b in ((generic.rs, closed.rs), (generic.vs, closed.vs),
                 (generic.ws, closed.ws)):
        assert a[-1] == pytest.approx(b[-1], rel=1e-12)
    assert od.V_of(generic, s_stop) == pytest.approx(od.V_of(closed, s_stop),
                                                     rel=1e-12)
