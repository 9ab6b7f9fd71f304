"""Uniqueness pipeline: transformed capillary ODE, shooting, reconstruction.

For contact coefficients in the graph regime omega in (-phi(0,1), 0) the
minimizing profile is the graph of a decreasing function u(r), and the
change of variables v(r) = -(u(Lambda^2 r) + lambda)/Lambda turns the
Euler-Lagrange equation into the initial value problem

    d/dr [ r^(N-2) d1phi(v', N-1) ] = (N-1) r^(N-2) v,   v'(0) = 0,

parametrized by the apex value v0 = v(0) > 0.  The solver takes
w = d1phi(v', N-1) as the independent variable.  The slope s(w) is then the
inverse of the monotone map s -> d1phi(s, N-1), the closed form
``tension.phi.d1_inverse``, and the state (r, v) obeys

    dr/dw = 1 / den,   dv/dw = s(w) / den,   den = (N-1) v - (N-2) w / r,

from (r, v) = (0, v0) at w = 0, where den -> v0.  No second derivative of
phi enters, so this stays regular when d11phi(0, N-1) = 0 (p-norm weights
with p > 2).

Shooting: Young's condition -d2phi(s*, N-1) = omega fixes the contact slope
s* (``tension.phi.d2_inverse``), so each trajectory is one adaptive solve
over the fixed interval [0, w*] with w* = d1phi(s*, N-1), and the physical
profile is reconstructed from its dense output.  Reconstruction works in
array form: the DOP853 segment polynomials are stacked once into a
``DenseOutput`` that evaluates all knots in one expression, and the slope
inverse takes arrays, so each Newton pass of the inversion of v is a few
numpy calls.  The enclosed volume V_{v0}(s*) is strictly decreasing in v0,
so matching the directly integrated volume to the target is a bracketed
monotone root, solved by Brent's method in log2(v0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import (
    NoBracket,
    NonConvergence,
    OmegaOutOfGraphRange,
    OutOfRange,
    StalledInversion,
)
from .reduced import (
    Profile,
    el_residual,
    lambda_estimate,
    reduced_volume,
    young_residual,
)
from .tension import SurfaceTension
from .wulff import WulffBody, build_wulff_body


# solve_ivp tolerances of integrate_v.  The end state lies within about
# 4e-12 relative of an rtol-1e-13 solve (tests/test_odesolve.py).
_RTOL = 1e-12
_ATOL = 1e-14

# Relative volume tolerance of shoot.
_VOLUME_RTOL = 1e-6


def unit_ball_volume(dim: int) -> float:
    """Lebesgue measure of the unit ball in R^dim."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


class DenseOutput:
    """Array-form evaluator of a DOP853 dense output.

    Stacks the per-step interpolants of scipy's ``OdeSolution`` (the
    ``t_old``, ``h``, ``F`` and ``y_old`` fields of ``Dop853DenseOutput``)
    and evaluates all targets in one array expression.  Segment choice
    (``searchsorted`` on the left, clipped) and the polynomial's operation
    order are scipy's, so values are bit-identical to ``OdeSolution``'s.
    Called on a scalar it returns shape (n_states,), on an array
    (n_states, n_points).
    """

    def __init__(self, ts: np.ndarray, interpolants) -> None:
        self.ts = ts
        self.t_max = ts[-1]
        self.t_old = np.array([ip.t_old for ip in interpolants])
        self.h = np.array([ip.h for ip in interpolants])
        # Segment index last, so each step below runs along the targets.
        self.y_old = np.array([ip.y_old for ip in interpolants]).T
        # coeffs[i, :, k] is F[-1 - i] of segment k: the order of evaluation.
        self.coeffs = np.stack([ip.F[::-1] for ip in interpolants], axis=2)

    def __call__(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        k = np.clip(np.searchsorted(self.ts, w, side="left") - 1,
                    0, len(self.h) - 1)
        x = (w - self.t_old[k]) / self.h[k]
        y = np.zeros((len(self.y_old),) + w.shape)
        for i, f in enumerate(self.coeffs.take(k, axis=2)):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        y += self.y_old.take(k, axis=1)
        return y


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Transformed ODE solved over w in [0, w*].

    Nodes (r, v, s = v', W = r^(N-2) w) at the accepted steps, and the dense
    output of (r, v) as a function of w; ``dense.ts`` holds the node values
    of w.
    """

    rs: np.ndarray
    vs: np.ndarray
    ss: np.ndarray
    ws: np.ndarray
    v0: float
    tension: SurfaceTension
    dense: DenseOutput


@dataclass(frozen=True, eq=False)
class ShootingSolution:
    """Matched shooting solution with the reconstructed physical profile."""

    v0: float
    s_star: float
    trajectory: Trajectory
    r_max: float
    t_max: float
    lam: float
    profile: Profile
    diagnostics: dict


# ---------------------------------------------------------------------------
# Contact slope
# ---------------------------------------------------------------------------

def s_star(tension: SurfaceTension, omega: float) -> float:
    """Contact slope parameter: the unique s > 0 with -d2phi(s, N-1) = omega.

    Defined for the graph regime omega in (-phi(0,1), 0), where
    d2phi(., N-1) decreases strictly from phi(0,1) to 0.  The inverse is
    taken in numpy floats, so that it overflows to inf instead of raising;
    an s* that is not positive and finite raises StalledInversion.
    """
    if not (-tension.f_eN < omega < 0.0):
        raise OmegaOutOfGraphRange(
            f"omega={omega} outside the graph regime (-{tension.f_eN}, 0)"
        )
    with np.errstate(all="ignore"):
        s = float(tension.phi.d2_inverse(np.float64(-omega), float(tension.dim - 1)))
    if not 0.0 < s < math.inf:
        raise StalledInversion(f"contact slope s*={s} of omega={omega} is not "
                               "a positive finite number", target=-omega)
    return s


# ---------------------------------------------------------------------------
# Integration of the transformed ODE
# ---------------------------------------------------------------------------

def integrate_v(tension: SurfaceTension, v0: float,
                s_stop: Optional[float] = None) -> Trajectory:
    """Solve the capillary ODE in w from the apex to the stop slope.

    One DOP853 solve over [0, w*], w* = d1phi(s_stop, N-1), starting from
    (r, v) = (0, v0); the last node lies at s = s_stop.  The slope inverse
    s(w) is only evaluated inside [0, w*], so w* within rounding of the
    asymptote phi(1, 0) of d1phi raises StalledInversion, and so does a w*
    that is not positive (d1phi underflowed or is NaN).
    """
    if not v0 > 0.0:
        raise ValueError("v0 must be positive")
    if s_stop is None or not 0.0 < s_stop < math.inf:
        raise ValueError("need a positive, finite stop slope s_stop")
    nm1 = tension.dim - 1
    t = float(nm1)
    phi = tension.phi
    w_end = float(phi.d1(s_stop, t))
    sup = float(phi.value(1.0, 0.0))
    if not 0.0 < w_end < sup * (1.0 - 1e-14):
        raise StalledInversion(
            f"slope target {w_end} outside (0, {sup}), the open range of d1phi",
            target=w_end,
        )

    def rhs(w: float, y: np.ndarray) -> tuple[float, float]:
        r, v = y.tolist()
        den = nm1 * v - (nm1 - 1) * w / r if r > 0.0 else v
        return 1.0 / den, phi.d1_inverse(w, t) / den

    sol = solve_ivp(rhs, (0.0, w_end), (0.0, v0), method="DOP853",
                    rtol=_RTOL, atol=_ATOL, dense_output=True)
    if not sol.success:
        raise NonConvergence(f"capillary ODE solve failed: {sol.message}")
    rs, vs = sol.y
    return Trajectory(
        rs=rs, vs=vs, ss=phi.d1_inverse(sol.t, t),
        ws=rs ** (nm1 - 1) * sol.t, v0=v0, tension=tension,
        dense=DenseOutput(sol.t, sol.sol.interpolants),
    )


# ---------------------------------------------------------------------------
# Enclosed volume and its v0-derivative
# ---------------------------------------------------------------------------

def V_of(traj: Trajectory, s: float) -> float:
    """Enclosed volume between the graph of v and the level v(r(s)).

    Closed form omega_{N-1} r^(N-2) (r v - w) at w = d1phi(s, N-1), with
    (r, v) read from the dense output.
    """
    nm1 = traj.tension.dim - 1
    w = float(traj.tension.phi.d1(s, float(nm1)))
    if not 0.0 <= w <= traj.dense.t_max:
        raise OutOfRange(f"s={s} outside the trajectory range "
                         f"[{traj.ss[0]}, {traj.ss[-1]}]")
    r, v = traj.dense(w).tolist()
    return unit_ball_volume(nm1) * r ** (nm1 - 1) * (r * v - w)


def dV_dv0(tension: SurfaceTension, v0: float, s_star_val: float,
           h_fd: float) -> float:
    """Central finite difference of v0 -> V_{v0}(s*); negative for admissible
    tensions (the uniqueness mechanism)."""
    if not (v0 > h_fd > 0):
        raise ValueError("need v0 > h_fd > 0")
    vals = []
    for v in (v0 + h_fd, v0 - h_fd):
        traj = integrate_v(tension, v, s_stop=s_star_val)
        vals.append(V_of(traj, s_star_val))
    return (vals[0] - vals[1]) / (2.0 * h_fd)


# ---------------------------------------------------------------------------
# Reconstruction and shooting
# ---------------------------------------------------------------------------

def _invert_v(traj: Trajectory,
              v_targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, rho) with v(rho) = target for targets strictly inside
    (v0, v(w*)), rho = r(w).

    Each target is bracketed between nodes; safeguarded Newton steps in w
    with dv/dw = s(w) / den on the dense output then solve v(w) = target to
    rounding level, which keeps interpolation noise out of the divided
    differences of downstream residual stencils.  The dense output and the
    slopes are evaluated for all targets at once.
    """
    nm1 = traj.tension.dim - 1
    phi = traj.tension.phi
    nodes = traj.dense.ts
    j = np.clip(np.searchsorted(traj.vs, v_targets) - 1, 0, len(nodes) - 2)
    lo, hi = nodes[j], nodes[j + 1]
    w = lo + (v_targets - traj.vs[j]) / (traj.vs[j + 1] - traj.vs[j]) * (hi - lo)
    eps = np.finfo(float).eps
    tol = 4.0 * eps * traj.vs[-1]
    for _ in range(60):
        r, v = traj.dense(w)
        f = v - v_targets
        lo = np.where(f < 0.0, w, lo)
        hi = np.where(f > 0.0, w, hi)
        s = phi.d1_inverse(w, float(nm1))
        with np.errstate(divide="ignore", invalid="ignore"):
            w_new = w - f * (nm1 * v - (nm1 - 1) * w / r) / s
        # Done once each v(w) is exact to rounding, or w cannot resolve it
        # (near w*, where v is steep in w).
        if np.all((np.abs(f) <= tol) | (np.abs(w_new - w) <= 4.0 * eps * w)):
            break
        # Bisect wherever the Newton step leaves the bracket (or is NaN).
        w = np.where((w_new >= lo) & (w_new <= hi), w_new, 0.5 * (lo + hi))
    return w, r


def reconstruct_profile(traj: Trajectory, tension: SurfaceTension,
                        body: WulffBody, omega: Optional[float] = None,
                        n_knots: int = 801):
    """Map the trajectory back to the physical profile r_E(t).

    The inverse change of variables is u(rho) = v(r(s*)) - v(rho / Lambda),
    giving R_max = Lambda r(s*), the multiplier lambda = -v(r(s*)), and
    T_max = u(0) = v(r(s*)) - v0.  (Substituting this scaling into the
    Euler-Lagrange equation reproduces the transformed ODE exactly; see the
    contact-slope identity r_E'(0) = -Lambda/s*.)  The graph u is inverted
    onto a t-grid refined near the apex; the base and apex knots are the
    trajectory's end points.  Returns (Profile, lambda, R_max, T_max).
    """
    lam = body.lam
    v_end = float(traj.vs[-1])
    r_end = float(traj.rs[-1])
    r_max = lam * r_end
    lam_mult = -v_end
    t_max = v_end - traj.v0

    xi = np.linspace(0.0, 1.0, n_knots)
    t_grid = t_max * np.sin(0.5 * math.pi * xi)
    t_grid[0], t_grid[-1] = 0.0, t_max
    # Invert v along the trajectory: r_E(t) = Lambda rho, v(rho) = v_end - t.
    r_prof = np.empty(n_knots)
    r_prof[0] = r_max
    r_prof[1:-1] = lam * _invert_v(traj, v_end - t_grid[1:-1])[1]
    r_prof[-1] = 0.0
    prof = Profile(knots=t_grid, r=r_prof, tension=tension, body=body, omega=omega)
    return prof, lam_mult, r_max, t_max


# Brent tolerance of the volume match in log2(v0): a relative v0 error of
# about 1e-8, two decades inside the volume tolerance.
_LOG_V0_XTOL = 1e-8


def shoot(tension: SurfaceTension, omega: float, m: float,
          body: Optional[WulffBody] = None) -> ShootingSolution:
    """Shoot on the apex parameter v0 until the profile volume equals m.

    The achieved volume is recomputed from the reconstructed profile by
    exact slab integration; the proportionality between it and the enclosed
    volume V_{v0}(s*) is reported in the diagnostics rather than assumed.
    Volume decreases strictly in v0, so doubling or halving v0 from 1 over
    2^-21..2^21 brackets any attainable target, and Brent's method on
    log2(v0) solves the bracketed monotone root.  Every probe is memoized,
    so ``v0_history`` lists each probed v0 once.
    """
    if not 0 < m < math.inf:
        raise ValueError("volume must be positive and finite")
    s_st = s_star(tension, omega)
    if body is None:
        body = build_wulff_body(tension, 1024)

    memo: dict = {}
    history = []

    def resid(log_v0: float) -> float:
        if log_v0 not in memo:
            v0 = 2.0**log_v0
            traj = integrate_v(tension, v0, s_stop=s_st)
            prof, lam_mult, r_max, t_max = reconstruct_profile(
                traj, tension, body, omega=omega
            )
            vol = reduced_volume(prof)
            memo[log_v0] = vol, (traj, prof, lam_mult, r_max, t_max)
            history.append((v0, vol))
        return memo[log_v0][0] - m

    # Geometric bracket: volume is strictly decreasing in v0.
    x_a, f_a = 0.0, resid(0.0)
    step = 1.0 if f_a > 0.0 else -1.0
    for _ in range(21):
        x_b = x_a + step
        f_b = resid(x_b)
        if f_a * f_b <= 0.0:
            break
        x_a, f_a = x_b, f_b
    else:
        raise NoBracket("volume target outside the v0-scan range", table=history)

    log_v0 = brentq(resid, min(x_a, x_b), max(x_a, x_b), xtol=_LOG_V0_XTOL)
    resid(log_v0)
    vol, state = memo[log_v0]
    if abs(vol - m) > _VOLUME_RTOL * m:
        raise NoBracket("volume solve failed to converge", table=history)
    v0 = 2.0**log_v0

    traj, prof, lam_mult, r_max, t_max = state
    contact_slope = -body.lam / s_st
    res = el_residual(prof, lam_mult)
    v_enclosed = V_of(traj, s_st)
    diagnostics = {
        "achieved_volume": vol,
        "young_residual": young_residual(prof, omega, contact_slope=contact_slope),
        "max_el_residual": res.max_abs(0.9 * t_max),
        "lambda_est": lambda_estimate(prof),
        "contact_slope": contact_slope,
        "bridge_constant": vol / v_enclosed,
        "bridge_predicted": body.area * body.lam ** (tension.dim - 1)
        / unit_ball_volume(tension.dim - 1),
        "v0_history": history,
    }
    prof = Profile(knots=prof.knots, r=prof.r, tension=tension, body=body,
                   omega=omega, meta={"method": "shoot", "v0": v0,
                                      "s_star": s_st, "lambda": lam_mult})
    return ShootingSolution(
        v0=v0, s_star=s_st, trajectory=traj, r_max=r_max, t_max=t_max,
        lam=lam_mult, profile=prof, diagnostics=diagnostics,
    )
