"""Uniqueness pipeline: transformed capillary ODE, shooting, reconstruction.

For contact coefficients in the graph regime omega in (-phi(0,1), 0) the
minimizing profile is the graph of a decreasing function u(r), and the
change of variables v(r) = -(u(Lambda^2 r) + lambda)/Lambda turns the
Euler-Lagrange equation into the initial value problem

    d/dr [ r^(N-2) d1phi(v', N-1) ] = (N-1) r^(N-2) v,   v'(0) = 0,

parametrized by the apex value v0 = v(0) > 0.  The solver advances the
integral form of the equation: it maintains W(r) = int_0^r (N-1) rho^(N-2) v
and recovers the slope s = v' by inverting the monotone map
s -> d1phi(s, N-1) (closed form for the built-in families, Brent's method
otherwise).  This stays robust when d11phi(0, N-1) = 0 (p-norm weights with
p > 2), where a series start based on the second-derivative form would be
invalid.

Shooting: the trajectory is stopped at the contact slope s* defined by
Young's condition -d2phi(s*, N-1) = omega (Brent's method on the last step
length lands on it), and the physical profile is reconstructed.  The
enclosed volume V_{v0}(s*) is strictly decreasing in v0, so matching the
directly integrated volume to the target is a bracketed monotone root,
solved by Brent's method in log2(v0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .errors import (
    NoBracket,
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
from .tension import SurfaceTension, phi_partials
from .wulff import WulffBody, build_wulff_body


# Absolute brentq tolerance of the generic slope inversions: negligible, so
# the relative tolerance alone sets the accuracy, also for slopes near 0.
_INVERSION_XTOL = 1e-300


def unit_ball_volume(dim: int) -> float:
    """Lebesgue measure of the unit ball in R^dim."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


@dataclass
class StepOptions:
    rtol: float = 1e-10
    h_init: float = 1e-3
    h_min: float = 1e-13
    max_steps: int = 400_000
    max_ds: float = 0.02          # slope increase per accepted step
    startup_factor: float = 1e-6  # epsilon_0 = factor * max(1, 1/|v0|)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Accepted integration nodes (r, v, s = v', W) of the transformed ODE."""

    rs: np.ndarray
    vs: np.ndarray
    ss: np.ndarray
    ws: np.ndarray
    v0: float
    tension: SurfaceTension
    terminated: str  # "s_stop" | "r_stop" | "max_steps"


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
# Scalar kernels for the built-in families
# ---------------------------------------------------------------------------

def _d1_inverse(tension: SurfaceTension, t: float) -> Callable[[float], float]:
    """Closed-form inverse of s -> d1phi(s, t) when available, else Brent's
    method on a doubling bracket.

    The map increases from 0 to phi(1, 0) (never attained); targets at or
    beyond the asymptote raise StalledInversion.
    """
    phi = tension.phi
    sup = float(phi.value(1.0, 0.0))

    def guard(w: float) -> float:
        aw = abs(w)
        if aw >= sup * (1.0 - 1e-14):
            raise StalledInversion(
                f"slope target {w} at or beyond the asymptote {sup}", target=w
            )
        return aw

    if phi.family == "euclid":
        def inv(w: float) -> float:
            aw = guard(w)
            return math.copysign(t * aw / math.sqrt(1.0 - aw * aw), w)
        return inv
    if phi.family == "weighted":
        rc = math.sqrt(phi.c)

        def inv(w: float) -> float:
            aw = guard(w)
            return math.copysign(rc * t * aw / math.sqrt(1.0 - aw * aw), w)
        return inv
    if phi.family == "pnorm" and phi.p > 1.0:
        p = phi.p
        q = p / (p - 1.0)

        def inv(w: float) -> float:
            aw = guard(w)
            if aw == 0.0:
                return 0.0
            u = aw**q
            return math.copysign(t * (u / (1.0 - u)) ** (1.0 / p), w)
        return inv

    def inv(w: float) -> float:
        aw = guard(w)
        if aw == 0.0:
            return 0.0
        lo, hi = 0.0, 1.0
        for _ in range(200):
            if float(phi.d1(hi, t)) >= aw:
                break
            hi *= 2.0
        else:
            raise StalledInversion("failed to bracket the slope inversion", target=w)
        s = brentq(lambda x: float(phi.d1(x, t)) - aw, lo, hi, xtol=_INVERSION_XTOL)
        return math.copysign(s, w)
    return inv


def s_star(tension: SurfaceTension, omega: float) -> float:
    """Contact slope parameter: the unique s > 0 with -d2phi(s, N-1) = omega.

    Defined for the graph regime omega in (-phi(0,1), 0); d2phi(., N-1)
    decreases strictly from phi(0,1) to 0, so Brent's method on an expanding
    bracket always succeeds.  Closed forms are used for the built-in
    families.
    """
    if not (-tension.f_eN < omega < 0.0):
        raise OmegaOutOfGraphRange(
            f"omega={omega} outside the graph regime (-{tension.f_eN}, 0)"
        )
    t = float(tension.dim - 1)
    v = -omega
    phi = tension.phi
    if phi.family == "euclid":
        return t * math.sqrt(1.0 - v * v) / v
    if phi.family == "weighted":
        c = phi.c
        return t * math.sqrt(c * c / (v * v) - c)
    if phi.family == "pnorm" and phi.p > 1.0:
        q = phi.p / (phi.p - 1.0)
        return t * (v**-q - 1.0) ** (1.0 / phi.p)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if float(phi.d2(hi, t)) <= v:
            break
        hi *= 2.0
    else:
        raise NoBracket(f"d2phi never drops to {v}; omega too close to 0")
    return brentq(lambda x: float(phi.d2(x, t)) - v, lo, hi, xtol=_INVERSION_XTOL)


# ---------------------------------------------------------------------------
# Integration of the transformed ODE
# ---------------------------------------------------------------------------

def integrate_v(tension: SurfaceTension, v0: float,
                s_stop: Optional[float] = None,
                step_opts: Optional[StepOptions] = None,
                r_stop: Optional[float] = None) -> Trajectory:
    """Advance the integral form of the capillary ODE from the apex.

    State (v, W) with W(r) = int_0^r (N-1) rho^(N-2) v; the slope is
    recovered as s = (d1phi(., N-1))^-1 (W / r^(N-2)) at every stage, so the
    integral-form identity holds exactly at the accepted nodes.  Starts from
    epsilon_0 with the exact small-r integral W ~ v0 r^(N-1).  Stops when
    s >= s_stop (Brent's method on the final step length lands on s_stop to
    about 1e-12 relative), when r >= r_stop, or when the step budget runs
    out.
    """
    if v0 == 0.0:
        raise ValueError("v0 must be nonzero")
    if s_stop is None and r_stop is None:
        raise ValueError("need a stopping criterion (s_stop or r_stop)")
    opts = step_opts or StepOptions()
    nm1 = tension.dim - 1
    t = float(nm1)
    inv = _d1_inverse(tension, t)

    def slope(r: float, w: float) -> float:
        return inv(w / r ** (nm1 - 1))

    def rhs(r: float, y: tuple[float, float]) -> tuple[float, float]:
        v, w = y
        return slope(r, w), t * r ** (nm1 - 1) * v

    def rk4(r: float, y: tuple[float, float], h: float,
            k1: Optional[tuple[float, float]] = None) -> tuple[float, float]:
        if k1 is None:
            k1 = rhs(r, y)
        k2 = rhs(r + 0.5 * h, (y[0] + 0.5 * h * k1[0], y[1] + 0.5 * h * k1[1]))
        k3 = rhs(r + 0.5 * h, (y[0] + 0.5 * h * k2[0], y[1] + 0.5 * h * k2[1]))
        k4 = rhs(r + h, (y[0] + h * k3[0], y[1] + h * k3[1]))
        return (
            y[0] + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            y[1] + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        )

    r = opts.startup_factor * max(1.0, 1.0 / abs(v0))
    y = (v0, v0 * r**nm1)
    rs, vs, ws, ss = [r], [y[0]], [y[1]], [slope(r, y[1])]
    h = opts.h_init
    terminated = "max_steps"
    for _ in range(opts.max_steps):
        if s_stop is not None and ss[-1] >= s_stop:
            terminated = "s_stop"
            break
        if r_stop is not None and r >= r_stop:
            terminated = "r_stop"
            break
        if r_stop is not None:
            h = min(h, r_stop - r)
        # The first RK4 stage at the node: its slope is already ss[-1].
        k1 = (ss[-1], t * r ** (nm1 - 1) * y[0])
        try:
            y_full = rk4(r, y, h, k1)
            y_half = rk4(r + 0.5 * h, rk4(r, y, 0.5 * h, k1), 0.5 * h)
        except StalledInversion as stall:
            # Either the trial step overshot a region where the solution
            # still exists, or the slope genuinely blows up here.
            if h > 4 * opts.h_min:
                h *= 0.5
                continue
            stall.r = r
            stall.trajectory = Trajectory(
                rs=np.array(rs), vs=np.array(vs), ss=np.array(ss),
                ws=np.array(ws), v0=v0, tension=tension, terminated="stalled",
            )
            raise
        err = max(
            abs(y_full[0] - y_half[0]) / (1.0 + abs(y_half[0])),
            abs(y_full[1] - y_half[1]) / (1.0 + abs(y_half[1])),
        ) / 15.0
        s_new = slope(r + h, y_half[1])
        if err <= opts.rtol:
            if (s_stop is not None and s_new - ss[-1] > opts.max_ds
                    and h > 4 * opts.h_min):
                h *= 0.5  # keep the slope grid dense for interpolation
                continue
            if s_stop is not None and s_new > s_stop:
                # Land on the stop slope: Brent's method on the step length,
                # advancing with the same two half steps as an accepted step.
                # The step raises s by at most max_ds, so a step-length
                # tolerance of 1e-12 h moves s by far less than 1e-11.
                def advance(hh: float) -> tuple[float, float]:
                    return rk4(r + 0.5 * hh, rk4(r, y, 0.5 * hh, k1), 0.5 * hh)

                h = brentq(lambda hh: slope(r + hh, advance(hh)[1]) - s_stop,
                           0.0, h, xtol=1e-12 * h)
                y = advance(h)
                r += h
                rs.append(r)
                vs.append(y[0])
                ws.append(y[1])
                ss.append(slope(r, y[1]))
                terminated = "s_stop"
                break
            r += h
            y = y_half
            rs.append(r)
            vs.append(y[0])
            ws.append(y[1])
            ss.append(s_new)
            h = min(h * min(5.0, max(0.2, 0.9 * (opts.rtol / max(err, 1e-300)) ** 0.2)),
                    0.1 * max(r, 1.0))
        else:
            h = max(h * max(0.2, 0.9 * (opts.rtol / err) ** 0.2), opts.h_min)
    return Trajectory(
        rs=np.array(rs), vs=np.array(vs), ss=np.array(ss), ws=np.array(ws),
        v0=v0, tension=tension, terminated=terminated,
    )


# ---------------------------------------------------------------------------
# Enclosed volume and its v0-derivative
# ---------------------------------------------------------------------------

def V_of(traj: Trajectory, s: float) -> float:
    """Enclosed volume between the graph of v and the level v(r(s)).

    Closed form omega_{N-1} [ r(s)^(N-1) v(r(s)) - r(s)^(N-2) d1phi(s, N-1) ];
    r(s) and v(r(s)) are interpolated along the trajectory.
    """
    nm1 = traj.tension.dim - 1
    if not (traj.ss[0] - 1e-12 <= s <= traj.ss[-1] + 1e-12):
        raise OutOfRange(f"s={s} outside the trajectory range "
                         f"[{traj.ss[0]}, {traj.ss[-1]}]")
    r_of_s = CubicSpline(traj.ss, traj.rs)
    v_of_s = CubicSpline(traj.ss, traj.vs)
    r = float(r_of_s(s))
    v = float(v_of_s(s))
    d1 = float(phi_partials(traj.tension, s, float(nm1))[0])
    return unit_ball_volume(nm1) * (r**nm1 * v - r ** (nm1 - 1) * d1)


def dV_dv0(tension: SurfaceTension, v0: float, s_star_val: float,
           h_fd: float, step_opts: Optional[StepOptions] = None) -> float:
    """Central finite difference of v0 -> V_{v0}(s*); negative for admissible
    tensions (the uniqueness mechanism)."""
    if not (v0 > h_fd > 0):
        raise ValueError("need v0 > h_fd > 0")
    vals = []
    for v in (v0 + h_fd, v0 - h_fd):
        traj = integrate_v(tension, v, s_stop=s_star_val, step_opts=step_opts)
        vals.append(V_of(traj, s_star_val))
    return (vals[0] - vals[1]) / (2.0 * h_fd)


# ---------------------------------------------------------------------------
# Reconstruction and shooting
# ---------------------------------------------------------------------------

def _invert_v_dense(traj: Trajectory, v_targets: np.ndarray) -> np.ndarray:
    """rho with v(rho) = target, via quintic Hermite dense output.

    Each trajectory interval carries the exact nodal values (v, v' = s) and
    the second derivative v'' = (N-1) Delta / (r d11phi(s, N-1)) from the
    expanded ODE, giving O(h^6) dense output; intervals where the curvature
    degenerates (d11phi -> 0, p-norm weights with p > 2 near the apex) fall
    back to cubic Hermite.  Newton iteration on the interpolant then inverts
    v to machine accuracy, which keeps interpolation noise out of the
    divided differences of downstream residual stencils.
    """
    nm1 = traj.tension.dim - 1
    rs, vs, ss = traj.rs, traj.vs, traj.ss
    d1, _, d11 = phi_partials(traj.tension, ss, float(nm1))
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = rs * vs - (nm1 - 1) / nm1 * d1
        acc = nm1 * delta / (rs * d11)
    bad = ~np.isfinite(acc) | (np.abs(acc) > 1e12)
    acc = np.where(bad, 0.0, acc)

    h = np.diff(rs)
    v0, v1 = vs[:-1], vs[1:]
    s0, s1 = ss[:-1] * h, ss[1:] * h
    a0, a1 = acc[:-1] * h * h, acc[1:] * h * h
    quintic = ~(bad[:-1] | bad[1:])
    # Quintic Hermite coefficients in the local coordinate x in [0, 1].
    d_v = v1 - v0
    c = np.zeros((len(h), 6))
    c[:, 0] = v0
    c[:, 1] = s0
    c[:, 2] = np.where(quintic, 0.5 * a0, 3 * d_v - 2 * s0 - s1)
    c[:, 3] = np.where(
        quintic,
        10 * d_v - 6 * s0 - 4 * s1 - 1.5 * a0 + 0.5 * a1,
        s0 + s1 - 2 * d_v,
    )
    c[:, 4] = np.where(quintic, -15 * d_v + 8 * s0 + 7 * s1 + 1.5 * a0 - a1, 0.0)
    c[:, 5] = np.where(quintic, 6 * d_v - 3 * (s0 + s1) - 0.5 * (a0 - a1), 0.0)

    vt = np.clip(v_targets, vs[0], vs[-1])
    j = np.clip(np.searchsorted(vs, vt, side="right") - 1, 0, len(h) - 1)
    cj = c[j]
    x = np.clip((vt - vs[j]) / np.maximum(vs[j + 1] - vs[j], 1e-300), 0.0, 1.0)
    powers = np.arange(6)
    for _ in range(60):
        xp = x[:, None] ** powers[None, :]
        val = (cj * xp).sum(axis=1) - vt
        der = (cj[:, 1:] * powers[None, 1:] * xp[:, :-1]).sum(axis=1)
        step = val / np.where(np.abs(der) > 1e-300, der, 1.0)
        x_new = np.clip(x - step, 0.0, 1.0)
        if np.max(np.abs(x_new - x)) < 1e-15:
            x = x_new
            break
        x = x_new
    return rs[j] + x * h[j]


def reconstruct_profile(traj: Trajectory, tension: SurfaceTension,
                        body: WulffBody, omega: Optional[float] = None,
                        n_knots: int = 801):
    """Map the trajectory back to the physical profile r_E(t).

    The inverse change of variables is u(rho) = v(r(s*)) - v(rho / Lambda),
    giving R_max = Lambda r(s*), the multiplier lambda = -v(r(s*)), and
    T_max = u(0) = v(r(s*)) - v0.  (Substituting this scaling into the
    Euler-Lagrange equation reproduces the transformed ODE exactly; see the
    contact-slope identity r_E'(0) = -Lambda/s*.)  The graph u is inverted
    onto a t-grid refined near the apex.  Returns
    (Profile, lambda, R_max, T_max).
    """
    lam = body.lam
    v_end = float(traj.vs[-1])
    r_end = float(traj.rs[-1])
    r_max = lam * r_end
    lam_mult = -v_end
    t_max = v_end - traj.v0
    if t_max <= 0:
        raise ValueError("non-increasing trajectory cannot be reconstructed")

    xi = np.linspace(0.0, 1.0, n_knots)
    t_grid = t_max * np.sin(0.5 * math.pi * xi)
    t_grid[0], t_grid[-1] = 0.0, t_max
    # Invert v along the trajectory: r_E(t) = Lambda rho, v(rho) = v_end - t.
    rho = _invert_v_dense(traj, v_end - t_grid)
    r_prof = lam * np.clip(rho, 0.0, None)
    r_prof[0] = r_max
    r_prof[-1] = 0.0
    prof = Profile(knots=t_grid, r=r_prof, tension=tension, body=body, omega=omega)
    return prof, lam_mult, r_max, t_max


@dataclass
class ShootOptions:
    volume_rtol: float = 1e-6
    n_knots: int = 801
    step: StepOptions = field(default_factory=StepOptions)


# Brent tolerance of the volume match in log2(v0): a relative v0 error of
# about 1e-8, two decades inside the default volume_rtol.
_LOG_V0_XTOL = 1e-8


def shoot(tension: SurfaceTension, omega: float, m: float,
          opts: Optional[ShootOptions] = None,
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
    opts = opts or ShootOptions()
    s_st = s_star(tension, omega)
    if body is None:
        body = build_wulff_body(tension, 1024)

    memo: dict = {}
    history = []

    def resid(log_v0: float) -> float:
        if log_v0 not in memo:
            v0 = 2.0**log_v0
            traj = integrate_v(tension, v0, s_stop=s_st, step_opts=opts.step)
            prof, lam_mult, r_max, t_max = reconstruct_profile(
                traj, tension, body, omega=omega, n_knots=opts.n_knots
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
    if abs(vol - m) > opts.volume_rtol * m:
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
