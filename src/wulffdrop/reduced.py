"""Symmetric radial reduction of the drop energy.

A symmetric candidate is a profile t -> r(t): the slice at height t is
r(t) * K_h.  Dividing the energy by |K_h| gives the reduced functional

    omega r(0)^(N-1)
      + int r^(N-2) phi(Lambda, -(N-1) r') dt
      + int t r^(N-1) dt,

plus a flat-top contribution phi(0,1) r(T)^(N-1) when the profile is
truncated at positive radius.  Here Lambda = P_h(K_h)/|K_h|, which equals
N-1 exactly for the polytopal bodies built by :mod:`wulffdrop.wulff`.

The module provides the profile type, exact volume and energy,
Euler-Lagrange and contact-slope (Young) residuals, and a
volume-constrained Newton minimizer on the slice measure r^(N-1), whose
energy carries its analytic gradient and Hessian.

Energies are evaluated over profiles laid end to end in one array pass
(:func:`profile_energies`); :func:`reduced_energy` is that pass on a block
of one, and a profile's energy is the same in any block.  It is the sets'
exact slab pass (:func:`_quad.slab_energies`); only the direct solver's
slice-measure functional uses the Gauss rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    DegenerateRadius,
    EmptyBase,
    InvalidInput,
    NonConvergence,
    OmegaOutOfRange,
)
from ._quad import GAUSS_W, GAUSS_X, slab_energies, slab_lateral, slab_layout, slab_volume
from .tension import SurfaceTension
from .wulff import MAX_SIZE, WulffBody, alpha_table, concavity_defect


@dataclass(frozen=True, eq=False)
class EnergyBreakdown:
    """Surface, contact and potential contributions plus their sum.

    When the energy is evaluated at a 1-D array of contact coefficients,
    ``Fc`` and ``total`` are arrays with one entry per coefficient.  The
    energies of a block of profiles or of sets hold arrays with one leading
    entry per member; :meth:`at` picks one member.
    """

    Fs: float
    Fc: float | np.ndarray
    Fp: float
    total: float | np.ndarray

    def at(self, index) -> "EnergyBreakdown":
        """Member ``index`` of a block's breakdown, 0-d values as floats."""
        def pick(x):
            x = np.asarray(x)[index]
            return float(x) if x.ndim == 0 else x
        return EnergyBreakdown(Fs=pick(self.Fs), Fc=pick(self.Fc),
                               Fp=pick(self.Fp), total=pick(self.total))


@dataclass(frozen=True, eq=False)
class Profile:
    """Radial description of a symmetric candidate drop.

    ``knots`` are strictly increasing heights starting at 0; ``r`` the
    radii (slice at height t is r(t) K_h, piecewise linear in t).  The
    tension is the one ``body`` was built for.
    """

    knots: np.ndarray
    r: np.ndarray
    body: WulffBody
    omega: Optional[float] = None
    meta: Optional[dict] = None

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "r", r)
        if knots.ndim != 1 or knots.shape != r.shape:
            raise ValueError("knots and r must be 1-D arrays of equal length")
        if knots[0] != 0.0:
            raise ValueError("profiles start at height 0")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if np.any(r < 0):
            raise ValueError("radii must be non-negative")

    @property
    def tension(self) -> SurfaceTension:
        return self.body.tension

    @property
    def tension_id(self) -> str:
        return self.tension.tension_id

    @property
    def t_max(self) -> float:
        return float(self.knots[-1])

    def interp(self, t):
        return np.interp(t, self.knots, self.r)

    def concavity_defect(self) -> float:
        return concavity_defect(self.knots, self.r)


def check_omega(tension: SurfaceTension, omega) -> None:
    """Raise unless omega (a scalar, or every entry of an array) is admissible."""
    lo, hi = tension.omega_range
    for om in np.ravel(omega):
        if not (lo < om < hi):
            raise OmegaOutOfRange(
                f"omega={om} outside the admissible interval ({lo}, {hi})"
            )


def check_mass(m) -> None:
    """Raise unless the volume m is positive and finite."""
    if not 0 < m < math.inf:
        raise InvalidInput("mass must be positive and finite")


def _resolve_omega(p: Profile) -> float:
    if p.omega is None:
        raise OmegaOutOfRange("no contact coefficient attached to this profile")
    check_omega(p.tension, p.omega)
    return float(p.omega)


# ---------------------------------------------------------------------------
# Volume and energy
# ---------------------------------------------------------------------------

def reduced_volume(p: Profile) -> float:
    """|E| = |K_h| * int r(t)^(N-1) dt, slab-exact for piecewise-linear r."""
    return slab_volume(p.body.area, p.knots, p.r, p.tension.dim - 1)


def _lateral(body: WulffBody, knots: np.ndarray, r: np.ndarray, n_knots: np.ndarray):
    """Each slab's lateral coefficient |K_h| phi(Lambda, -(N-1) r') for
    profiles of ``n_knots`` knots laid end to end."""
    _, lo = slab_layout(n_knots)
    slope = (r[lo + 1] - r[lo]) / (knots[lo + 1] - knots[lo])
    return body.area * body.tension.phi.value(body.lam, -(body.tension.dim - 1) * slope)


def lateral_energy(body: WulffBody, knots: np.ndarray, r: np.ndarray) -> float:
    """Lateral surface energy of the piecewise-linear profile r on knots,
    its slabs summed in order as :func:`profile_energies` sums them, with
    no flat top (:func:`_quad.slab_lateral`).  It takes the arrays, not a
    Profile, so that a cap keeps its own knots (shifting them to start at 0
    can move a slab width by an ulp)."""
    n_knots = np.array([len(knots)])
    fs = slab_lateral(knots, r, n_knots, body.tension.dim - 1,
                      _lateral(body, knots, r, n_knots))
    return float(fs[0])


def profile_energies(body: WulffBody, knots: np.ndarray, r: np.ndarray,
                     n_knots: np.ndarray, omega) -> EnergyBreakdown:
    """Energies of profiles r on knots laid end to end, ``n_knots`` knots
    each, in one exact slab pass (:func:`_quad.slab_energies`), shaped as
    ``sets.block_energy``'s result.  A profile's energy does not depend on
    the rest of the block.
    """
    return EnergyBreakdown(*slab_energies(
        knots, r, n_knots, body.tension.dim - 1, _lateral(body, knots, r, n_knots),
        body.area, body.tension.f_eN, omega))


def reduced_energy(p: Profile) -> EnergyBreakdown:
    """Energy of the symmetric candidate under its own omega (absolute,
    i.e. times |K_h|): :func:`profile_energies` on a block of one."""
    om = _resolve_omega(p)
    return profile_energies(p.body, p.knots, p.r, np.array([len(p.knots)]), om).at(0)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ElResidual:
    """Euler-Lagrange residual at the interior knots (zero-radius knots skipped)."""

    ts: np.ndarray
    values: np.ndarray
    skipped: np.ndarray

    def max_abs(self, t_cut: Optional[float] = None) -> float:
        """Max |residual|, optionally restricted to knots with t <= t_cut."""
        mask = np.ones(len(self.ts), dtype=bool) if t_cut is None else self.ts <= t_cut
        if not mask.any():
            return math.nan
        return float(np.max(np.abs(self.values[mask])))


def el_residual(p: Profile, lam_mult: float) -> ElResidual:
    """Discrete residual of the Euler-Lagrange equation with multiplier lam_mult.

    Uses the conservative flux form: the flux (N-1) r^(N-2) d2phi at interval
    midpoints, differenced across each interior knot, minus the zero-order
    and gravity terms evaluated with centered slopes.
    """
    nm1 = p.tension.dim - 1
    lam = p.body.lam
    t, r = p.knots, p.r
    dt = np.diff(t)
    slope = np.diff(r) / dt
    r_mid = 0.5 * (r[:-1] + r[1:])
    d2_mid = p.tension.phi.d2(np.full_like(slope, lam), -nm1 * slope)
    flux = nm1 * r_mid ** (nm1 - 1) * d2_mid

    i = np.arange(1, len(t) - 1)
    denom = 0.5 * (t[i + 1] - t[i - 1])
    dflux = (flux[i] - flux[i - 1]) / denom
    slope_c = (r[i + 1] - r[i - 1]) / (t[i + 1] - t[i - 1])
    phi_c = p.tension.phi.value(lam, -nm1 * slope_c)
    if nm1 >= 2:
        zero_order = (nm1 - 1) * r[i] ** (nm1 - 2) * phi_c
    else:
        zero_order = np.zeros_like(phi_c)
    gravity = nm1 * (t[i] + lam_mult) * r[i] ** (nm1 - 1)
    res = -dflux - zero_order - gravity

    good = r[i] > 0
    return ElResidual(ts=t[i][good], values=res[good], skipped=i[~good])


def young_residual(p: Profile, contact_slope: Optional[float] = None) -> float:
    """-d2phi(Lambda, -(N-1) r'(0)) - omega with the one-sided grid slope,
    under the profile's omega.

    ``contact_slope`` overrides the grid slope (the shooting solver knows the
    exact slope through its contact parameter).
    """
    om = _resolve_omega(p)
    if p.r[0] <= 0:
        raise EmptyBase("contact radius vanishes; Young's condition undefined")
    nm1 = p.tension.dim - 1
    if contact_slope is None:
        contact_slope = (p.r[1] - p.r[0]) / (p.knots[1] - p.knots[0])
    return float(-p.tension.phi.d2(p.body.lam, -nm1 * contact_slope) - om)


def lambda_estimate(p: Profile) -> float:
    """Least-squares multiplier from the Euler-Lagrange residuals at the
    knots below 0.9 t_max."""
    res0 = el_residual(p, 0.0)
    cut = 0.9 * p.t_max
    mask = res0.ts <= cut
    if not mask.any():
        raise DegenerateRadius("no usable interior knots for the multiplier fit")
    r_at = np.interp(res0.ts[mask], p.knots, p.r)
    nm1 = p.tension.dim - 1
    c = nm1 * r_at ** (nm1 - 1)
    return float(np.dot(c, res0.values[mask]) / np.dot(c, c))


# ---------------------------------------------------------------------------
# Direct minimization
# ---------------------------------------------------------------------------

# Stopping rule of minimize_direct: the iteration has converged when the
# largest entry of the gradient projected onto the volume constraint is at
# most TOL_GRAD times the largest entry of the gradient itself.
TOL_GRAD = 1e-10


# Default Newton step budget of minimize_direct.
MAX_NEWTON_STEPS = 100


def apex_graded(n: int) -> np.ndarray:
    """n knots on [0, 1] graded toward the apex: 1 - (1 - u)^1.5, u uniform."""
    return 1.0 - (1.0 - np.linspace(0.0, 1.0, n)) ** 1.5


def _winterbottom_init(body: WulffBody, omega: float, m: float, xi: np.ndarray):
    """Truncated-Wulff initial guess scaled to volume m.

    The zero-gravity minimizer is the Wulff shape truncated at the height
    where its contact slope satisfies Young's condition; for Lambda = N-1
    that height is simply -omega (clipped into the vertical extent).  The
    unit-size shape is sampled on the knots xi, then r and T are scaled
    alike onto volume m as the Newton iteration measures it.
    """
    fa = alpha_table(body.tension)
    lo, hi = fa.t_bot, fa.t_top
    sigma0 = min(max(-omega, lo + 0.02 * (hi - lo)), hi - 0.05 * (hi - lo))
    r, t_top = fa(sigma0 + xi * (hi - sigma0)), hi - sigma0
    r[-1] = 0.0
    dim = body.tension.dim
    v1 = _SliceMeasureFunctional(body, omega, xi).volume(r ** (dim - 1), t_top)
    b = (m / v1) ** (1.0 / dim)
    return b * r, b * t_top


class _SliceMeasureFunctional:
    """Reduced energy in the slice-measure unknown rho = r^(N-1).

    For admissible tensions the lateral integrand phi(Lambda rho^beta,
    -rho') with beta = (N-2)/(N-1) is smooth through the apex (the pole
    flatness d1phi(0, +-1) = 0 removes the sqrt term), and the constraint
    and the potential are linear in rho.  This removes the vertical-tangent
    stiffness of the radial parametrization.  rho need not vanish like a
    simple root at the top: for the p = 3 p-norm weight in N = 3 the
    minimizer's radius falls like (T - t)^(2/3) (measured), so rho falls
    like (T - t)^(4/3).

    :meth:`grads` returns the exact second derivatives with the first ones.
    Each cell couples only its two nodes, so the rho-block of the Hessian is
    tridiagonal; phi is 1-homogeneous, so at each Gauss node its Hessian is
    kappa * q q^T with q = (B, -A) and the energy's second derivative in two
    nodes is a sum of products of the chain factors q . (dA, dB).
    """

    def __init__(self, body, omega, xi):
        self.tension = body.tension
        self.body = body
        self.omega = omega
        self.xi = xi
        self.dxi = np.diff(xi)
        self.beta = (self.tension.dim - 2) / (self.tension.dim - 1)
        self.lam = body.lam

    def pieces(self, rho, t_top):
        dt = self.dxi * t_top
        slope = np.diff(rho) / dt
        rho_g = rho[:-1, None] + np.diff(rho)[:, None] * GAUSS_X[None, :]
        a_g = self.lam * rho_g**self.beta
        b_g = np.broadcast_to((-slope)[:, None], a_g.shape)
        return dt, slope, rho_g, a_g, b_g

    def _energy(self, rho, t_top, dt, rho_g, phi_g):
        area = self.body.area
        fs = float(area * np.sum(dt * (GAUSS_W[None, :] * phi_g).sum(axis=1)))
        # Flat-top term, linear in rho (vanishes with the top slice).
        fs += self.tension.f_eN * area * float(rho[-1])
        fc = self.omega * area * float(rho[0])
        t_g = self.xi[:-1, None] * t_top + dt[:, None] * GAUSS_X[None, :]
        fp = float(area * np.sum(dt * (GAUSS_W[None, :] * t_g * rho_g).sum(axis=1)))
        return fs + fc + fp, fs, fc, fp

    def energy(self, rho, t_top):
        dt, slope, rho_g, a_g, b_g = self.pieces(rho, t_top)
        return self._energy(rho, t_top, dt, rho_g, self.tension.phi.value(a_g, b_g))

    def volume(self, rho, t_top):
        return float(self.body.area * t_top
                     * np.sum(self.dxi * 0.5 * (rho[:-1] + rho[1:])))

    def grads(self, rho, t_top):
        """(E, g_rho, dE_dT, vol, gv_rho, dV_dT, hess).

        ``hess`` = (diag, off, col, tt) is the energy's Hessian in
        (rho_0..rho_M, T): the tridiagonal rho-block's diagonal and its
        first off-diagonal, the T column and the T-T entry.  The volume is
        bilinear in (rho, T), so its only second derivative is
        d2V/drho dT = gv_rho / T.
        """
        dt, slope, rho_g, a_g, b_g = self.pieces(rho, t_top)
        area = self.body.area
        phi = self.tension.phi

        phi_g = phi.value(a_g, b_g)
        b_c = np.ascontiguousarray(b_g)  # for the ufuncs' contiguous loops
        d1_g, d2_g, k_g = phi.d1(a_g, b_c), phi.d2(a_g, b_c), phi.kappa(a_g, b_c)

        # Value channel dA/drho_g = Lambda beta rho^(beta-1) and its
        # derivative; d1 * dA stays bounded through the apex because d1
        # vanishes with its first argument.  Every cell has a positive end
        # (the iterate is positive below its top knot), so its Gauss nodes
        # have rho_g > 0 strictly.
        if self.beta > 0:
            u_g = self.lam * self.beta * rho_g ** (self.beta - 1.0)
            du_g = (self.beta - 1.0) * u_g / rho_g
        else:
            u_g = du_g = np.zeros_like(a_g)
        vchan = d1_g * u_g

        wx = GAUSS_W[None, :] * (1.0 - GAUSS_X[None, :])
        wy = GAUSS_W[None, :] * GAUSS_X[None, :]
        g = np.zeros_like(rho)
        # Lateral: value channel plus the slope channel through -rho'.
        ga = (dt[:, None] * wx * vchan).sum(axis=1) + (GAUSS_W[None, :] * d2_g).sum(axis=1)
        gb = (dt[:, None] * wy * vchan).sum(axis=1) - (GAUSS_W[None, :] * d2_g).sum(axis=1)
        g[:-1] += area * ga
        g[1:] += area * gb
        # Gravity (linear in rho).
        t_g = self.xi[:-1, None] * t_top + dt[:, None] * GAUSS_X[None, :]
        grav_a = area * dt * (wx * t_g).sum(axis=1)
        grav_b = area * dt * (wy * t_g).sum(axis=1)
        g[:-1] += grav_a
        g[1:] += grav_b
        # Contact and flat top (one-sided derivative at rho_M = 0 included).
        g[0] += self.omega * area
        g[-1] += self.tension.f_eN * area

        e_total, fs, fc, fp = self._energy(rho, t_top, dt, rho_g, phi_g)
        vol = self.volume(rho, t_top)

        # T-derivatives on knots = xi * T (nodal rho fixed).  By Euler's
        # identity phi = A d1 + B d2 the lateral one equals dxi * sum W A d1,
        # the form the T column below differentiates; gravity is quadratic
        # in T.
        de_lat = area * float(np.sum(
            self.dxi * (GAUSS_W[None, :] * (phi_g + slope[:, None] * d2_g)).sum(axis=1)
        ))
        de_dT = de_lat + 2.0 * fp / t_top
        dv_dT = vol / t_top

        gv = np.zeros_like(rho)
        half = area * t_top * 0.5 * self.dxi
        gv[:-1] += half
        gv[1:] += half

        # Second derivatives.  Node a (b) moves A_g by u_g (1-x) (u_g x) and
        # B by +1/dt (-1/dt); the Hessian kappa q q^T of phi contracts them
        # to q_a = B u_g (1-x) - A/dt and q_b = B u_g x + A/dt.
        kw = GAUSS_W[None, :] * k_g
        q_a = b_g * u_g * (1.0 - GAUSS_X[None, :]) - a_g / dt[:, None]
        q_b = b_g * u_g * GAUSS_X[None, :] + a_g / dt[:, None]
        dw = d1_g * du_g
        h_aa = area * dt * (kw * q_a * q_a + wx * (1.0 - GAUSS_X[None, :]) * dw).sum(axis=1)
        h_bb = area * dt * (kw * q_b * q_b + wy * GAUSS_X[None, :] * dw).sum(axis=1)
        off = area * dt * (kw * q_a * q_b + wx * GAUSS_X[None, :] * dw).sum(axis=1)
        diag = np.zeros_like(rho)
        diag[:-1] += h_aa
        diag[1:] += h_bb
        # dE_lat/dT = dxi sum W A d1, differentiated in the nodes and in T
        # (dB/dT = -B/T); gravity's T column is 2 g_grav / T.
        kab = kw * a_g * b_g
        col = np.zeros_like(rho)
        col[:-1] += area * self.dxi * (wx * vchan + kab * q_a).sum(axis=1)
        col[1:] += area * self.dxi * (wy * vchan + kab * q_b).sum(axis=1)
        col[:-1] += 2.0 * grav_a / t_top
        col[1:] += 2.0 * grav_b / t_top
        tt = (area * float(np.sum(self.dxi * (kab * a_g * b_g).sum(axis=1))) / t_top
              + 2.0 * fp / t_top**2)
        return e_total, g, de_dT, vol, gv, dv_dT, (diag, off, col, tt)


def _band_factor(sub, diag, sup):
    """LU factors, with partial pivoting, of the tridiagonal matrix with
    sub-, main and superdiagonals ``sub``, ``diag``, ``sup`` (lists).

    The operations are LAPACK's ``dgttrf`` (Golub & Van Loan, *Matrix
    Computations*, 4.3) in its order, on Python floats, so that
    :func:`_band_solve` gives ``scipy.linalg.solve_banded``'s answer bit
    for bit.  Raises ``LinAlgError`` on a zero pivot.
    """
    n = len(diag)
    mult, d, u1 = list(sub), list(diag), list(sup)
    u2, swap = [0.0] * (n - 1), [False] * (n - 1)
    for i in range(n - 1):
        if abs(d[i]) >= abs(mult[i]):
            # No interchange: eliminate the subdiagonal entry.
            if d[i] != 0.0:
                fact = mult[i] / d[i]
                mult[i] = fact
                d[i + 1] = d[i + 1] - fact * u1[i]
        else:
            # Interchange rows i and i + 1, then eliminate.
            fact = d[i] / mult[i]
            d[i] = mult[i]
            mult[i] = fact
            temp = u1[i]
            u1[i] = d[i + 1]
            d[i + 1] = temp - fact * d[i + 1]
            if i < n - 2:
                u2[i] = u1[i + 1]
                u1[i + 1] = -fact * u1[i + 1]
            swap[i] = True
    if 0.0 in d:
        raise np.linalg.LinAlgError("singular matrix")
    return mult, d, u1, u2, swap


def _band_solve(factors, b):
    """The solution, as a list, of the factored system of
    :func:`_band_factor` for the right-hand side ``b`` (a list); LAPACK's
    ``dgttrs`` in its order.  Each sweep carries the entries the next row
    needs.  The back sweep takes x[n] = 0 so that row n - 2, where u2 is 0,
    shares the formula of the rows above it."""
    mult, d, u1, u2, swap = factors
    y, cur = [], b[0]
    for m, s, nxt in zip(mult, swap, b[1:]):
        if s:
            y.append(nxt)
            cur = cur - m * nxt
        else:
            y.append(cur)
            cur = nxt - m * cur
    x1, x2 = cur / d[-1], 0.0
    x = [x1]
    for yi, u, v, di in zip(reversed(y), reversed(u1), reversed(u2), reversed(d[:-1])):
        x1, x2 = (yi - u * x1 - v * x2) / di, x1
        x.append(x1)
    x.reverse()
    return x


def _kkt_step(diag, off, col, tt, grad, a):
    """Newton direction d of the bordered system [[H, a], [a^T, 0]] (d, mu) = (-grad, 0).

    H is the Lagrangian Hessian in (rho_0..rho_{n-1}, T): a tridiagonal
    rho-block (``diag``, ``off``) bordered by the T column ``col`` and the
    T-T entry ``tt``.  The rho-block is factored once (:func:`_band_factor`)
    and solved against three right-hand sides (-grad, the T column, the
    volume gradient), then (dT, mu) come from their 2x2 Schur complement.
    The rho-block is far worse conditioned than the bordered system (its
    smooth modes change the volume), so one step of iterative refinement,
    on the same factors, restores the accuracy of a dense solve.
    Raises ``LinAlgError`` when the band or the Schur complement is
    singular or not finite.
    """
    n = len(diag)
    a_rho, a_t = a[:n], a[n]
    rhs = np.array([-grad[:n], col, a_rho])
    if not (np.isfinite(diag).all() and np.isfinite(off).all()
            and np.isfinite(rhs).all() and np.isfinite(tt)):
        raise np.linalg.LinAlgError("non-finite Hessian band")
    sub = off.tolist()
    factors = _band_factor(sub, diag.tolist(), sub)
    # Laid out as solve_banded returns it (Fortran order), so that the
    # products with x below round as they did with it.
    x = np.array([_band_solve(factors, b) for b in rhs.tolist()]).T
    hx, ax = col @ x[:, 1:], a_rho @ x[:, 1:]
    schur = np.array([[tt - hx[0], a_t - hx[1]], [a_t - ax[0], -ax[1]]])

    def eliminate(x0, r_t, r_mu):
        d_t, mu = np.linalg.solve(schur, [r_t - col @ x0, r_mu - a_rho @ x0])
        return x0 - d_t * x[:, 1] - mu * x[:, 2], d_t, mu

    d_rho, d_t, mu = eliminate(x[:, 0], -grad[n], 0.0)
    res = -grad[:n] - diag * d_rho - col * d_t - mu * a_rho
    res[1:] -= off * d_rho[:-1]
    res[:-1] -= off * d_rho[1:]
    e_rho, e_t, _ = eliminate(np.array(_band_solve(factors, res.tolist())),
                              -grad[n] - col @ d_rho - tt * d_t - mu * a_t,
                              -(a_rho @ d_rho) - a_t * d_t)
    return np.append(d_rho + e_rho, d_t + e_t)


# Overflow (|t|^p of a steep p-norm, or a huge mass) is no warning: a
# non-finite trial energy fails the line search, and a non-finite iterate
# has no finite KKT step, so the solve raises NonConvergence.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def minimize_direct(body: WulffBody, omega: float, m: float,
                    grid_size: int = 161,
                    max_iter: int = MAX_NEWTON_STEPS) -> Profile:
    """Volume-constrained Newton iteration for the minimizing profile under
    the tension ``body`` was built for.

    The unknowns are the slice measures rho_i = r_i^(N-1) on knots xi * T
    plus the top height T, with rho = 0 at the top knot.  The knots are
    graded toward the apex, xi = 1 - (1 - u)^1.5 for uniform u, because
    rho need not vanish like a simple root there.  Each step solves the
    KKT system of the Lagrangian Hessian bordered by the volume gradient,
    then backtracks (Armijo) on the energy of a feasible trial point: rho
    clipped at 0, the top moved down to the first empty knot, and rho
    rescaled onto the volume constraint, which is linear in rho.
    The Hessian is exact and comes with the gradient from one
    :meth:`_SliceMeasureFunctional.grads` call; its tridiagonal rho-block
    makes each KKT solve O(n) (:func:`_kkt_step`).  Where it is indefinite
    on the constraint tangent, its diagonal is shifted up a fixed ladder
    until the step descends.  The returned profile carries the solve's own
    record in ``meta``, with one entry per Newton step in ``meta["steps"]``;
    its energy, volume and residuals are the profile's to evaluate.
    When ``max_iter`` steps do not converge, :class:`NonConvergence` is
    raised with the last iterate, ``meta`` included, as its ``state``.
    """
    tension = body.tension
    check_omega(tension, omega)
    check_mass(m)
    if grid_size < 3:
        raise InvalidInput(f"grid_size must be at least 3, got {grid_size}")
    if grid_size > MAX_SIZE:
        raise InvalidInput(f"grid_size must be at most {MAX_SIZE}, got {grid_size}")
    if max_iter < 1:
        raise InvalidInput(f"max_iter must be at least 1, got {max_iter}")
    nm1 = tension.dim - 1

    xi = apex_graded(grid_size)
    r0, t_top = _winterbottom_init(body, omega, m, xi)
    fn = _SliceMeasureFunctional(body, omega, xi)
    n = grid_size - 1

    def feasible(rho_try, t_try):
        """Clipped, top-moved, volume-rescaled trial point (None if empty)."""
        rho_try = np.maximum(rho_try, 0.0)
        rho_try[-1] = 0.0
        if t_try <= 0.0 or rho_try[0] == 0.0:
            return None
        cut = rho_try[1:-1] == 0.0
        if cut.any():
            t_new = float(xi[np.argmax(cut) + 1] * t_try)
            rho_try = np.interp(xi * t_new, xi * t_try, rho_try)
            rho_try[-1] = 0.0
            t_try = t_new
        return rho_try * (m / fn.volume(rho_try, t_try)), t_try

    start = feasible(r0**nm1, t_top)
    if start is None:
        raise NonConvergence("the initial guess has no volume")
    rho, t_top = start
    iterations = 0
    proj_norm = math.inf
    converged = False
    steps = []
    for _ in range(max_iter):
        e_now, g, de_dT, _, gv, dv_dT, (diag, off, col, tt) = fn.grads(rho, t_top)
        grad = np.append(g[:-1], de_dT)
        a = np.append(gv[:-1], dv_dT)
        lam_mult = -float(grad @ a) / float(a @ a)
        proj = grad + lam_mult * a
        proj_norm = float(np.max(np.abs(proj)))
        grad_norm = float(np.max(np.abs(grad)))
        if proj_norm <= TOL_GRAD * grad_norm:
            converged = True
            break
        iterations += 1
        record = {"energy": e_now, "rel_projected_grad": proj_norm / grad_norm,
                  "step": None, "shift": None}
        steps.append(record)

        # Lagrangian Hessian on the free unknowns (rho_M = 0 is fixed).
        diag, off = diag[:n], off[:n - 1]
        col = col[:n] + lam_mult * gv[:n] / t_top
        # Where the Hessian is indefinite on the constraint tangent (puddles
        # at large m), shift its diagonal until the KKT step descends.
        for shift in (0.0, 1e-6, 1e-4, 1e-2, 1.0):
            try:
                d = _kkt_step(diag + shift * np.abs(diag), off, col,
                              tt + shift * abs(tt), grad, a)
            except np.linalg.LinAlgError:
                continue
            slope = float(grad @ d)
            if slope < 0.0:
                record["shift"] = shift
                break
        else:
            break

        # The slack lets the last Newton steps through when the energy
        # change they predict is below the rounding of the energy itself.
        step = 1.0
        for _ in range(30):
            state = feasible(rho + step * np.append(d[:n], 0.0),
                             t_top + step * d[n])
            if state is not None and (fn.energy(*state)[0]
                                      <= e_now + 1e-4 * step * slope
                                      + 1e-14 * abs(e_now)):
                rho, t_top = state
                record["step"] = step
                break
            step *= 0.5
        else:
            break

    knots, r = xi * t_top, rho ** (1.0 / nm1)
    # The iterate satisfies the constraint exactly in the slice-measure
    # representation; rescale once so the returned radial profile does too.
    r = r * (m / slab_volume(body.area, knots, r, nm1)) ** (1.0 / nm1)
    final = Profile(knots=knots, r=r, body=body, omega=omega)
    meta = {
        "iterations": iterations,
        "converged": converged,
        "projected_grad": proj_norm,
        # One record per Newton step: the energy and the relative projected
        # gradient it started from, the diagonal shift that made the KKT
        # step descend and the accepted step length (None where the shift
        # ladder or the line search gave up).
        "steps": steps,
        # No competitor repair runs inside the Newton iteration; the key
        # stays so that readers of the diagnostics keep one schema.
        "repairs": 0,
    }
    final = replace(final, meta=meta)
    if not converged:
        raise NonConvergence(
            f"Newton iteration did not converge in {iterations} steps "
            f"(projected gradient {proj_norm:.3e})",
            state=final,
        )
    return final
