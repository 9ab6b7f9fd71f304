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
s* (``tension.phi.d2_inverse``), so each trajectory is one adaptive DOP853
solve over the fixed interval [0, w*] with w* = d1phi(s*, N-1), and the
physical profile is reconstructed from its dense output.  The module steps
the DOP853 pair itself on two Python floats, with its tableau pinned as
literals (scipy's, bit for bit) and scipy's step control: s depends on w
alone, so each step attempt makes one slope call, a ``d1_inverse`` array
call at all 16 stage abscissae.  The stage, error and interpolant sums run
as straight-line float code, generated once at import from the pinned
tableau with its zero entries left out; each is plain left-to-right float
addition, so the results do not depend on the Python version's sum().
Each accepted step keeps its stage values in the ``Trajectory``, which
builds every step's interpolant rows into one array when its dense output
is first read.  Only ``reconstruct_profile`` reads it: ``V_of`` and
``dV_dv0`` read the last node, so a trajectory that is not reconstructed
never builds the rows.  The dense output evaluates all knots in one
expression, and the slope inverse takes arrays too, so each Newton pass of
the inversion of v is a few numpy calls.

Every solve also carries the exact sensitivity d(r, v)/dv0, seeded (0, 1)
at the apex, through each stage of each accepted step, with the steps held
fixed (internal numerical differentiation: Bock 1981; Hairer, Norsett &
Wanner I.14).  The step control reads (r, v) alone, so the nodes, states
and interpolant rows are those of the plain solve, bit for bit.  The
enclosed volume V_{v0}(s*) is strictly decreasing in v0, and its exact
derivative (``dV_dv0``) comes from the same one integration.  Up to the
discretization the profile's volume is a fixed multiple of V_{v0}(s*), the
bridge constant.  Each probe reads V_{v0}(s*) and dV/dv0 in closed form at
its trajectory's last node, so matching the volume is a monotone root in
log2(v0), solved by Newton steps kept inside a bracket, with bisection
where a step leaves it.  On 56 shoots (four families, three contact
values, five masses) that takes 5.0 probes on average and at most 7.  Only
the first probe, which measures the bridge constant, and the root are
reconstructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    InvalidInput,
    NoBracket,
    NonConvergence,
    OmegaOutOfGraphRange,
    StalledInversion,
)
from .reduced import Profile, check_mass, reduced_volume, young_residual
from .tension import SurfaceTension
from .wulff import WulffBody


# Tolerances of the DOP853 stepper of integrate_v.  The end state lies within
# about 4e-12 relative of an rtol-1e-13 solve (tests/test_odesolve.py).
_RTOL = 1e-12
_ATOL = 1e-14

# Relative volume tolerance of shoot.
_VOLUME_RTOL = 1e-6

# integrate_v's v0 range: beyond it the sensitivity's r * r or the step underflows.
_V0_MIN, _V0_MAX = 2.0**-400, 2.0**400


def unit_ball_volume(dim: int) -> float:
    """Lebesgue measure of the unit ball in R^dim."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


def bridge_prediction(body: WulffBody) -> float:
    """|K_h| Lambda^(N-1) / omega_(N-1): the predicted ratio of a profile's
    volume to the enclosed volume V_{v0}(s*) of its trajectory."""
    nm1 = body.tension.dim - 1
    return body.area * body.lam ** nm1 / unit_ball_volume(nm1)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Transformed ODE solved over w in [0, w*], and its dense output.

    ``ts`` holds w at the accepted steps and ``ys`` the (r, v) rows there.
    Segment k spans [ts[k], ts[k + 1]]; ``coeffs[i, :, k]`` is row 6 - i of
    its step's degree-7 interpolant (Hairer, Norsett & Wanner), built from
    the step's stage values in ``steps`` when first read.  Called on w, of
    any shape, it returns (r, v) stacked on a leading axis of 2 in one array
    expression; a target on a node takes the segment to its left, and
    targets outside [ts[0], ts[-1]] take the end segments.  ``dy_dv0`` is
    d(r, v)/dv0 at the last node, the derivative of the discrete solve
    along its fixed steps.
    """

    ts: np.ndarray
    ys: np.ndarray
    steps: list = field(repr=False)
    dy_dv0: tuple[float, float]
    v0: float
    tension: SurfaceTension

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The interpolant rows of every step (``_interpolant``), as one
        (7, 2, steps) array.  A division by zero or an overflow in the dense
        output's stages raises NonConvergence, as it does in the solve."""
        nm1 = self.tension.dim - 1
        try:
            rows = [_interpolant(nm1, *step) for step in self.steps]
        except (ZeroDivisionError, OverflowError) as exc:
            raise NonConvergence(f"capillary ODE solve failed: {exc}") from exc
        return np.array(rows).T.reshape(7, 2, -1)

    @property
    def rs(self) -> np.ndarray:
        return self.ys[0]

    @property
    def vs(self) -> np.ndarray:
        return self.ys[1]

    def __call__(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        ts = self.ts
        k = np.clip(np.searchsorted(ts, w, side="left") - 1, 0, len(ts) - 2)
        x = (w - ts[k]) / (ts[k + 1] - ts[k])
        y = np.zeros((2,) + w.shape)
        for i, f in enumerate(self.coeffs.take(k, axis=2)):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        y += self.ys.take(k, axis=1)
        return y


@dataclass(frozen=True, eq=False)
class ShootingSolution:
    """Matched shooting solution with the reconstructed physical profile,
    whose ``r[0]`` and ``t_max`` are R_max and T_max."""

    v0: float
    s_star: float
    trajectory: Trajectory
    lam: float
    profile: Profile
    diagnostics: dict


# ---------------------------------------------------------------------------
# Contact slope
# ---------------------------------------------------------------------------

def check_graph_omega(tension: SurfaceTension, omega: float) -> None:
    """Raise OmegaOutOfGraphRange unless omega lies in the graph regime
    (-phi(0,1), 0), the domain of the ODE route."""
    if not (-tension.f_eN < omega < 0.0):
        raise OmegaOutOfGraphRange(
            f"omega={omega} outside the graph regime (-{tension.f_eN}, 0)"
        )


def s_star(tension: SurfaceTension, omega: float) -> float:
    """Contact slope parameter: the unique s > 0 with -d2phi(s, N-1) = omega.

    Defined for the graph regime omega in (-phi(0,1), 0), where
    d2phi(., N-1) decreases strictly from phi(0,1) to 0.  The inverse is
    taken in numpy floats, so that it overflows to inf instead of raising;
    an s* that is not positive and finite raises StalledInversion.
    """
    check_graph_omega(tension, omega)
    with np.errstate(all="ignore"):
        s = float(tension.phi.d2_inverse(np.float64(-omega), float(tension.dim - 1)))
    if not 0.0 < s < math.inf:
        raise StalledInversion(f"contact slope s*={s} of omega={omega} is not "
                               "a positive finite number")
    return s


# ---------------------------------------------------------------------------
# Integration of the transformed ODE
# ---------------------------------------------------------------------------

def integrate_v(tension: SurfaceTension, v0: float, s_stop: float) -> Trajectory:
    """Solve the capillary ODE in w from the apex to the stop slope.

    One DOP853 solve (``_dop853``) over [0, w*], w* = d1phi(s_stop, N-1),
    starting from (r, v) = (0, v0); the last node lies at s = s_stop, and
    the trajectory's ``dy_dv0`` is d(r, v)/dv0 there.  A v0 outside
    [2^-400, 2^400], NaN included, raises InvalidInput.  The slope inverse
    s(w) is only evaluated inside [0, w*], so w* within rounding of the
    asymptote phi(1, 0) of d1phi raises StalledInversion, and so does a w*
    that is not positive (d1phi underflowed or is NaN).  A zero
    denominator, a NaN slope or a step below the minimum raises
    NonConvergence.
    """
    if not _V0_MIN <= v0 <= _V0_MAX:
        raise InvalidInput(f"v0 must lie in [2^-400, 2^400], got {v0!r}")
    if not 0.0 < s_stop < math.inf:
        raise ValueError("need a positive, finite stop slope s_stop")
    nm1 = tension.dim - 1
    phi = tension.phi
    w_end = float(phi.d1(s_stop, float(nm1)))
    sup = float(phi.value(1.0, 0.0))
    if not 0.0 < w_end < sup * (1.0 - 1e-14):
        raise StalledInversion(
            f"slope target {w_end} outside (0, {sup}), the open range of d1phi"
        )
    try:
        ts, rs, vs, steps, dy_dv0 = _dop853(phi, nm1, float(v0), w_end)
    except (ZeroDivisionError, OverflowError) as exc:
        raise NonConvergence(f"capillary ODE solve failed: {exc}") from exc
    return Trajectory(ts=np.array(ts), ys=np.array([rs, vs]), steps=steps,
                      dy_dv0=dy_dv0, v0=v0, tension=tension)


# The DOP853 tableau (Dormand & Prince 1980; Hairer, Norsett & Wanner,
# Solving ODEs I, II.5-II.6), pinned as the repr() of scipy.integrate.DOP853's
# arrays, zero entries included, so each stage sum is the float expression of
# scipy's matrix rows.  Row i of _A combines the first i stage slopes into
# stage i: rows 1-11 are the pair's stages, row 12 is the 8th-order weights B
# (stage 12 is the step's end point, whose slope the next step reuses) and
# rows 13-15 are the dense output's extra stages.  _C holds the 16 matching
# abscissae, _E3 and _E5 the error weights and _D the interpolant's rows.
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778,
])
_E3 = (
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
)
_E5 = (
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
)
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)
_END = 12

# scipy's step control: safety factor, step-factor limits and the exponent
# -1/(q + 1) of the 7th-order error estimate.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXPONENT = -1.0 / 8.0


def _dot(coeffs: tuple, prefix: str) -> str:
    """Source of the sum of coeffs[j] * <prefix>j as plain left-to-right
    float addition, with exact-zero coefficients left out.  For finite
    operands it is the float of the same loop over the full row from 0.0,
    apart from the sign of a zero result, which that loop makes +0.0.  A
    non-finite operand may take another path: 0.0 * inf is NaN in the full
    row but is never formed here."""
    return " + ".join(f"{c!r} * {prefix}{j}" for j, c in enumerate(coeffs)
                      if c != 0.0)


def _names(prefix: str, indices) -> str:
    return ", ".join(f"{prefix}{i}" for i in indices)


def _compile_stages():
    """Generate the stepper's stage arithmetic as straight-line float code,
    each sum a ``_dot`` of a row of the pinned tableau.  ws and ss hold the
    16 stage abscissae w_i and slopes s_i of the step h from (r, v), and
    nm1 = N-1.  Returns three functions:

    ``_attempt(nm1, r, v, h, kr0, kv0, ws, ss)`` runs stages 1.._END of an
    attempt from stage 0's slope (kr0, kv0).  It returns the end state, the
    E5 and E3 error sums of r and of v, the slopes kr and kv of stages
    0.._END and the r of stages 1.._END.

    ``_carry_sensitivity(nm1, gr, gv, h, ws, ss, rk, kr, qr0, qv0)`` carries
    (gr, gv) = d(r, v)/dv0 through stages 1.._END of an accepted step from
    stage 0's slope derivative (qr0, qv0), the stage formulas differentiated
    with the step held fixed: a slope (1, s) / den has the derivative
    -den' / den^2 (1, s), den' = (N-1) v' + (N-2) w r' / r^2, or v' on the
    apex branch r = 0.  It returns stage _END's state and slope derivatives.

    ``_interpolant(nm1, r, v, h, ws, ss, kr, kv, dr, dv)`` runs the dense
    output's stages _END+1..15 of an accepted step that ends at
    (r + dr, v + dv), and returns the step's interpolant rows 6..0 as one
    flat tuple of (r, v) pairs.
    """
    steps, dense, ends = range(1, _END + 1), range(_END + 1, len(_A)), range(_END + 1)

    def stage(i):
        return (f"    r{i} = r + ({_dot(_A[i], 'kr')}) * h\n"
                f"    v{i} = v + ({_dot(_A[i], 'kv')}) * h\n"
                f"    den = nm1 * v{i} - nm2 * w{i} / r{i} if r{i} > 0.0 else v{i}\n"
                f"    kr{i} = 1.0 / den\n"
                f"    kv{i} = s{i} / den\n")

    def sensitivity(i):
        return (f"    gr{i} = gr + ({_dot(_A[i], 'qr')}) * h\n"
                f"    gv{i} = gv + ({_dot(_A[i], 'qv')}) * h\n"
                f"    dden = (nm1 * gv{i} + nm2 * w{i} * gr{i} / (r{i} * r{i})"
                f" if r{i} > 0.0 else gv{i})\n"
                f"    qr{i} = -dden * kr{i} * kr{i}\n"
                f"    qv{i} = qr{i} * s{i}\n")

    rows = "".join(f"h * ({_dot(d, k)}), " for d in reversed(_D) for k in ("kr", "kv"))
    source = f"""
def _attempt(nm1, r, v, h, kr0, kv0, ws, ss):
    nm2 = nm1 - 1
    _, {_names('w', steps)}, *_ = ws
    _, {_names('s', steps)}, *_ = ss
{''.join(map(stage, steps))}
    return (r{_END}, v{_END}, {_dot(_E5, 'kr')}, {_dot(_E5, 'kv')},
            {_dot(_E3, 'kr')}, {_dot(_E3, 'kv')},
            ({_names('kr', ends)}), ({_names('kv', ends)}), ({_names('r', steps)}))


def _carry_sensitivity(nm1, gr, gv, h, ws, ss, rk, kr, qr0, qv0):
    nm2 = nm1 - 1
    _, {_names('w', steps)}, *_ = ws
    _, {_names('s', steps)}, *_ = ss
    {_names('r', steps)} = rk
    _, {_names('kr', steps)} = kr
{''.join(map(sensitivity, steps))}
    return gr{_END}, gv{_END}, qr{_END}, qv{_END}


def _interpolant(nm1, r, v, h, ws, ss, kr, kv, dr, dv):
    nm2 = nm1 - 1
    *_, {_names('w', dense)} = ws
    *_, {_names('s', dense)} = ss
    {_names('kr', ends)} = kr
    {_names('kv', ends)} = kv
{''.join(map(stage, dense))}
    return ({rows}
            2.0 * dr - h * (kr{_END} + kr0), 2.0 * dv - h * (kv{_END} + kv0),
            h * kr0 - dr, h * kv0 - dv, dr, dv)
"""
    namespace: dict = {}
    exec(compile(source, "<DOP853 stages>", "exec"), namespace)
    return (namespace["_attempt"], namespace["_carry_sensitivity"],
            namespace["_interpolant"])


_attempt, _carry_sensitivity, _interpolant = _compile_stages()


def _dop853(phi, nm1: int, v0: float, w_end: float):
    """DOP853 on dr/dw = 1 / den, dv/dw = s(w) / den from (0, v0) to w_end.

    The step control is that of scipy's DOP853 solver class, at _RTOL and
    _ATOL on Python floats: its initial step, the E5/E3 RMS error norm, the
    safety and factor limits, a minimum step of 10 ulp of w and the last
    step clamped onto w_end.  s depends on w alone, so each attempt takes s
    at all 16 abscissae in one ``d1_inverse`` array call.  Each accepted
    step also carries d(r, v)/dv0, seeded (0, 1) at the apex, through its
    stages (``_carry_sensitivity``); the step control reads (r, v) alone.
    Returns the nodes (ts, rs, vs), per accepted step the arguments of its
    ``_interpolant`` call after nm1 (the step's start, size, stage values
    and change of state), and d(r, v)/dv0 at the last node.  Python floats
    raise ZeroDivisionError where numpy would warn.
    """
    t = float(nm1)

    def rms(a, b):
        return math.hypot(a, b) / math.sqrt(2.0)

    # Initial step: the apex slope is v'(0) = 0, so f(0) = (1/v0, 0), and
    # its v0-derivative is (-1/v0^2, 0).
    w, r, v, fr, fv = 0.0, 0.0, v0, 1.0 / v0, 0.0
    gr, gv, qr, qv = 0.0, 1.0, -fr * fr, 0.0
    sr, sv = _ATOL, _ATOL + v0 * _RTOL
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

    ts, rs, vs, steps = [w], [r], [v], []
    while w < w_end:
        min_step = 10.0 * (math.nextafter(w, math.inf) - w)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # Also ends a NaN step, which no comparison would stop.
            if not h_abs >= min_step:
                raise NonConvergence("capillary ODE solve failed: required "
                                     "step size is less than spacing between "
                                     f"numbers at w={w}")
            w_new = min(w + h_abs, w_end)
            h = h_abs = w_new - w
            wk = w + _C * h
            sk = phi.d1_inverse(wk, t).tolist()
            wk = wk.tolist()
            r_new, v_new, e5r, e5v, e3r, e3v, kr, kv, rk = _attempt(
                nm1, r, v, h, fr, fv, wk, sk)
            sr = _ATOL + max(abs(r), abs(r_new)) * _RTOL
            sv = _ATOL + max(abs(v), abs(v_new)) * _RTOL
            e5r, e5v, e3r, e3v = e5r / sr, e5v / sv, e3r / sr, e3v / sv
            e5, e3 = e5r * e5r + e5v * e5v, e3r * e3r + e3v * e3v
            if e5 == 0.0 and e3 == 0.0:
                err = 0.0
            else:
                err = h * e5 / math.sqrt(2.0 * (e5 + 0.01 * e3))
            if err < 1.0:
                factor = (_MAX_FACTOR if err == 0.0
                          else min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True

        gr, gv, qr, qv = _carry_sensitivity(nm1, gr, gv, h, wk, sk, rk, kr, qr, qv)
        steps.append((r, v, h, wk, sk, kr, kv, r_new - r, v_new - v))
        w, r, v, fr, fv = w_new, r_new, v_new, kr[_END], kv[_END]
        ts.append(w)
        rs.append(r)
        vs.append(v)
    return ts, rs, vs, steps, (gr, gv)


# ---------------------------------------------------------------------------
# Enclosed volume and its v0-derivative
# ---------------------------------------------------------------------------

def V_of(traj: Trajectory) -> float:
    """Enclosed volume V_{v0}(s*) between the graph of v and the level of v
    at the trajectory's end: the closed form omega_{N-1} r^(N-2) (r v - w*)
    at w* = ``ts[-1]`` and (r, v) = ``ys[:, -1]``, the last node."""
    nm1 = traj.tension.dim - 1
    w = float(traj.ts[-1])
    r, v = traj.ys[:, -1].tolist()
    return unit_ball_volume(nm1) * r ** (nm1 - 1) * (r * v - w)


def dV_dv0(traj: Trajectory) -> float:
    """Exact derivative of v0 -> V_{v0}(s*) at the trajectory's end: the
    v0-derivative of ``V_of``'s closed form along ``traj.dy_dv0``; negative
    for admissible tensions (the uniqueness mechanism).

    The solve carries d(r, v)/dv0 through each DOP853 stage with its steps
    held fixed (internal numerical differentiation), so this differentiates
    the discrete V_{v0}(s*) that ``V_of`` reads along those steps; on the
    48 cases of ``checks.suite_monotonicity`` it agrees with a central
    difference of ``V_of`` to 3.2e-8 relative.
    """
    nm1 = traj.tension.dim - 1
    w = float(traj.ts[-1])
    r, v = traj.ys[:, -1].tolist()
    dr, dv = traj.dy_dv0
    return (unit_ball_volume(nm1) * r ** (nm1 - 2)
            * ((nm1 - 1) * dr * (r * v - w) + r * (dr * v + r * dv)))


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
    nodes = traj.ts
    j = np.clip(np.searchsorted(traj.vs, v_targets) - 1, 0, len(nodes) - 2)
    lo, hi = nodes[j], nodes[j + 1]
    w = lo + (v_targets - traj.vs[j]) / (traj.vs[j + 1] - traj.vs[j]) * (hi - lo)
    eps = np.finfo(float).eps
    tol = 4.0 * eps * traj.vs[-1]
    for _ in range(60):
        r, v = traj(w)
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


def reconstruct_profile(traj: Trajectory, body: WulffBody,
                        omega: Optional[float] = None, n_knots: int = 801):
    """Map the trajectory back to the physical profile r_E(t), on ``body``.

    ``body`` must be built for the trajectory's tension; one built for
    another raises InvalidInput.

    The inverse change of variables is u(rho) = v(r(s*)) - v(rho / Lambda),
    giving R_max = Lambda r(s*), the multiplier lambda = -v(r(s*)), and
    T_max = u(0) = v(r(s*)) - v0.  (Substituting this scaling into the
    Euler-Lagrange equation reproduces the transformed ODE exactly; see the
    contact-slope identity r_E'(0) = -Lambda/s*.)  The graph u is inverted
    onto a t-grid refined near the apex; the base and apex knots are the
    trajectory's end points, so R_max and T_max are the profile's ``r[0]``
    and ``t_max``.  Returns (Profile, lambda).
    """
    if body.tension != traj.tension:
        raise InvalidInput(f"body built for {body.tension.tension_id}, trajectory "
                           f"solved for {traj.tension.tension_id}")
    lam = body.lam
    v_end = float(traj.vs[-1])
    t_max = v_end - traj.v0

    xi = np.linspace(0.0, 1.0, n_knots)
    t_grid = t_max * np.sin(0.5 * math.pi * xi)
    t_grid[0], t_grid[-1] = 0.0, t_max
    # Invert v along the trajectory: r_E(t) = Lambda rho, v(rho) = v_end - t.
    r_prof = np.empty(n_knots)
    r_prof[0] = lam * float(traj.rs[-1])
    r_prof[1:-1] = lam * _invert_v(traj, v_end - t_grid[1:-1])[1]
    r_prof[-1] = 0.0
    return Profile(knots=t_grid, r=r_prof, body=body, omega=omega), -v_end


# Tolerance of the volume match in log2(v0): a relative v0 error of about
# 1e-8, two decades inside the volume tolerance.
_LOG_V0_XTOL = 1e-8

# The v0 scan covers log2(v0) in [-_LOG_V0_SPAN, _LOG_V0_SPAN].
_LOG_V0_SPAN = 21.0


def shoot(body: WulffBody, omega: float, m: float) -> ShootingSolution:
    """Shoot on the apex parameter v0 until the profile volume equals m,
    under the tension ``body`` was built for.

    Each probe integrates the ODE once and reads the closed-form enclosed
    volume V_{v0}(s*) (``V_of``) and its exact v0-derivative (``dV_dv0``)
    at the trajectory's last node, so a probe builds no dense output.  The
    first probe, at v0 = 1, also reconstructs its profile: the ratio c of
    its exactly integrated volume to V_{v0}(s*) is the bridge constant, and
    every probe solves g = log(c V_{v0}(s*) / m) = 0 in x = log2(v0), where
    g' = ln 2 v0 (dV/dv0) / V.  V_{v0}(s*) decreases strictly in v0, so the
    sign of g says on which side of a probe the root lies.  Newton steps
    from x = 0 are kept inside the bracket of the probes on either side:
    until the root's side has a probe, a step that would leave the scan
    range [-21, 21] (or is not a step towards the root) goes to its end,
    where a probe of the same sign raises NoBracket naming the scan range,
    the target and that probe's scaled volume; after that, a step that
    leaves the bracket bisects it.  The solve stops at the probe whose
    next step is at most 1e-8, and reconstructs the profile once more
    there, where its volume must match m to a relative 1e-6.  Only these
    reconstructed trajectories build interpolant rows.
    ``v0_history`` lists each integrated v0 once, with its scaled
    closed-form volume.
    """
    check_mass(m)
    tension = body.tension
    s_st = s_star(tension, omega)

    # The bridge constant c, measured on the first probe, at v0 = 1.
    traj = integrate_v(tension, 1.0, s_stop=s_st)
    c = reduced_volume(reconstruct_profile(traj, body, omega=omega)[0]) / V_of(traj)

    history = []
    # g decreases in x: the root lies above a probe with g > 0.  lo and hi
    # are the nearest probes below and above it, None until one exists.
    x, lo, hi = 0.0, None, None
    while True:
        v0 = 2.0**x
        V = V_of(traj)
        history.append((v0, c * V))
        if not c * V > 0.0:
            # Within rounding of omega = -phi(0, 1) a probe's closed-form
            # volume is itself at rounding level, and can come out <= 0.
            raise NoBracket(f"probe volume {c * V!r} at v0 = {v0!r} is not positive")
        g = math.log(c * V / m)
        if g == 0.0:
            break
        if g > 0.0:
            lo, far = x, hi
        else:
            hi, far = x, lo
        # The root lies between x and far: the nearest probe on its other
        # side or, until there is one, the end of the scan range.
        bracketed = far is not None
        if not bracketed:
            far = math.copysign(_LOG_V0_SPAN, g)
            if x == far:
                raise NoBracket(
                    f"volume target {m!r} outside the v0-scan range "
                    f"[2^-{_LOG_V0_SPAN:g}, 2^{_LOG_V0_SPAN:g}]: the probe at "
                    f"v0 = 2^{x:g} holds {c * V!r}")
        dg = math.log(2.0) * v0 * dV_dv0(traj) / V
        x_new = x - g / dg if dg < 0.0 else math.nan
        if not min(x, far) < x_new < max(x, far):
            x_new = 0.5 * (x + far) if bracketed else far
        if abs(x_new - x) <= _LOG_V0_XTOL:
            break
        x = x_new
        traj = integrate_v(tension, 2.0**x, s_stop=s_st)

    prof, lam_mult = reconstruct_profile(traj, body, omega=omega)
    vol = reduced_volume(prof)
    if abs(vol - m) > _VOLUME_RTOL * m:
        raise NoBracket("volume solve failed to converge")

    diagnostics = {
        "achieved_volume": vol,
        "young_residual": young_residual(prof, contact_slope=-body.lam / s_st),
        "bridge_constant": vol / V_of(traj),
        "v0_history": history,
    }
    return ShootingSolution(v0=v0, s_star=s_st, trajectory=traj, lam=lam_mult,
                            profile=prof, diagnostics=diagnostics)
