"""The in-repo Brent solver against scipy.optimize.brentq: the same root,
bit for bit, from the same sequence of abscissae, and the same errors."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from wulffdrop import _brent
from wulffdrop import competitor as comp
from wulffdrop import odesolve as od
from wulffdrop import reduced
from wulffdrop.checks import DEFAULT_SEED
from wulffdrop.tension import make_tension
from wulffdrop.wulff import build_wulff_body


def run(solver, f, a, b, xtol):
    """(outcome, abscissae): outcome is ("root", type, hex) or ("raises",
    type); the abscissae are every x that solver passed to f, in order."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    try:
        root = solver(g, a, b, xtol=xtol)
    except (ValueError, RuntimeError) as exc:
        return ("raises", type(exc)), xs
    return ("root", type(root), float(root).hex()), xs


def assert_parity(f, a, b, xtol):
    ours = run(_brent.brentq, f, a, b, xtol)
    theirs = run(scipy_brentq, f, a, b, xtol)
    assert ours[0] == theirs[0]
    assert [float(x).hex() for x in ours[1]] == [float(x).hex() for x in theirs[1]]
    assert all(type(x) is float for x in ours[1])
    if ours[0][0] == "root":
        assert ours[0][1] is float
    return ours[0]


class Capture:
    """Stands in for a module's brentq: records (f, a, b, xtol, ends) of
    each call and solves it with the in-repo solver."""

    def __init__(self):
        self.calls = []

    def __call__(self, f, a, b, xtol, ends=None):
        self.calls.append((f, a, b, xtol, ends))
        return _brent.brentq(f, a, b, xtol, ends=ends)


@pytest.mark.parametrize("family, params, mass", [
    ("pnorm", {"p": 3.0}, 1.0), ("weighted", {"c": 2.0}, 1.0), ("euclid", {}, 10.0)])
def test_brent_matches_scipy_on_the_shoot_residual(family, params, mass):
    # The three solve cells of the direct-families benchmark workload.
    # shoot solves log(c V / m) = 0 in log2(v0) by Newton steps; Brent's
    # method on the same residual, over half a unit on either side of the
    # Newton root, matches scipy's and finds that root within the tolerance.
    tension = make_tension(family, **params)
    body = build_wulff_body(tension, 1024)
    omega = -0.5 * tension.f_eN
    sol = od.shoot(body, omega, mass)
    s_st = sol.s_star
    traj = od.integrate_v(tension, 1.0, s_stop=s_st)
    c = (reduced.reduced_volume(od.reconstruct_profile(traj, body, omega=omega)[0])
         / od.V_of(traj))

    def resid(x):
        return math.log(c * od.V_of(od.integrate_v(tension, 2.0**x, s_stop=s_st)) / mass)

    x = math.log2(sol.v0)
    outcome = assert_parity(resid, x - 0.5, x + 0.5, od._LOG_V0_XTOL)
    assert outcome[0] == "root"
    assert abs(float.fromhex(outcome[2]) - x) <= od._LOG_V0_XTOL


def test_brent_matches_scipy_on_the_sigma_residuals(monkeypatch):
    # The first eight dents of suite_convexity at the default seed, drawn
    # as the suite draws them; each repair solves for sigma once.
    assert DEFAULT_SEED == 0
    rng = np.random.default_rng(DEFAULT_SEED)
    body = build_wulff_body(make_tension("euclid"), 1024)
    tt = np.linspace(0.0, 1.0, 41)
    base = np.sqrt(np.maximum(1.0 - tt**2, 0.0))
    capture = Capture()
    monkeypatch.setattr(comp, "brentq", capture)
    for _ in range(8):
        i0 = int(rng.integers(4, 28))
        width = int(rng.integers(3, 10))
        depth = float(rng.uniform(0.5, 0.92))
        rr = base.copy()
        rr[i0:i0 + width] *= depth
        comp.repair_profile(reduced.Profile(knots=tt, r=rr, body=body, omega=-0.5),
                            epsilon=2.0)
    assert len(capture.calls) == 8
    for f, a, b, xtol, ends in capture.calls:
        assert xtol == comp.BISECT_TOL
        # The scan hands Brent its own values at the bracket ends; they
        # are the residual's, bit for bit.
        assert [float(v).hex() for v in ends] == [float(f(a)).hex(), float(f(b)).hex()]
        assert assert_parity(f, a, b, xtol)[0] == "root"


@pytest.mark.parametrize("xtol", [1e-8, 1e-12])
@pytest.mark.parametrize("f, a, b", [
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 10.0, -5.0, 5.0),
    (lambda x: math.atan(x - 1.7), -10.0, 20.0),
    # Values whose products underflow: the sign tests must not multiply.
    (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),
    (lambda x: np.float64(x) ** 2 - 2.0, 0.0, 2.0),
    # Values so small that the extrapolation's denominator underflows to 0:
    # scipy's step is then inf or NaN, and it bisects.
    *[pytest.param(lambda x, s=s: s * (x**3 - 2.0 * x - 5.0), 2.0, 3.0,
                   id=f"cubic-times-{s:g}")
      for s in (1e-110, 1e-160, 1e-200)],
])
def test_brent_matches_scipy_on_smooth_functions(f, a, b, xtol):
    assert assert_parity(f, a, b, xtol)[0] == "root"


@pytest.mark.parametrize("a, b", [(0.5, 2.0), (-1.0, 0.5)])
def test_brent_returns_a_root_at_an_end_point(a, b):
    outcome = assert_parity(lambda x: x - 0.5, a, b, 1e-12)
    assert outcome == ("root", float, (0.5).hex())


@pytest.mark.parametrize("f, a, b, xtol, error", [
    (lambda x: x * x + 1.0, -1.0, 2.0, 1e-12, ValueError),
    (lambda x: math.nan, 0.0, 1.0, 1e-12, ValueError),
    (lambda x: math.nan if x > 0.9 else x - 0.5, 0.0, 1.0, 1e-12, ValueError),
    (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, 1e-12, ValueError),
    # A jump at 0: each step bisects, and 100 halvings of [-1, 3] stay far
    # wider than the tolerance.
    (lambda x: -1.0 if x < 0.0 else 1.0, -1.0, 3.0, 1e-300, RuntimeError),
    # A triple root at 1.7: 100 iterations do not reach the tolerance.
    (lambda x: math.atan(x - 1.7) ** 3, -10.0, 20.0, 1e-12, RuntimeError),
])
def test_brent_raises_as_scipy_does(f, a, b, xtol, error):
    assert assert_parity(f, a, b, xtol) == ("raises", error)
