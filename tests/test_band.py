"""The in-repo tridiagonal LU of ``reduced._kkt_step`` against
scipy.linalg.solve_banded: the same solution bit for bit, and the same
LinAlgError for singular and non-finite bands."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from wulffdrop import reduced
from wulffdrop.errors import NonConvergence
from wulffdrop.tension import make_tension
from wulffdrop.wulff import build_wulff_body


def kkt_step_scipy(diag, off, col, tt, grad, a):
    """``_kkt_step`` as it was with two ``solve_banded`` calls."""
    n = len(diag)
    ab = np.zeros((3, n))
    ab[0, 1:] = off
    ab[1] = diag
    ab[2, :-1] = off
    a_rho, a_t = a[:n], a[n]
    rhs = np.column_stack([-grad[:n], col, a_rho])
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all() and np.isfinite(tt)):
        raise np.linalg.LinAlgError("non-finite Hessian band")
    x = solve_banded((1, 1), ab, rhs)
    hx, ax = col @ x[:, 1:], a_rho @ x[:, 1:]
    schur = np.array([[tt - hx[0], a_t - hx[1]], [a_t - ax[0], -ax[1]]])

    def eliminate(x0, r_t, r_mu):
        d_t, mu = np.linalg.solve(schur, [r_t - col @ x0, r_mu - a_rho @ x0])
        return x0 - d_t * x[:, 1] - mu * x[:, 2], d_t, mu

    d_rho, d_t, mu = eliminate(x[:, 0], -grad[n], 0.0)
    res = -grad[:n] - diag * d_rho - col * d_t - mu * a_rho
    res[1:] -= off * d_rho[:-1]
    res[:-1] -= off * d_rho[1:]
    e_rho, e_t, _ = eliminate(solve_banded((1, 1), ab, res),
                              -grad[n] - col @ d_rho - tt * d_t - mu * a_t,
                              -(a_rho @ d_rho) - a_t * d_t)
    return np.append(d_rho + e_rho, d_t + e_t)


def hexes(x):
    return [float(v).hex() for v in np.ravel(x)]


def outcome(step, *args):
    try:
        return hexes(step(*args))
    except np.linalg.LinAlgError:
        return "LinAlgError"


def band_outcome(sub, diag, sup, rhs):
    """(ours, scipy's) solutions of one band against the columns of rhs."""
    try:
        factors = reduced._band_factor(sub.tolist(), diag.tolist(), sup.tolist())
        ours = hexes(np.array([reduced._band_solve(factors, b) for b in rhs.T.tolist()]).T)
    except np.linalg.LinAlgError:
        ours = "LinAlgError"
    ab = np.zeros((3, len(diag)))
    ab[0, 1:], ab[1], ab[2, :-1] = sup, diag, sub
    try:
        theirs = hexes(solve_banded((1, 1), ab, rhs))
    except np.linalg.LinAlgError:
        theirs = "LinAlgError"
    return ours, theirs


@pytest.fixture(scope="module")
def recorded_steps():
    """The arguments of every KKT step of direct solves on the domain grid's
    families and contact values, at m in {1e-3, 1, 1e3}."""
    calls = []

    def record(*args):
        calls.append(tuple(np.array(x) for x in args))
        return step(*args)

    step = reduced._kkt_step
    reduced._kkt_step = record
    try:
        for name, kw in [("euclid", {}), ("pnorm", {"p": 3.0}), ("pnorm", {"p": 1.5}),
                         ("weighted", {"c": 2.0})]:
            body = build_wulff_body(make_tension(name, **kw), 1024)
            for frac in (-0.99, -0.5, -0.01):
                for m in (1e-3, 1.0, 1e3):
                    try:
                        reduced.minimize_direct(body, frac * body.tension.f_eN, m)
                    except NonConvergence:
                        pass
    finally:
        reduced._kkt_step = step
    return calls


def test_kkt_step_matches_solve_banded_on_the_domain_grid(recorded_steps):
    assert len(recorded_steps) > 200
    for args in recorded_steps:
        assert outcome(reduced._kkt_step, *args) == outcome(kkt_step_scipy, *args)


def test_band_solve_matches_solve_banded_on_the_domain_grid(recorded_steps):
    # The rho-blocks themselves, with the shift ladder's largest shift too.
    for diag, off, col, _, grad, a in recorded_steps[::5]:
        n = len(diag)
        rhs = np.column_stack([-grad[:n], col, a[:n]])
        for d in (diag, diag + np.abs(diag)):
            ours, theirs = band_outcome(off, d, off, rhs)
            assert ours == theirs != "LinAlgError"


def test_band_solve_matches_solve_banded_on_random_pivoting_bands():
    # Indefinite bands whose diagonal is small against the off-diagonals, so
    # most columns interchange rows; some diagonal entries are zero.
    rng = np.random.default_rng(5)
    for _ in range(400):
        n = int(rng.integers(2, 60))
        diag = rng.normal(size=n) * (rng.uniform(size=n) < 0.8)
        sub, sup = 3.0 * rng.normal(size=n - 1), 3.0 * rng.normal(size=n - 1)
        ours, theirs = band_outcome(sub, diag, sup, rng.normal(size=(n, 3)))
        assert ours == theirs


@pytest.mark.parametrize("sub, diag, sup", [
    ([0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0]),   # a zero column
    ([1.0], [1.0, 1.0], [1.0]),                  # rank one: the last pivot is zero
    ([2.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0]),   # zero pivot after two interchanges
])
def test_singular_bands_raise_on_both_sides(sub, diag, sup):
    sub, diag, sup = map(np.array, (sub, diag, sup))
    assert np.linalg.matrix_rank(np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)) < len(diag)
    ours, theirs = band_outcome(sub, diag, sup, np.ones((len(diag), 3)))
    assert ours == theirs == "LinAlgError"


@pytest.mark.parametrize("where", ["diag", "off", "col", "tt"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_kkt_systems_raise_on_both_sides(where, bad):
    n = 5
    args = {"diag": np.full(n, 2.0), "off": np.full(n - 1, -1.0), "col": np.zeros(n),
            "tt": 1.0, "grad": np.ones(n + 1), "a": np.ones(n + 1)}
    if where == "tt":
        args["tt"] = bad
    else:
        args[where][1] = bad
    assert (outcome(reduced._kkt_step, *args.values())
            == outcome(kkt_step_scipy, *args.values()) == "LinAlgError")
