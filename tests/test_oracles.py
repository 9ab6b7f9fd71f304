"""Both solver routes at N = 2 against the exact drop of ``oracles``."""

import pytest

from wulffdrop import odesolve, reduced
from wulffdrop.errors import NoBracket
from wulffdrop.tension import make_tension
from wulffdrop.wulff import build_wulff_body

from oracles import n2_drop

FAMILIES = [pytest.param("euclid", {}, id="euclid"),
            pytest.param("weighted", {"c": 2.0}, id="weighted2")]


def exact_top_height(tension, omega, m):
    return n2_drop(tension.phi.exponent, tension.f_eN, omega, m)[1]


@pytest.mark.parametrize("m,top", [(1.0, 0.582451086838), (10.0, 0.995363177401)])
def test_n2_oracle_gives_the_exact_euclid_top_heights(m, top):
    # The euclid drop at omega = -0.5, checked once against an mpmath
    # quadrature and root at 30 digits.
    assert n2_drop(2.0, 1.0, -0.5, m)[1] == pytest.approx(top, abs=1e-12)


@pytest.mark.parametrize("m", [1.0, 10.0])
@pytest.mark.parametrize("family,kw", FAMILIES)
def test_n2_shoot_matches_the_exact_top_height(family, kw, m):
    tension = make_tension(family, dim=2, **kw)
    omega = -0.5 * tension.f_eN
    sol = odesolve.shoot(build_wulff_body(tension, 1024), omega, m)
    assert sol.profile.t_max == pytest.approx(exact_top_height(tension, omega, m), rel=1e-6)


@pytest.mark.parametrize("m", [1.0, 10.0])
@pytest.mark.parametrize("family,kw", FAMILIES)
def test_n2_direct_top_height_converges_to_the_exact_one(family, kw, m):
    # About order 1.5 in knots: the error falls 2.7-2.8 times per doubling.
    tension = make_tension(family, dim=2, **kw)
    omega = -0.5 * tension.f_eN
    body = build_wulff_body(tension, 1024)
    top = exact_top_height(tension, omega, m)
    errors = [abs(reduced.minimize_direct(body, omega, m, grid_size=n).t_max / top - 1.0)
              for n in (161, 321, 641)]
    assert errors[0] >= 2.5 * errors[1] >= 6.25 * errors[2] > 0.0


def test_n2_pnorm3_drops_end_where_the_masses_level_off():
    # For p > 2, r(w*) stays finite as v0 -> 0: at omega = -0.5 no drop on
    # the ODE's family holds more than 4.89, and the shoot finds none.
    tension = make_tension("pnorm", p=3.0, dim=2)
    with pytest.raises(ValueError, match="level off at 4.8900698"):
        n2_drop(3.0, 1.0, -0.5, 10.0)
    with pytest.raises(NoBracket):
        odesolve.shoot(build_wulff_body(tension, 1024), -0.5, 10.0)
