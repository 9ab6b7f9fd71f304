import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wulffdrop.errors import DegeneratePoint, InvalidTension
from wulffdrop.tension import (
    ScaledPNorm,
    check_admissible,
    make_tension,
    phi_partials,
    tension_from_config,
    tension_to_config,
)


@settings(max_examples=200, deadline=None)
@given(s=st.floats(0.0, 5.0), t=st.floats(-5.0, 5.0))
def test_euler_identity_for_homogeneous_phi(s, t):
    if math.hypot(s, t) < 1e-3:
        return
    tension = make_tension("weighted", c=2.0)
    d1, d2, _ = phi_partials(tension, s, t)
    phi = tension.phi.value(s, t)
    assert s * d1 + t * d2 == pytest.approx(phi, abs=1e-8)


def test_phi_partials_closed_forms(euclid):
    assert phi_partials(euclid, 0.0, 1.0) == pytest.approx((0.0, 1.0, 1.0))
    assert phi_partials(euclid, 3.0, 4.0) == pytest.approx((0.6, 0.8, 0.128))
    p4 = make_tension("pnorm", p=4.0)
    assert phi_partials(p4, 0.0, 1.0) == pytest.approx((0.0, 1.0, 0.0), abs=1e-14)


def test_phi_partials_degenerate_point(euclid):
    with pytest.raises(DegeneratePoint):
        phi_partials(euclid, 0.0, 0.0)


@pytest.mark.parametrize("family,kwargs", [
    ("euclid", {}),
    ("pnorm", {"p": 3.0}),
    ("pnorm", {"p": 1.5}),
    ("weighted", {"c": 2.0}),
])
def test_closed_partials_match_central_differences(family, kwargs):
    tension = make_tension(family, **kwargs)
    phi = tension.phi.value
    d = 1e-5
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = rng.uniform(0.2, 4.0)
        t = rng.uniform(-4.0, 4.0)
        if abs(t) < 0.1:
            continue
        a = phi_partials(tension, s, t)
        d1 = (phi(s + d, t) - phi(s - d, t)) / (2 * d)
        d2 = (phi(s, t + d) - phi(s, t - d)) / (2 * d)
        d11 = (phi(s + d, t) - 2 * phi(s, t) + phi(s - d, t)) / (d * d)
        assert a[0] == pytest.approx(d1, rel=1e-6, abs=1e-9)
        assert a[1] == pytest.approx(d2, rel=1e-6, abs=1e-9)
        # Second differences at step 1e-5 carry a rounding floor of about
        # 4 eps |phi| / delta^2 ~ 2e-5 for phi values of a few units.
        assert a[2] == pytest.approx(d11, rel=1e-6, abs=3e-5)


def test_admissibility_pnorm_small_p():
    for p in (1.2, 1.5, 2.0):
        rep = check_admissible(make_tension("pnorm", p=p))
        assert rep.admissible, (p, rep)


def test_admissibility_manhattan_fails():
    rep = check_admissible(make_tension("pnorm", p=1.0))
    assert not rep.admissible
    assert rep.d1phi_at_poles[0] == pytest.approx(1.0)
    assert rep.d1phi_at_poles[1] == pytest.approx(1.0)


@pytest.mark.parametrize("family, params, kappa", [
    ("euclid", {}, 1.0),
    ("pnorm", {"p": 3.0}, 0.0),
    ("pnorm", {"p": 1.5}, math.inf),
    ("weighted", {"c": 2.0}, 2.0 ** -0.5),
])
def test_admissibility_reports_the_pole_ellipticity(family, params, kappa):
    # kappa(0, +-1) = (p - 1) tau^p 0^(p - 2) phi(0, 1)^(1 - 2p); an inf
    # must come without a RuntimeWarning, which pytest turns into an error.
    rep = check_admissible(make_tension(family, **params))
    assert rep.pole_kappa == pytest.approx((kappa, kappa), rel=1e-15)
    assert rep.admissible


@pytest.mark.parametrize("p, sample", [
    (1.5, "0x1.8da1f4e846831p-10"),
    (3.0, "0x1.a2bb76b82530dp-13"),
    (30.0, "0x1.c7170219f86c3p-182"),
    (100.0, "0x1.7204806343d6ep-645"),
])
def test_admissibility_curvature_samples(p, sample):
    # Samples beyond s = 1 are taken through the degree -3 homogeneity of
    # kappa; each hex value is the minimum of the unscaled closed form.
    rep = check_admissible(make_tension("pnorm", p=p))
    assert rep.strict_convexity_samples == pytest.approx(float.fromhex(sample),
                                                         rel=1e-12)
    assert rep.admissible


@pytest.mark.filterwarnings("error")
def test_admissibility_pnorm_1000_is_warning_free():
    # Unscaled, the sample kappa(10, +-1) overflows (|s t|^998) for
    # p = 1000.  kappa(1e-2, +-1) ~ 1e-1993 underflows to 0, so the samples
    # cannot show strict convexity.
    rep = check_admissible(make_tension("pnorm", p=1000.0))
    assert rep.strict_convexity_samples == 0.0
    assert not rep.admissible


def test_admissibility_fails_on_a_nan_curvature_sample(monkeypatch):
    # A NaN sample must fail the verdict, not drop out of the minimum.
    kappa = ScaledPNorm.kappa

    def one_nan(self, s, t):
        out = kappa(self, s, t)
        return np.where(s == s[5], math.nan, out) if np.ndim(s) else out

    monkeypatch.setattr(ScaledPNorm, "kappa", one_nan)
    rep = check_admissible(make_tension("euclid"))
    assert math.isnan(rep.strict_convexity_samples)
    assert not rep.admissible


def test_omega_range_euclid(euclid):
    rep = check_admissible(euclid)
    assert rep.omega_range == (-1.0, 1.0)


@pytest.mark.parametrize("family,kw", [
    ("euclid", {}), ("weighted", {"c": 2.0}), ("pnorm", {"p": 1.0}),
    ("pnorm", {"p": 1.5}), ("pnorm", {"p": 3.0}), ("pnorm", {"p": 30.0})])
def test_f_neg_eN_is_f_eN(family, kw):
    # Every phi family is |(a, tau b)|_p, even in b, so f(-e_N) = f(e_N)
    # bit for bit and the admissible interval is (-f(e_N), f(e_N)).
    tension = make_tension(family, **kw)
    assert tension.phi.value(0.0, -1.0) == tension.phi.value(0.0, 1.0)
    assert tension.omega_range == (-tension.f_eN, tension.f_eN)


def test_admissibility_p_above_two():
    rep = check_admissible(make_tension("pnorm", p=3.0))
    assert rep.admissible
    assert rep.strict_convexity_samples > 0


def test_config_roundtrip(weighted2):
    cfg = tension_to_config(weighted2)
    again = tension_from_config(cfg)
    assert again == weighted2
    assert cfg["phi"]["family"] == "weighted"
    with pytest.raises(ValueError):
        tension_from_config({"N": 3, "phi": {"family": "nope"},
                             "h": {"family": "lp", "p": 2}})


def test_homogeneity_thousand_samples(pnorm3):
    rng = np.random.default_rng(8)
    lam = rng.uniform(1e-6, 10.0, 1000)
    x = rng.normal(size=(1000, 3))

    def f(y):  # f(y) = phi(h(y'), y_N)
        return pnorm3.phi.value(pnorm3.h.value(y[:, :-1]), y[:, -1])

    fx = f(x)
    flx = f(lam[:, None] * x)
    assert np.all(np.abs(flx - lam * fx) <= 1e-10 * np.maximum(np.abs(lam * fx), 1e-30))


@pytest.mark.parametrize("build", [
    lambda: make_tension("pnorm", p=0.5),
    lambda: make_tension("weighted", c=-1.0),
    lambda: make_tension("weighted", c=0.0),
    lambda: make_tension("euclid", h_family="lp", h_p=0.5),
    lambda: make_tension("pnorm", p=float("nan")),
    lambda: make_tension("nope"),
    lambda: make_tension("pnorm"),
    lambda: make_tension("euclid", c=2.0),
])
def test_family_parameters_validated_on_construction(build):
    with pytest.raises(InvalidTension):
        build()
