import numpy as np
import pytest

from wulffdrop import odesolve, reduced
from wulffdrop.tension import make_tension
from wulffdrop.wulff import build_wulff_body


@pytest.fixture(scope="session")
def euclid():
    return make_tension("euclid")


@pytest.fixture(scope="session")
def pnorm3():
    return make_tension("pnorm", p=3.0)


@pytest.fixture(scope="session")
def weighted2():
    return make_tension("weighted", c=2.0)


@pytest.fixture(scope="session")
def euclid_body(euclid):
    return build_wulff_body(euclid, 1024)


@pytest.fixture(scope="session")
def pnorm3_body(pnorm3):
    return build_wulff_body(pnorm3, 1024)


@pytest.fixture(scope="session")
def euclid_shoot(euclid, euclid_body):
    """Shooting solution for the workhorse case (euclid, omega=-0.5, m=1)."""
    return odesolve.shoot(euclid, -0.5, 1.0, body=euclid_body)


@pytest.fixture(scope="session")
def euclid_direct(euclid):
    """Direct minimizer for the workhorse case (shared across tests)."""
    return reduced.minimize_direct(euclid, -0.5, 1.0)


def hemisphere_profile(body, n=201, radius=1.0, omega=-0.5):
    """Spherical-cap profile sampled with apex clustering (test helper)."""
    xi = np.linspace(0.0, 1.0, n)
    t = radius * np.sin(0.5 * np.pi * xi)
    r = np.sqrt(np.maximum(radius**2 - t**2, 0.0))
    return reduced.Profile(knots=t, r=r, tension=body.tension, body=body,
                           omega=omega)
