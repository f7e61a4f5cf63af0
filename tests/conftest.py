import numpy as np
import pytest

import nlsob as nl
from nlsob import functionals
from nlsob.functionals import default_engine

SEED = 42


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def radial_estimate(profile, p, envelope, spec, dim, q_mass=0.0):
    """The radial engine's estimate of one request, in a pass of its own."""
    from nlsob.quadrature import RadialRequest, radial_pair_integrate
    return radial_pair_integrate([RadialRequest(profile, p, envelope, spec, dim, q_mass)])[0]


@pytest.fixture(autouse=True)
def fresh_memo():
    """Every test starts with an empty memo of deterministic estimates, so
    its spies count its own passes and its own calls make its bits."""
    functionals._MEMO.clear()


@pytest.fixture(scope="session")
def engine():
    return default_engine(SEED)


@pytest.fixture(scope="session")
def engine_mc():
    return default_engine(SEED, mode="mc")


@pytest.fixture(scope="session")
def engine_mc_small():
    return default_engine(SEED, mode="mc", n_samples=48000)


@pytest.fixture(scope="session")
def gauss3():
    return nl.GaussianField(3, 1.0)


@pytest.fixture(scope="session")
def bump3():
    return nl.SmoothBumpField(3, 2.0)


@pytest.fixture(scope="session")
def indicator3():
    return nl.IndicatorField(3, 1.0)


@pytest.fixture(scope="session")
def profile3():
    return nl.RadialProfileField(3, [0.0, 0.5, 1.0, 1.5, 2.0],
                                 [1.0, 0.9, 0.55, 0.2, 0.0])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240809)
