import numpy as np
import pytest

from mixorder import Exponential, MixtureModel, PowerBurr, default_grid


@pytest.fixture(scope="session")
def exp1():
    return Exponential(rate=1.0)


@pytest.fixture(scope="session")
def exp02():
    return Exponential(rate=0.2)


@pytest.fixture(scope="session")
def burr():
    return PowerBurr(shape_a=0.2, shape_b=0.5)


@pytest.fixture(scope="session")
def example1_v2(exp02):
    """The first bundled scenario's A-model: lam=0.1, weights (0.6, 0.4), tilts (0.3, 0.4)."""
    return MixtureModel.vary_alpha(exp02, 0.1, [(0.6, 0.3), (0.4, 0.4)])


@pytest.fixture(scope="session")
def example1_w2(exp02):
    return MixtureModel.vary_alpha(exp02, 0.1, [(0.48, 0.36), (0.52, 0.34)])


@pytest.fixture(scope="session")
def grid_coarse():
    return default_grid(201)


@pytest.fixture(scope="session")
def grid_default():
    return default_grid()


def random_baseline(rng: np.random.Generator):
    """A moderate-parameter baseline, exponential or heavy-tailed, for property tests."""
    if rng.random() < 0.5:
        return Exponential(rate=rng.uniform(0.3, 2.0))
    return PowerBurr(shape_a=rng.uniform(0.5, 2.0), shape_b=rng.uniform(0.5, 2.0))


def random_mixture(rng: np.random.Generator, variant: str) -> MixtureModel:
    """A 2-5 component mixture over a ``random_baseline``, for property tests."""
    n = int(rng.integers(2, 6))
    components = zip(rng.dirichlet(np.ones(n)), rng.uniform(0.3, 3.0, size=n))
    return getattr(MixtureModel, variant)(random_baseline(rng), rng.uniform(0.3, 3.0), components)
