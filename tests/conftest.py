import pytest

from prbench import harness


def make_problem(n, m, seed, init="spectral"):
    """Ensemble, ground truth, observations, and an initial point, drawn as
    the commands draw them."""
    return harness._problem(n, m, seed, init)


@pytest.fixture(scope="session")
def small_problem():
    return make_problem(n=20, m=60, seed=5)
