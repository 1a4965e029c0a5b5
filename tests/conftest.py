import pytest

import prbench as pb


def make_problem(n, m, seed, init="spectral"):
    """Ensemble, ground truth, observations, and an initial point."""
    ens = pb.sample_ensemble(m, n, seed)
    gt = pb.random_ground_truth(n, seed)
    y = pb.observe(ens, gt)
    if init == "spectral":
        x0 = pb.spectral_init(ens, y).x0
    else:
        x0 = pb.random_init(n, seed)
    return ens, gt, y, x0


@pytest.fixture(scope="session")
def small_problem():
    return make_problem(n=20, m=60, seed=5)
