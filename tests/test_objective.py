import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prbench import objective
from prbench.model import SensingEnsemble, sample_ensemble, sample_unit_sphere
from prbench.objective import SPLIT_MIN_VALUES, project

from conftest import make_problem
from reference import cost, gradient, hessian, hessian_extremes


def fd_gradient(ens, y, x, h):
    """Central-difference gradient of the cost; the independent oracle."""
    out = np.zeros(ens.n)
    for j in range(ens.n):
        e = np.zeros(ens.n)
        e[j] = h
        out[j] = (cost(ens, y, x + e) - cost(ens, y, x - e)) / (2 * h)
    return out


def fd_hessian(ens, y, x, h):
    out = np.zeros((ens.n, ens.n))
    for j in range(ens.n):
        e = np.zeros(ens.n)
        e[j] = h
        out[:, j] = (gradient(ens, y, x + e) - gradient(ens, y, x - e)) / (2 * h)
    return out


def single_term_problem():
    ens = SensingEnsemble(rows=np.array([[1.0]]), seed=0)
    return ens, np.array([1.0])


class TestCost:
    def test_zero_at_truth_both_signs(self, small_problem):
        ens, x_star, y, _ = small_problem
        assert cost(ens, y, x_star) == 0.0
        assert cost(ens, y, -x_star) == 0.0

    def test_single_term(self):
        ens, y = single_term_problem()
        assert cost(ens, y, [2.0]) == 2.25

    def test_nonnegative(self, small_problem):
        ens, _, y, x0 = small_problem
        assert cost(ens, y, x0) >= 0.0

    def test_dimension_mismatch(self, small_problem):
        ens, _, y, _ = small_problem
        with pytest.raises(ValueError):
            cost(ens, y, np.zeros(3))
        with pytest.raises(ValueError):
            cost(ens, y[:-1], np.zeros(ens.n))

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_even_symmetry(self, seed):
        ens, _, y, _ = make_problem(6, 18, 0)
        x = sample_unit_sphere(6, seed) * 1.7
        assert cost(ens, y, x) == cost(ens, y, -x)


class TestGradient:
    def test_zero_at_truth(self, small_problem):
        ens, x_star, y, _ = small_problem
        assert np.linalg.norm(gradient(ens, y, x_star)) == 0.0

    def test_single_term(self):
        ens, y = single_term_problem()
        assert gradient(ens, y, [2.0]) == pytest.approx([6.0])

    def test_finite_difference_ten_points(self):
        ens, _, y, _ = make_problem(20, 60, 5)
        for seed in range(10):
            x = sample_unit_sphere(20, 100 + seed) * (0.5 + 0.1 * seed)
            h = 1e-5 * (1 + np.linalg.norm(x))
            g = gradient(ens, y, x)
            fd = fd_gradient(ens, y, x, h)
            assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_odd_symmetry(self, seed):
        ens, _, y, _ = make_problem(6, 18, 0)
        x = sample_unit_sphere(6, seed) * 0.9
        assert np.array_equal(gradient(ens, y, -x), -gradient(ens, y, x))


class TestHessian:
    def test_single_term(self):
        ens, y = single_term_problem()
        assert hessian(ens, y, [2.0])[0, 0] == pytest.approx(11.0)

    def test_symmetric(self, small_problem):
        ens, _, y, x0 = small_problem
        h = hessian(ens, y, x0)
        assert np.abs(h - h.T).max() <= 1e-12

    def test_finite_difference(self, small_problem):
        ens, _, y, _ = small_problem
        x = sample_unit_sphere(ens.n, 42) * 1.1
        h = 1e-5 * (1 + np.linalg.norm(x))
        analytic = hessian(ens, y, x)
        fd = fd_hessian(ens, y, x, h)
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-5

    def test_negative_semidefinite_at_origin(self, small_problem):
        # first term vanishes at x = 0, leaving -(1/m) sum y_i a_i a_i^T
        ens, _, y, _ = small_problem
        eigs = np.linalg.eigvalsh(hessian(ens, y, np.zeros(ens.n)))
        assert eigs.max() <= 1e-12

    def test_dense_limit(self):
        ens = sample_ensemble(4, 513, seed=0)
        for fn in (hessian, hessian_extremes):
            with pytest.raises(ValueError, match="n <= 512"):
                fn(ens, np.ones(4), np.zeros(513))


def test_extremes_match_dense(small_problem):
    ens, _, y, x0 = small_problem
    lmin, lmax = hessian_extremes(ens, y, x0)
    eigs = np.linalg.eigvalsh(hessian(ens, y, x0))
    assert lmin == pytest.approx(eigs[0], rel=1e-10)
    assert lmax == pytest.approx(eigs[-1], rel=1e-10)


def run_python(code, blas_threads=1):
    """Run `code` in a fresh interpreter at `blas_threads` OpenBLAS threads;
    at one, a product's bits do not depend on the machine.  Returns its
    stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(objective.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=path),
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestProject:
    # (m, n) around the floor: one row below it (serial), at it, an odd m
    # whose second half (2049 rows) is not a multiple of 16, an odd n, and
    # the bench's n=256 ensemble
    SHAPES = [(4095, 128), (4096, 128), (4097, 128), (4099, 200), (2041, 257),
              (14196, 256)]

    def test_bits_equal_one_call(self):
        code = f"""
import os
import numpy as np
from prbench import objective
from prbench.objective import SPLIT_MIN_VALUES, project
print(objective._SPLIT == (len(os.sched_getaffinity(0)) >= 2))
rng = np.random.default_rng(7)
for m, n in {self.SHAPES}:
    rows, x = rng.standard_normal((m, n)), rng.standard_normal(n)
    out = np.empty(m)
    assert project(rows, x, out) is out
    print(m, n, m * n >= SPLIT_MIN_VALUES,
          np.array_equal(project(rows, x), rows.dot(x)),
          np.array_equal(out, rows.dot(x)))
"""
        lines = run_python(code).splitlines()
        split = [m * n >= SPLIT_MIN_VALUES for m, n in self.SHAPES]
        assert lines[0] == "True"
        assert lines[1:] == [f"{m} {n} {s} True True" for (m, n), s in zip(self.SHAPES, split)]
        assert split == [False] + [True] * 5

    def test_error_reaches_caller_and_worker_survives(self):
        code = """
import threading
import numpy as np
from prbench import objective
from prbench.objective import project
objective._SPLIT = True  # the worker as on a machine with a core to spare
rng = np.random.default_rng(3)
rows, x = rng.standard_normal((4097, 128)), rng.standard_normal(128)
project(rows, x)
worker = [t for t in threading.enumerate() if t.name == "prbench-project"]
for bad in (np.ones(127), np.ones(129)):
    try:
        project(rows, bad)
    except ValueError:
        print("ValueError")
try:
    project(rows, x, np.empty(4096))
except ValueError:
    print("ValueError")
again = [t for t in threading.enumerate() if t.name == "prbench-project"]
print(len(worker) == 1 and again == worker, np.array_equal(project(rows, x), rows.dot(x)))
"""
        # a hang would end in subprocess.TimeoutExpired
        assert run_python(code).split() == ["ValueError"] * 3 + ["True", "True"]

    def test_concurrent_callers(self):
        # four threads on two cores, switching every microsecond: one caller
        # at a time splits, the others compute serially, and every product
        # keeps its own bits
        code = """
import sys, threading
import numpy as np
from prbench import objective
from prbench.objective import project
objective._SPLIT = True
rng = np.random.default_rng(5)
problems = [(rng.standard_normal((4097, 128)), rng.standard_normal(128)) for _ in range(4)]
wrong = []

def call(rows, x):
    want = rows.dot(x)
    wrong.extend(k for k in range(40) if not np.array_equal(project(rows, x), want))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=call, args=p) for p in problems]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
print(sum(t.is_alive() for t in threads), len(wrong))
"""
        assert run_python(code).split() == ["0", "0"]

    def test_no_split_at_more_blas_threads(self):
        # both parts would run OpenBLAS's threaded kernel at once
        code = """
import threading
import numpy as np
from prbench import objective
rows, x = np.ones((4097, 128)), np.ones(128)
objective.project(rows, x)
print(objective._SPLIT, any(t.name == "prbench-project" for t in threading.enumerate()))
"""
        assert run_python(code, blas_threads=2).split() == ["False", "False"]

    def test_interrupted_wait_starts_a_fresh_worker(self):
        # an interrupt that cuts the caller's wait leaves the worker to
        # release `done` late; a later product must not take that release
        # for its own, so it gets a fresh worker and the bits of one call
        code = """
import numpy as np
from prbench import objective
from prbench.objective import project
objective._SPLIT = True
rng = np.random.default_rng(11)
rows, x = rng.standard_normal((8191, 128)), rng.standard_normal(128)
project(rows, x)
old = objective._worker

class CutWait:
    def __init__(self, lock):
        self.lock, self.cut = lock, False

    def acquire(self):
        if not self.cut:
            self.cut = True
            raise KeyboardInterrupt
        return self.lock.acquire()

    def release(self):
        self.lock.release()

old.done = CutWait(old.done)
try:
    project(rows, x)
except KeyboardInterrupt:
    print("interrupted")
print(all(np.array_equal(project(rows, x), rows.dot(x)) for _ in range(20)),
      objective._worker is not old)
"""
        assert run_python(code).split() == ["interrupted", "True", "True"]

    def test_worker_keeps_no_array(self, monkeypatch):
        monkeypatch.setattr(objective, "_SPLIT", True)
        rows, x = np.ones((SPLIT_MIN_VALUES // 128, 128)), np.ones(128)
        refs = weakref.ref(rows), weakref.ref(x)
        p = project(rows, x)
        assert any(t.name == "prbench-project" for t in threading.enumerate())
        assert np.array_equal(p, np.full(len(rows), 128.0))
        del rows, x
        assert [ref() is None for ref in refs] == [True, True]
