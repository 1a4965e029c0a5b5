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
from prbench.objective import SPLIT_MIN_VALUES, SPLIT_T_MIN_VALUES, project, project_t

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
        # four threads on two cores, switching every microsecond, each
        # making both products: one caller at a time splits, the others
        # compute serially, and every product keeps its own bits
        code = """
import sys, threading
import numpy as np
from prbench import objective
from prbench.objective import project, project_t
objective._SPLIT = True
objective.SPLIT_T_MIN_VALUES = 0
rng = np.random.default_rng(5)
problems = [(rng.standard_normal((4097, 128)), rng.standard_normal(128), rng.standard_normal(4097))
            for _ in range(4)]
wrong = []

def call(rows, x, w):
    want, want_t = rows.dot(x), rows.T.dot(w)
    wrong.extend(k for k in range(150) if not np.array_equal(project(rows, x), want)
                 or not np.array_equal(project_t(rows, w), want_t))

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
m = objective.SPLIT_T_MIN_VALUES // 128
objective.project_t(np.ones((m, 128)), np.ones(m))
print(objective._SPLIT, any(t.name == "prbench-project" for t in threading.enumerate()))
"""
        assert run_python(code, blas_threads=2).split() == ["False", "False"]

    def test_interrupted_wait_starts_a_fresh_worker(self):
        # an interrupt that cuts the caller's wait leaves the worker to
        # release `done` late; a later product must not take that release
        # for its own, so it gets a fresh worker and the bits of one call,
        # whichever product, `rows @ x` or `rows.T @ w`, was cut
        code = """
import numpy as np
from prbench import objective
from prbench.objective import project, project_t
objective._SPLIT = True
objective.SPLIT_T_MIN_VALUES = 0
rng = np.random.default_rng(11)
rows, x = rng.standard_normal((8191, 128)), rng.standard_normal(128)
w = rng.standard_normal(8191)

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

for cut in (lambda: project(rows, x), lambda: project_t(rows, w)):
    cut()
    old = objective._worker
    old.done = CutWait(old.done)
    try:
        cut()
    except KeyboardInterrupt:
        print("interrupted")
    print(all(np.array_equal(project(rows, x), rows.dot(x))
              and np.array_equal(project_t(rows, w), rows.T.dot(w)) for _ in range(20)),
          objective._worker is not old)
"""
        assert run_python(code).split() == ["interrupted", "True", "True"] * 2

    def test_worker_keeps_no_array(self, monkeypatch):
        monkeypatch.setattr(objective, "_SPLIT", True)
        rows, x = np.ones((SPLIT_MIN_VALUES // 128, 128)), np.ones(128)
        refs = weakref.ref(rows), weakref.ref(x)
        p = project(rows, x)
        assert any(t.name == "prbench-project" for t in threading.enumerate())
        assert np.array_equal(p, np.full(len(rows), 128.0))
        del rows, x
        assert [ref() is None for ref in refs] == [True, True]
        # and after a transposed product; its sums of ones are exact at any
        # BLAS thread count
        rows, w = np.ones((SPLIT_T_MIN_VALUES // 128, 128)), np.ones(SPLIT_T_MIN_VALUES // 128)
        refs = weakref.ref(rows), weakref.ref(w)
        g = project_t(rows, w)
        assert np.array_equal(g, np.full(128, float(len(rows))))
        del rows, w
        assert [ref() is None for ref in refs] == [True, True]


# counts the worker's column parts, so that a test knows its product split
COUNT_PARTS = """
from prbench import objective
parts = []
columns = objective._Worker.columns

def counted(self, rows, w, out, c0, c1):
    parts.append((c0, c1))
    columns(self, rows, w, out, c0, c1)

objective._Worker.columns = counted
"""


class TestProjectT:
    # every n % 4, an odd m, and the bench's n=256 ensemble
    SHAPES = [(14196, 256), (6211, 128), (4099, 200), (2041, 257), (3001, 258),
              (3001, 259), (8193, 65)]

    def test_bits_equal_one_call(self):
        # the floor at 0 and `_SPLIT` on, so that every shape splits; each
        # product is two parts that meet at a multiple of 8 near n/2
        code = COUNT_PARTS + f"""
import numpy as np
objective._SPLIT = True
objective.SPLIT_T_MIN_VALUES = 0
rng = np.random.default_rng(7)
for m, n in {self.SHAPES}:
    rows, w = rng.standard_normal((m, n)), rng.standard_normal(m)
    parts.clear()
    print(m, n, np.array_equal(objective.project_t(rows, w), rows.T.dot(w)), sorted(parts))
"""
        lines = run_python(code).splitlines()
        assert lines == [f"{m} {n} True [(0, {n // 2 & -8}), ({n // 2 & -8}, {n})]"
                         for m, n in self.SHAPES]

    def test_below_the_floor_one_call(self):
        code = COUNT_PARTS + """
import numpy as np
objective._SPLIT = True
rng = np.random.default_rng(2)
m = objective.SPLIT_T_MIN_VALUES // 256
for rows in (rng.standard_normal((m - 1, 256)), rng.standard_normal((m, 256))):
    w = rng.standard_normal(len(rows))
    print(np.array_equal(objective.project_t(rows, w), rows.T.dot(w)), len(parts))
"""
        assert run_python(code).splitlines() == ["True 0", "True 2"]

    def test_other_inputs_take_one_call(self):
        # each input the `cblas_dgemv` call does not fit gives one call's
        # result, or numpy's own error, and never reaches the worker; the
        # next product splits with the right bits
        code = COUNT_PARTS + """
import numpy as np
objective._SPLIT = True
objective.SPLIT_T_MIN_VALUES = 0
rng = np.random.default_rng(3)
rows, w = rng.standard_normal((4097, 128)), rng.standard_normal(4097)
wide = rng.standard_normal((8194, 128))
cases = {
    "w of m - 1": (rows, w[:-1]),
    "w of m + 1": (rows, np.append(w, 1.0)),
    "strided w": (rows, rng.standard_normal(2 * 4097)[::2]),
    "float32 w": (rows, w.astype(np.float32)),
    "Fortran rows": (np.asfortranarray(rows), w),
    "row slice": (wide[::2], w),
    "column slice": (wide[:4097, :100], w),
    "one row": (rows[:1], w[:1]),
    "15 columns": (np.ascontiguousarray(rows[:, :15]), w),
}
for name, (a, v) in cases.items():
    try:
        got = objective.project_t(a, v)
    except ValueError:
        got = "ValueError"
    else:
        got = np.array_equal(got, a.T.dot(v))
    right = np.array_equal(objective.project_t(rows, w), rows.T.dot(w))
    print(name, got, right, len(parts))
    parts.clear()
"""
        assert run_python(code).splitlines() == [
            "w of m - 1 ValueError True 2", "w of m + 1 ValueError True 2",
            "strided w True True 2", "float32 w True True 2", "Fortran rows True True 2",
            "row slice True True 2", "column slice True True 2", "one row True True 2",
            "15 columns True True 2",
        ]
