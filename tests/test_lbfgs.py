"""Quasi-Newton optimizer: quadratics, Rosenbrock, bounds, floor semantics."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridest.lbfgs import OptimizeResult, at_roundoff_floor, minimize

EARLY_STOPS = ("objective decrease below ftol", "line search failed")


def _quad_factory(a):
    a = np.asarray(a, dtype=float)

    def fun(x):
        return 0.5 * np.sum((x - a) ** 2), x - a

    return fun


def _rosenbrock(x):
    f = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2
    g = np.array([
        -400.0 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
        200.0 * (x[1] - x[0] ** 2),
    ])
    return f, g


def _rosenbrock_hessian(x):
    return np.array([[1200.0 * x[0] ** 2 - 400.0 * x[1] + 2.0, -400.0 * x[0]],
                     [-400.0 * x[0], 200.0]])


def test_identity_quadratic_exact_in_one_step():
    # unit trial step lands on the minimizer; one more pass confirms g = 0
    fun = _quad_factory([1.0, -2.0, 0.5])
    res = minimize(fun, np.zeros(3), tol=1e-10)
    assert res.converged
    assert res.message == "projected gradient below tolerance"
    assert res.n_evals == 3
    assert res.iterations == 2
    assert np.allclose(res.x, [1.0, -2.0, 0.5], atol=1e-14)
    assert res.fun == 0.0


def test_scaled_quadratic():
    A = np.diag([1.0, 10.0, 100.0])

    def fun(x):
        return 0.5 * x @ A @ x, A @ x

    res = minimize(fun, np.ones(3), tol=1e-6)
    assert res.converged
    assert res.message == "projected gradient below tolerance"
    assert np.max(np.abs(res.x)) < 1e-6
    assert res.iterations <= 20


def test_rosenbrock():
    res = minimize(_rosenbrock, np.array([-1.2, 1.0]), tol=1e-8, max_iter=100)
    assert res.converged
    assert res.iterations <= 60
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)


def test_lower_bounds_activate():
    fun = _quad_factory([1.0, 2.0, 3.0])
    res = minimize(fun, np.array([4.0, 4.0, 4.0]), lower=2.0, tol=1e-10)
    assert res.converged
    # first two coordinates pinned at the bound, third free
    assert np.allclose(res.x, [2.0, 2.0, 3.0], atol=1e-12)


def test_start_on_bound_is_fine():
    fun = _quad_factory([1.0, 2.0, 3.0])
    res = minimize(fun, np.array([2.0, 4.0, 4.0]), lower=2.0, tol=1e-10)
    assert res.converged
    assert np.allclose(res.x, [2.0, 2.0, 3.0], atol=1e-12)


def test_infeasible_start_rejected():
    fun = _quad_factory([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        minimize(fun, np.array([0.0, 4.0, 4.0]), lower=2.0)


def test_roundoff_floor_counts_as_converged():
    # huge constant offset: absolute decrease saturates double precision;
    # the optimizer stops short of tol and the exact Hessian certifies it
    def fun(x):
        return 1e8 + 0.5 * np.sum(x ** 2), x

    res = minimize(fun, np.full(3, 1e-4), tol=1e-16, max_iter=50)
    assert at_roundoff_floor(res, np.eye(3))


def test_roundoff_floor_refuses():
    # far from the minimum: |g| is about 5.6, way above the floor
    res = minimize(_rosenbrock, np.array([-1.2, 1.0]), tol=1e-12, max_iter=5)
    assert res.grad_norm > 1.0
    assert not at_roundoff_floor(res, _rosenbrock_hessian(res.x))
    # no positive curvature certifies nothing, even at a zero gradient
    res = minimize(_quad_factory([1.0, -2.0, 0.5]), np.zeros(3), tol=1e-10)
    assert res.grad_norm == 0.0
    assert not at_roundoff_floor(res, -np.eye(3))
    assert not at_roundoff_floor(res, np.zeros((3, 3)))


def test_max_iter_not_converged():
    res = minimize(_rosenbrock, np.array([-1.2, 1.0]), tol=1e-12, max_iter=5)
    assert not res.converged
    assert res.message == "max_iter reached"
    assert res.iterations == 5


def test_history_records():
    fun = _quad_factory([3.0, -1.0])
    res = minimize(fun, np.zeros(2), tol=1e-10)
    h = res.history
    assert h[0]["iter"] == 0
    assert [rec["iter"] for rec in h] == list(range(len(h)))
    evals = [rec["evals"] for rec in h]
    assert evals == sorted(evals)
    funs = [rec["fun"] for rec in h]
    assert all(b <= a for a, b in zip(funs, funs[1:]))
    assert res.n_evals >= evals[-1]


def test_result_invariant():
    # converged means the gradient test passed, and nothing else
    cases = [
        (_quad_factory([1.0, 2.0]), np.zeros(2), 1e-10),
        (lambda x: (1e8 + 0.5 * np.sum(x ** 2), x), np.full(3, 1e-4), 1e-16),
    ]
    for fun, x0, tol in cases:
        res = minimize(fun, x0, tol=tol, max_iter=50)
        assert isinstance(res, OptimizeResult)
        if res.converged:
            assert res.grad_norm <= tol


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=4),
    st.integers(0, 2 ** 32 - 1),
)
def test_random_convex_quadratics(center, seed):
    a = np.asarray(center)
    n = a.size
    rng = np.random.default_rng(seed)
    L = rng.uniform(-1, 1, (n, n))
    Q = L @ L.T + 0.5 * np.eye(n)

    def fun(x):
        r = x - a
        return 0.5 * r @ Q @ r, Q @ r

    res = minimize(fun, np.zeros(n), tol=1e-9, max_iter=200)
    assert np.allclose(res.x, a, atol=1e-5)
    # a draw may stall near its roundoff floor before the tight tol; the
    # answer is still accurate and the report names the early stop.  Not
    # every such stop is at the floor: center (7.2e-7, 0) with seed 0
    # stops at |g| = 3.1e-7 against a floor of 2.3e-7
    if not res.converged:
        assert res.message in EARLY_STOPS
        assert res.grad_norm < 1e-4
