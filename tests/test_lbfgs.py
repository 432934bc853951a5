"""The MAP driver: quadratics, Rosenbrock, bounds, floor semantics.

Every objective is a least-squares problem kept above H_LOWER_BOUND:
quadratics are centred at shifted points and Rosenbrock is taken in its
residual form, translated by SHIFT.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from least_squares import LeastSquares

from gridest.lbfgs import H_LOWER_BOUND, OptimizeResult, at_roundoff_floor, minimize

SHIFT = 2.0


def _quadratic(a, scale=None):
    """J = 1/2 ||C^T (x - a)||^2 with C = diag(scale), or the identity."""
    a = np.asarray(a, dtype=float)
    ct = np.eye(a.size) if scale is None else np.diag(scale)
    return LeastSquares.linear(ct, ct @ a)


def _rosenbrock():
    """r = (10 (y - x^2), 1 - x) at (x, y) = z - SHIFT; minimum at
    z = (1, 1) + SHIFT."""
    def residual(z):
        x, y = z - SHIFT
        return np.array([10.0 * (y - x ** 2), 1.0 - x])

    def jacobian(z):
        x = z[0] - SHIFT
        return np.array([[-20.0 * x, 10.0], [-1.0, 0.0]])

    return LeastSquares(residual, jacobian)


def _rosenbrock_hessian(objective, z):
    """The exact Hessian: Gauss-Newton plus r_1 times r_1's curvature."""
    r = objective.residual(z)
    return objective.gauss_newton(z) + np.array([[-20.0 * r[0], 0.0],
                                                 [0.0, 0.0]])


ROSENBROCK_START = np.array([-1.2, 1.0]) + SHIFT


def test_scaled_quadratic():
    # a full Gauss-Newton step lands on the minimizer of a quadratic,
    # however badly scaled
    a = np.array([1.0, 2.0, 0.5])
    res = minimize(_quadratic(a, [1.0, 10.0, 100.0]), np.full(3, 3.0),
                   tol=1e-8)
    assert res.converged
    assert res.message == "projected gradient below tolerance"
    assert res.iterations == 1 and res.n_evals == 2
    assert res.history[1]["step"] == 1.0
    assert np.allclose(res.x, a, atol=1e-12)


def test_rosenbrock():
    res = minimize(_rosenbrock(), ROSENBROCK_START, tol=1e-8, max_iter=100)
    assert res.converged
    assert res.iterations <= 20
    assert np.allclose(res.x, [1.0 + SHIFT, 1.0 + SHIFT], atol=1e-6)


def test_lower_bounds_activate():
    # from (2, 2, 2) the first step stops where m_1 reaches the bound, the
    # second where m_2 does; the third coordinate is free
    objective = _quadratic([-1.0, -0.5, 1.5])
    res = minimize(objective, np.full(3, 2.0), tol=1e-10)
    assert res.converged
    assert np.allclose(res.x, [H_LOWER_BOUND, H_LOWER_BOUND, 1.5], atol=1e-12)
    assert min(float(np.min(m)) for m in objective.points) >= H_LOWER_BOUND


def test_start_on_bound_is_fine():
    res = minimize(_quadratic([-1.0, -0.5, 1.5]),
                   np.array([H_LOWER_BOUND, 2.0, 2.0]), tol=1e-10)
    assert res.converged
    assert np.allclose(res.x, [H_LOWER_BOUND, H_LOWER_BOUND, 1.5], atol=1e-12)


def test_infeasible_start_rejected():
    with pytest.raises(ValueError, match="below the bound"):
        minimize(_quadratic([1.0, 2.0, 3.0]), np.array([0.0, 4.0, 4.0]))


def test_roundoff_floor_counts_as_converged():
    # huge constant offset: no step can show a decrease in double
    # precision; the loop stops at the floor, short of tol, and the exact
    # Hessian certifies it
    def residual(x):
        return np.append(x - 1.0, np.sqrt(2e8))

    def jacobian(x):
        return np.vstack([np.eye(3), np.zeros((1, 3))])

    res = minimize(LeastSquares(residual, jacobian), np.full(3, 1.0 + 1e-4),
                   tol=1e-16, max_iter=50)
    assert not res.converged
    assert res.message == "gradient at the roundoff floor"
    assert res.fun >= 1e8
    assert at_roundoff_floor(res, np.eye(3))


def test_roundoff_floor_refuses():
    # far from the minimum: the gradient is way above the floor
    objective = _rosenbrock()
    res = minimize(objective, ROSENBROCK_START, tol=1e-12, max_iter=1)
    assert res.grad_norm > 1.0
    assert not at_roundoff_floor(res, _rosenbrock_hessian(objective, res.x))
    # no positive curvature certifies nothing, even at a zero gradient
    res = minimize(_quadratic([1.0, 2.0, 0.5]), np.full(3, 0.5), tol=1e-10)
    assert res.grad_norm == 0.0
    assert not at_roundoff_floor(res, -np.eye(3))
    assert not at_roundoff_floor(res, np.zeros((3, 3)))


def test_max_iter_not_converged():
    res = minimize(_rosenbrock(), ROSENBROCK_START, tol=1e-12, max_iter=1)
    assert not res.converged
    assert res.message == "max_iter reached"
    assert res.iterations == 1


def test_backtracking_without_decrease_stops():
    # every trial point fails: the step is halved BACKTRACKS times, then
    # the loop gives up at the start
    objective = LeastSquares.linear(np.eye(2), np.array([3.0, 1.0]),
                                    fail_trials=100)
    res = minimize(objective, np.ones(2), tol=1e-10)
    assert not res.converged
    assert res.message == "backtracking found no decrease"
    assert np.array_equal(res.x, np.ones(2))
    assert res.iterations == 0


@pytest.mark.parametrize("trial_error, converged", [(2e-9, True),
                                                     (6e-9, False)])
def test_armijo_allows_twice_the_value_noise(trial_error, converged):
    # J = 1.25e-9 at the start, 0 at the minimum, but every trial's J is
    # trial_error too high, as a forward solve stopped at its Newton
    # tolerance can make it: no step shows a strict decrease.  A trial
    # within 2 value_noise = 4e-9 of f is accepted and the next
    # linearization converges; one 6e-9 above the minimum is not
    a = np.array([2.0, 3.0])
    objective = LeastSquares.linear(np.eye(2), a, value_noise=2e-9,
                                    trial_error=trial_error)
    res = minimize(objective, a + np.array([3e-5, 4e-5]), tol=1e-10)
    assert res.converged == converged
    if converged:
        assert res.iterations == 1 and res.n_evals == 2
        assert res.history[1]["step"] == 1.0
        assert np.allclose(res.x, a, rtol=0.0, atol=1e-15)
    else:
        assert res.message == "backtracking found no decrease"
        assert res.iterations == 0


def test_history_records():
    res = minimize(_rosenbrock(), ROSENBROCK_START, tol=1e-10)
    h = res.history
    assert len(h) > 2
    assert [rec["iter"] for rec in h] == list(range(len(h)))
    evals = [rec["evals"] for rec in h]
    assert evals == sorted(evals)
    funs = [rec["fun"] for rec in h]
    assert all(b <= a for a, b in zip(funs, funs[1:]))
    assert res.n_evals == evals[-1]


def test_result_invariant():
    # converged means the gradient test passed, and nothing else
    offset = LeastSquares(lambda x: np.append(x - 1.0, np.sqrt(2e8)),
                          lambda x: np.vstack([np.eye(3), np.zeros((1, 3))]))
    cases = [
        (_quadratic([1.0, 2.0]), np.full(2, 0.5), 1e-10),
        (_rosenbrock(), ROSENBROCK_START, 1e-10),
        (offset, np.full(3, 1.0 + 1e-4), 1e-16),
    ]
    for objective, x0, tol in cases:
        res = minimize(objective, x0, tol=tol, max_iter=50)
        assert isinstance(res, OptimizeResult)
        assert res.converged == (res.grad_norm <= tol)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=4),
    st.integers(0, 2 ** 32 - 1),
)
def test_random_convex_quadratics(center, seed):
    # centres shifted into [1, 11], clear of the bound; every draw
    # converges, or stops at a floor its exact Hessian certifies
    a = np.asarray(center) + 6.0
    n = a.size
    rng = np.random.default_rng(seed)
    L = rng.uniform(-1, 1, (n, n))
    Q = L @ L.T + 0.5 * np.eye(n)
    ct = np.linalg.cholesky(Q).T        # Q = C C^T

    res = minimize(LeastSquares.linear(ct, ct @ a), np.full(n, 6.0),
                   tol=1e-9, max_iter=200)
    assert np.allclose(res.x, a, atol=1e-5)
    assert res.converged or at_roundoff_floor(res, Q)
