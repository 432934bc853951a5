"""The MAP driver: quadratics, Rosenbrock, bounds, the decrement stop.

Every objective is a least-squares problem kept above H_LOWER_BOUND:
quadratics are centred at shifted points and Rosenbrock is taken in its
residual form, translated by SHIFT.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from least_squares import LeastSquares

from gridest.lbfgs import DECREMENT_TOL, H_LOWER_BOUND, OptimizeResult, minimize

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


ROSENBROCK_START = np.array([-1.2, 1.0]) + SHIFT


def test_scaled_quadratic():
    # a full Gauss-Newton step lands on the minimizer of a quadratic,
    # however badly scaled
    a = np.array([1.0, 2.0, 0.5])
    res = minimize(_quadratic(a, [1.0, 10.0, 100.0]), np.full(3, 3.0))
    assert res.converged
    assert res.message == "Newton decrement below tolerance"
    assert res.iterations == 1 and res.n_evals == 2
    assert res.history[1]["step"] == 1.0
    assert np.allclose(res.x, a, atol=1e-12)


def test_rosenbrock():
    res = minimize(_rosenbrock(), ROSENBROCK_START, decrement_tol=1e-16,
                   max_iter=100)
    assert res.converged
    assert res.iterations <= 20
    assert np.allclose(res.x, [1.0 + SHIFT, 1.0 + SHIFT], atol=1e-6)


def test_lower_bounds_activate():
    # from (2, 2, 2) the first step stops where m_1 reaches the bound, the
    # second where m_2 does; the third coordinate is free
    objective = _quadratic([-1.0, -0.5, 1.5])
    res = minimize(objective, np.full(3, 2.0))
    assert res.converged
    assert np.allclose(res.x, [H_LOWER_BOUND, H_LOWER_BOUND, 1.5], atol=1e-12)
    assert min(float(np.min(m)) for m in objective.points) >= H_LOWER_BOUND


def test_start_on_bound_is_fine():
    res = minimize(_quadratic([-1.0, -0.5, 1.5]),
                   np.array([H_LOWER_BOUND, 2.0, 2.0]))
    assert res.converged
    assert np.allclose(res.x, [H_LOWER_BOUND, H_LOWER_BOUND, 1.5], atol=1e-12)


def test_infeasible_start_rejected():
    with pytest.raises(ValueError, match="below the bound"):
        minimize(_quadratic([1.0, 2.0, 3.0]), np.array([0.0, 4.0, 4.0]))


def _offset():
    """J = 1/2 ||x - 1||^2 + 1e8: near its minimum no step changes J by
    a unit in its last place, so no line search can verify descent."""
    return LeastSquares(lambda x: np.append(x - 1.0, np.sqrt(2e8)),
                        lambda x: np.vstack([np.eye(3), np.zeros((1, 3))]))


def test_roundoff_floor_counts_as_converged():
    # 1e-4 from the minimum the decrease a step can show is below the
    # roundoff of J = 1e8; the decrement 3e-8 is already below
    # DECREMENT_TOL, so the loop stops converged without a trial
    res = minimize(_offset(), np.full(3, 1.0 + 1e-4))
    assert res.converged
    assert res.message == "Newton decrement below tolerance"
    assert res.fun >= 1e8
    assert res.iterations == 0 and res.n_evals == 1
    assert res.history[0]["decrement"] == pytest.approx(3e-8, rel=1e-6)


@pytest.mark.parametrize("decrement_tol, stop", [(20.0, 0), (19.9, 1),
                                                 (5.0, 1), (4.9, 2)])
def test_decrement_in_closed_form(decrement_tol, stop):
    # J = 1/2 ||C (x - a)||^2 has H = C^T C and g = H (x - a), so
    # lambda^2 = (x - a)^T H (x - a) = ||C (x - a)||^2: 20 at x0.  The
    # first trial fails, so the first step goes half way and quarters
    # lambda^2 to 5; the second step is exact.  The loop stops at the
    # first iterate whose lambda^2 is at most decrement_tol
    c = np.array([[2.0, 1.0], [0.0, 1.0]])
    a = np.array([1.0, 2.0])
    x0 = np.array([2.0, 4.0])
    res = minimize(LeastSquares.linear(c, c @ a, fail_trials=1), x0,
                   decrement_tol=decrement_tol)
    assert res.converged
    assert res.iterations == stop
    decrements = [rec["decrement"] for rec in res.history]
    assert decrements[:2] == pytest.approx([20.0, 5.0][:stop + 1], rel=1e-14)
    assert all(d > decrement_tol for d in decrements[:-1])
    assert decrements[-1] <= decrement_tol
    expected = [x0, 0.5 * (x0 + a), a][stop]
    assert np.allclose(res.x, expected, rtol=0.0, atol=1e-15)


def test_held_variable_leaves_the_decrement():
    # x_1 rests on the bound with its gradient pointing out of the box,
    # so only x_2 is free: lambda^2 over it is below DECREMENT_TOL though
    # the full-space one is not, and the loop stops at the start
    c = np.array([[1.0, 0.5], [0.0, 1.0]])
    a = np.array([-1.0, 1.5])
    h = c.T @ c
    x0 = np.array([H_LOWER_BOUND, 0.0])
    # g_2 = h_21 (x_1 - a_1) + h_22 (x_2 - a_2) = 1e-4 from here
    x0[1] = a[1] + (1e-4 - h[1, 0] * (x0[0] - a[0])) / h[1, 1]
    g = h @ (x0 - a)
    assert g[0] > 0.0 and g[1] == pytest.approx(1e-4, rel=1e-9)
    assert g @ np.linalg.solve(h, g) > DECREMENT_TOL
    res = minimize(LeastSquares.linear(c, c @ a), x0)
    assert res.converged
    assert res.iterations == 0 and res.n_evals == 1
    assert res.history[0]["decrement"] == pytest.approx(g[1] ** 2 / h[1, 1],
                                                        rel=1e-9)
    assert res.history[0]["decrement"] <= DECREMENT_TOL


def test_max_iter_not_converged():
    res = minimize(_rosenbrock(), ROSENBROCK_START, max_iter=1)
    assert not res.converged
    assert res.message == "max_iter reached"
    assert res.iterations == 1


def test_backtracking_without_decrease_stops():
    # every trial point fails: the step is halved BACKTRACKS times, then
    # the loop gives up at the start
    objective = LeastSquares.linear(np.eye(2), np.array([3.0, 1.0]),
                                    fail_trials=100)
    res = minimize(objective, np.ones(2))
    assert not res.converged
    assert res.message == "backtracking found no decrease"
    assert np.array_equal(res.x, np.ones(2))
    assert res.iterations == 0


def test_history_records():
    res = minimize(_rosenbrock(), ROSENBROCK_START)
    h = res.history
    assert len(h) > 2
    assert [rec["iter"] for rec in h] == list(range(len(h)))
    evals = [rec["evals"] for rec in h]
    assert evals == sorted(evals)
    funs = [rec["fun"] for rec in h]
    assert all(b <= a for a, b in zip(funs, funs[1:]))
    assert res.n_evals == evals[-1]
    decrements = [rec["decrement"] for rec in h]
    assert all(d > DECREMENT_TOL for d in decrements[:-1])
    assert decrements[-1] <= DECREMENT_TOL


def test_result_invariant():
    # converged means the decrement test passed, and nothing else: not at
    # max_iter, nor when every trial fails
    cases = [
        (_quadratic([1.0, 2.0]), np.full(2, 0.5), 1e-10, 50),
        (_rosenbrock(), ROSENBROCK_START, 1e-10, 50),
        (_rosenbrock(), ROSENBROCK_START, 1e-10, 1),
        (_offset(), np.full(3, 1.0 + 1e-2), DECREMENT_TOL, 50),
        (LeastSquares.linear(np.eye(2), np.array([3.0, 1.0]),
                             fail_trials=100), np.ones(2), DECREMENT_TOL, 50),
    ]
    verdicts = []
    for objective, x0, decrement_tol, max_iter in cases:
        res = minimize(objective, x0, decrement_tol=decrement_tol,
                       max_iter=max_iter)
        assert isinstance(res, OptimizeResult)
        assert res.converged == (res.history[-1]["decrement"] <= decrement_tol)
        verdicts.append(res.converged)
    assert verdicts == [True, True, False, True, False]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=4),
    st.integers(0, 2 ** 32 - 1),
)
def test_random_convex_quadratics(center, seed):
    # centres shifted into [1, 11], clear of the bound; every draw
    # converges, and as Q >= 0.5 I a decrement at most 1e-12 puts x
    # within sqrt(2e-12) of a
    a = np.asarray(center) + 6.0
    n = a.size
    rng = np.random.default_rng(seed)
    L = rng.uniform(-1, 1, (n, n))
    Q = L @ L.T + 0.5 * np.eye(n)
    ct = np.linalg.cholesky(Q).T        # Q = C C^T

    res = minimize(LeastSquares.linear(ct, ct @ a), np.full(n, 6.0),
                   decrement_tol=1e-12, max_iter=200)
    assert np.allclose(res.x, a, atol=1e-5)
    assert res.converged
