"""Polynomial-chaos surrogate: rules, selection, coefficients, MAP."""
import numpy as np
import pytest

from gridest.bayes import GaussianPrior
from gridest.hermite import basis_matrix, multi_index_set, n_basis
from gridest.integrator import simulate
from gridest.lbfgs import at_roundoff_floor, minimize
from gridest.observation import NoiseModel, observe
from gridest.pce import (SurrogateObjective, build_surrogate, estimate_pce,
                         sparse_rule, standardize, stochastic_testing_select,
                         surrogate_map, tensor_rule, unstandardize)

SQ3 = np.sqrt(3.0)


def test_tensor_rule_counts_and_weights():
    for p, n_nodes in ((1, 8), (2, 27), (3, 64)):
        xi, weights = tensor_rule(3, p)
        assert xi.shape == (n_nodes, 3)
        assert weights.shape == (n_nodes,)
        assert weights.sum() == pytest.approx(1.0, abs=1e-13)


def test_sparse_rule_counts_and_weights():
    for level, n_nodes in ((2, 7), (3, 19), (4, 39)):
        xi, weights = sparse_rule(3, level)
        assert xi.shape == (n_nodes, 3)
        assert weights.shape == (n_nodes,)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        sparse_rule(3, 0)


def test_sparse_rule_polynomial_exactness():
    # a level-L rule integrates total degree <= 2L-1 exactly, so the
    # Gram matrix of basis pairs with |a|+|b| within that bound is I
    level = 3
    xi, weights = sparse_rule(3, level)
    idx = multi_index_set(3, 2)  # |a|+|b| <= 4 <= 2*3-1
    v = basis_matrix(idx, xi)
    gram = v.T @ (weights[:, None] * v)
    assert np.max(np.abs(gram - np.eye(len(idx)))) < 1e-12


def test_stochastic_testing_selection_is_canonical():
    idx = multi_index_set(3, 2)
    xi, v_sel = stochastic_testing_select(*tensor_rule(3, 2), idx)
    assert xi.shape == (n_basis(3, 2), 3) == (10, 3)
    # weighted pivoting picks the probability-dominant pattern:
    # the center, all six axial nodes, and three two-axis nodes
    assert np.all(np.isin(np.round(xi / SQ3, 12), [-1.0, 0.0, 1.0]))
    n_nonzero = np.count_nonzero(xi, axis=1)
    assert np.bincount(n_nonzero).tolist() == [1, 6, 3]
    rows = {tuple(r) for r in np.round(xi / SQ3).astype(int)}
    assert (0, 0, 0) in rows
    for j in range(3):
        for s in (-1, 1):
            axial = [0, 0, 0]
            axial[j] = s
            assert tuple(axial) in rows
    assert np.linalg.cond(v_sel) == pytest.approx(6.625755924662355, rel=1e-9)
    assert v_sel.shape == (10, 10)


def test_stochastic_testing_needs_enough_candidates():
    idx = multi_index_set(3, 2)
    with pytest.raises(ValueError):
        stochastic_testing_select(*tensor_rule(3, 1), idx)


def test_projection_coefficients_closed_form():
    # f(x) = x^2 = psi0 + sqrt(2) psi2 in the orthonormal basis
    prior = GaussianPrior(mean=np.zeros(1), var=np.ones(1))

    def forward(m):
        return np.array([m[0] ** 2])

    s = build_surrogate("tensor", 2, forward, prior)
    assert np.allclose(s.coeffs[:, 0], [1.0, 0.0, np.sqrt(2.0)], atol=1e-13)
    assert s.n_forward == 3
    assert s.rule == "tensor"
    # and the surrogate reproduces the parabola everywhere
    for x in (-1.7, 0.3, 2.2):
        assert s.evaluate(np.array([x]))[0] == pytest.approx(x ** 2, abs=1e-12)


def test_interpolation_reproduces_node_values():
    prior = GaussianPrior(mean=np.array([24.0, 6.0, 3.1]),
                          var=np.array([5.76, 0.36, 0.09]))

    def forward(m):
        xi = standardize(m, prior)
        return np.array([np.sin(xi[0]) + xi[1] * xi[2],
                         np.exp(0.1 * xi[1])])

    s = build_surrogate("stochastic-testing", 2, forward, prior)
    assert s.n_forward == 10
    nodes, _ = stochastic_testing_select(*tensor_rule(3, 2),
                                         multi_index_set(3, 2))
    for xi in nodes:
        m = unstandardize(xi, prior)
        assert np.allclose(s.evaluate(m), forward(m), atol=1e-12)


def test_build_surrogate_validation():
    prior = GaussianPrior(mean=np.zeros(1), var=np.ones(1))
    with pytest.raises(ValueError):
        build_surrogate("kriging", 2, lambda m: m, prior)


def test_forward_failure_names_its_node():
    prior = GaussianPrior(mean=np.array([24.0, 6.0, 3.1]),
                          var=np.array([5.76, 0.36, 0.09]))
    bad = unstandardize(tensor_rule(3, 1)[0], prior)[5]

    def forward(m):
        if np.array_equal(m, bad):
            raise ValueError("injected forward failure")
        return np.asarray(m, dtype=float)

    with pytest.raises(RuntimeError, match="failed at node 5, m = "):
        build_surrogate("tensor", 1, forward, prior)


def test_standardize_round_trip():
    prior = GaussianPrior(mean=np.array([24.0, 6.0, 3.1]),
                          var=np.array([5.76, 0.36, 0.09]))
    m = np.array([22.0, 6.3, 2.8])
    assert np.allclose(unstandardize(standardize(m, prior), prior), m)
    assert np.allclose(standardize(prior.mean, prior), 0.0)


TOY_PRIOR = GaussianPrior(mean=np.array([24.0, 6.0, 3.1]),
                          var=np.array([5.76, 0.36, 0.09]))


def _toy_objective():
    """The objective of an order-3 tensor surrogate of a smooth map, on
    noisy data near (23.0, 6.4, 3.0)."""
    def forward(m):
        xi = standardize(m, TOY_PRIOR)
        return np.array([np.tanh(xi[0]) + 0.5 * xi[1] * xi[2],
                         0.2 * xi[2] ** 2 - xi[0],
                         np.cos(xi[1])])

    s = build_surrogate("tensor", 3, forward, TOY_PRIOR)
    rng = np.random.default_rng(5)
    data = forward(np.array([23.0, 6.4, 3.0])) + 0.01 * rng.standard_normal(3)
    return SurrogateObjective(s, _FakeObs(data), NoiseModel.iid(1e-3, 3),
                              TOY_PRIOR)


def test_surrogate_objective_derivatives():
    obj = _toy_objective()
    m = np.array([23.5, 6.2, 3.2])
    val, grad = obj.value_grad(m)
    hess = obj.hessian(m)
    assert np.allclose(hess, hess.T)
    for j in range(3):
        h = 1e-6 * m[j]
        e = np.zeros(3)
        e[j] = h
        vp, gp = obj.value_grad(m + e)
        vm, gm = obj.value_grad(m - e)
        assert grad[j] == pytest.approx((vp - vm) / (2 * h), rel=1e-6, abs=1e-10)
        assert np.allclose(hess[:, j], (gp - gm) / (2 * h), rtol=1e-5,
                           atol=1e-8)


def test_surrogate_linearize_agrees_with_value_grad():
    m = np.array([23.5, 6.2, 3.2])
    val, grad = _toy_objective().value_grad(m)
    obj = _toy_objective()
    j, g, hess = obj.linearize(m)
    assert j == pytest.approx(val, rel=1e-14)
    assert np.allclose(g, grad, rtol=1e-14, atol=0.0)
    assert obj.value(m) == pytest.approx(val, rel=1e-14)
    assert np.allclose(hess, hess.T)
    assert np.all(np.linalg.eigvalsh(hess) > 0)


def test_surrogate_jacobian_matches_finite_differences():
    obj = _toy_objective()
    m = np.array([23.5, 6.2, 3.2])
    jac = obj.jacobian(m)
    assert jac.shape == (3, 3)
    for j in range(3):
        h = 1e-6 * m[j]
        e = np.zeros(3)
        e[j] = h
        fd = (obj.surrogate.evaluate(m + e)
              - obj.surrogate.evaluate(m - e)) / (2 * h)
        assert np.allclose(jac[:, j], fd, rtol=1e-5, atol=1e-9)


def test_surrogate_gauss_newton_is_exact_at_zero_residual():
    # with data = f_hat(m) the residual curvature term vanishes, so the
    # Gauss-Newton Hessian is the full one
    m = np.array([23.5, 6.2, 3.2])
    s = _toy_objective().surrogate
    obj = SurrogateObjective(s, _FakeObs(s.evaluate(m)),
                             NoiseModel.iid(1e-3, 3), TOY_PRIOR)
    _, _, hess_gn = obj.linearize(m)
    assert np.allclose(hess_gn, obj.hessian(m), rtol=1e-12, atol=0.0)


class _FakeObs:
    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)


@pytest.fixture(scope="module")
def estimate_1s(system, prior, make_scenario):
    """Cached order-2 estimate_pce at t_f = 1 s, one per rule."""
    cache = {}

    def get(rule):
        if rule not in cache:
            obs, noise, events = make_scenario(1.0)
            cache[rule] = estimate_pce(system, obs, noise, prior, 1.0, 0.01,
                                       events=events, order=2, rule=rule)
        return cache[rule]

    return get


@pytest.mark.parametrize("rule", ["stochastic-testing", "tensor", "sparse"])
def test_every_start_converges(estimate_1s, rule):
    summary, _ = estimate_1s(rule)
    assert summary.stats["n_starts"] == 1
    assert summary.stats["n_converged_starts"] == 1
    assert summary.stats["converged"]
    assert summary.stats["message"] in ("projected gradient below tolerance",
                                        "gradient at the roundoff floor")
    assert summary.stats["n_evals"] > summary.stats["iterations"] >= 1


@pytest.mark.parametrize("rule", ["stochastic-testing", "tensor", "sparse"])
def test_no_prior_draw_beats_the_prior_mean_start(make_scenario, prior,
                                                  estimate_1s, rule):
    # the MAP runs once, from the prior mean; runs from prior draws all
    # converge and none ends below it by more than termination noise
    summary, surrogate = estimate_1s(rule)
    obs, noise, _ = make_scenario(1.0)
    objective = SurrogateObjective(surrogate, obs, noise, prior)
    rng = np.random.default_rng(2024)
    draws = prior.mean + np.sqrt(prior.var) * rng.standard_normal((16, 3))
    j_map = summary.stats["objective"]
    for x0 in draws:
        res = minimize(objective, x0, tol=1e-8, max_iter=200)
        assert res.converged or at_roundoff_floor(res, objective.hessian(res.x))
        assert res.fun >= j_map * (1.0 - 1e-10)


def test_surrogate_objective_dimension_check():
    prior = GaussianPrior(mean=np.zeros(1), var=np.ones(1))
    s = build_surrogate("tensor", 2, lambda m: np.array([m[0]]), prior)
    with pytest.raises(ValueError):
        SurrogateObjective(s, _FakeObs(np.zeros(2)), NoiseModel.iid(1e-4, 2),
                           prior)


def test_surrogate_map_deterministic():
    prior = GaussianPrior(mean=np.array([24.0, 6.0, 3.1]),
                          var=np.array([5.76, 0.36, 0.09]))

    def forward(m):
        xi = standardize(m, prior)
        return np.array([xi[0] + 0.1 * xi[1], xi[1] - 0.2 * xi[2], xi[2],
                         0.5 * xi[0] * xi[2]])

    s = build_surrogate("tensor", 2, forward, prior)
    data = forward(np.array([23.0, 6.2, 3.0]))
    noise = NoiseModel.iid(1e-4, 4)
    a = surrogate_map(s, _FakeObs(data), noise, prior)
    b = surrogate_map(s, _FakeObs(data), noise, prior)
    assert np.array_equal(a.m_map, b.m_map)
    assert np.array_equal(a.gamma_post, b.gamma_post)
    assert a.stats["n_starts"] == 1
    assert a.stats["n_converged_starts"] == 1


def test_estimate_pce_unknown_rule(system, prior, make_scenario):
    obs, noise, events = make_scenario(0.5, dt_obs=0.1)
    with pytest.raises(ValueError):
        estimate_pce(system, obs, noise, prior, 0.5, 0.01, events=events,
                     rule="quasi-monte-carlo")


def test_estimate_pce_small_pipeline(system, prior, make_scenario):
    obs, noise, events = make_scenario(0.5, dt_obs=0.1)
    summary, surrogate = estimate_pce(system, obs, noise, prior, 0.5, 0.01,
                                      events=events, order=2,
                                      rule="stochastic-testing",
                                      m_true=[23.64, 6.40, 3.01])
    assert summary.method == "pce"
    assert surrogate.n_forward == 10
    assert summary.stats["forward_solves"] == 10
    assert summary.stats["rule"] == "stochastic-testing"
    assert np.all(np.linalg.eigvalsh(summary.gamma_post) > 0)
    assert summary.err is not None


def test_surrogate_accuracy_against_simulator(system, prior, make_scenario):
    # the expansion must track the true observable map over prior draws
    t_f, dt = 1.0, 0.01
    obs, noise, events = make_scenario(t_f)
    _, s_interp = estimate_pce(system, obs, noise, prior, t_f, dt,
                               events=events, order=2,
                               rule="stochastic-testing")
    _, s_proj = estimate_pce(system, obs, noise, prior, t_f, dt,
                             events=events, order=2, rule="sparse")
    rng = np.random.default_rng(777)
    xi = rng.standard_normal((50, 3))
    ms = prior.mean + np.sqrt(prior.var) * xi
    num = np.zeros(2)
    den = 0.0
    for m in ms:
        traj = simulate(system, m, t_f, dt, events)
        f = observe(traj, obs.times, obs.buses, obs.coords)
        num[0] += np.sum((s_interp.evaluate(m) - f) ** 2)
        num[1] += np.sum((s_proj.evaluate(m) - f) ** 2)
        den += np.sum(f ** 2)
    rel = np.sqrt(num / den)
    assert rel[0] < 0.01
    assert rel[1] < 0.01
    # projection and interpolation agree on the shared coefficients
    diff = np.linalg.norm(s_proj.coeffs - s_interp.coeffs)
    assert diff / np.linalg.norm(s_proj.coeffs) < 0.01
