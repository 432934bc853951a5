"""MAP + Laplace pipeline against the conjugate-Gaussian closed form."""
import json

import numpy as np
import pytest
from conftest import M_TRUE
from hypothesis import given, settings
from hypothesis import strategies as st
from least_squares import SHIFT, LeastSquares, shifted_linear

import gridest.bayes
import gridest.integrator
import gridest.pce
from gridest.bayes import (FD_REL_STEP, AdjointObjective, GaussianPrior,
                           PosteriorSummary, estimate_adjoint,
                           laplace_covariance, map_estimate, metrics,
                           neg_log_posterior)
from gridest.lbfgs import DECREMENT_TOL, H_LOWER_BOUND
from gridest.ninebus import DisturbanceEvent
from gridest.observation import NoiseModel, ObservationSet, write_json
from gridest.pce import estimate_pce


def _linear_gaussian(a, d, noise_var, prior):
    """Closed-form posterior of J = misfit(Am - d) + prior."""
    gn_inv = 1.0 / noise_var
    h = a.T @ (gn_inv[:, None] * a) + np.diag(1.0 / prior.var)
    cov = np.linalg.inv(h)
    m_post = prior.mean + cov @ (a.T @ (gn_inv * (d - a @ prior.mean)))
    return m_post, cov


def _fixed_case():
    a = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]])
    d = np.array([3.1, 4.2])
    noise_var = np.array([0.1, 0.2])
    prior = GaussianPrior(mean=np.array([1.0, 1.0, 1.0]),
                          var=np.array([1.0, 2.0, 0.5]))
    return a, d, noise_var, prior


def test_conjugate_gaussian_fixed_case():
    a, d, noise_var, prior = _fixed_case()
    m_post, cov = _linear_gaussian(a, d, noise_var, prior)
    assert np.all(m_post > 0.15)  # keep clear of the physical lower bound

    objective = LeastSquares.linear(a, d, noise_var, prior)
    res = map_estimate(objective, prior.mean.copy())
    gpost, hess = laplace_covariance(res.x, objective.gradient,
                                     objective.gradient(res.x))
    assert res.converged
    assert np.allclose(res.x, m_post, atol=1e-9)
    # on a quadratic one full Gauss-Newton step is exact
    assert res.iterations == 1 and res.n_evals == 2
    assert res.history[1]["step"] == 1.0

    assert np.allclose(gpost, cov, rtol=1e-8)
    assert np.allclose(hess, np.linalg.inv(cov), rtol=1e-8)


def test_failed_trial_solve_is_backtracked():
    # a trial whose forward solve fails counts as no decrease: the step is
    # halved, not the estimate abandoned
    a, d, noise_var, prior = _fixed_case()
    m_post, _ = _linear_gaussian(a, d, noise_var, prior)
    objective = LeastSquares.linear(a, d, noise_var, prior, fail_trials=1)
    res = map_estimate(objective, prior.mean.copy())
    assert res.history[1]["step"] == 0.5
    assert res.converged
    assert np.allclose(res.x, m_post, atol=1e-9)


def test_gauss_newton_stays_above_the_lower_bound():
    # the unconstrained posterior mean has m_1 < H_LOWER_BOUND; the MAP
    # rests on the bound with the gradient pointing out of the box
    a = np.array([[1.0, 0.5], [0.3, 1.0], [1.0, 1.0]])
    d = np.array([-1.0, 2.0, 1.0])
    noise_var = np.full(3, 0.1)
    prior = GaussianPrior(mean=np.array([1.0, 1.0]), var=np.array([1.0, 1.0]))
    m_free, _ = _linear_gaussian(a, d, noise_var, prior)
    assert m_free[0] < H_LOWER_BOUND

    objective = LeastSquares.linear(a, d, noise_var, prior)
    res = map_estimate(objective, prior.mean.copy())
    assert res.converged
    assert min(float(np.min(m)) for m in objective.points) >= H_LOWER_BOUND
    assert res.x[0] == H_LOWER_BOUND
    # closed form with m_1 held: H_22 m_2 = b_2 - H_21 m_1
    h = objective.gauss_newton(res.x)
    b = a.T @ (d / noise_var) + prior.mean / prior.var
    m_2 = (b[1] - h[1, 0] * H_LOWER_BOUND) / h[1, 1]
    assert res.x[1] == pytest.approx(m_2, rel=1e-10)
    assert objective.gradient(res.x)[0] > 0.0


def test_conjugate_gaussian_random_cases():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n_obs, n_par = rng.integers(2, 6), rng.integers(2, 5)
        a = rng.normal(size=(n_obs, n_par))
        noise_var = rng.uniform(0.05, 0.5, n_obs)
        prior = GaussianPrior(mean=rng.uniform(-1, 1, n_par),
                              var=rng.uniform(0.2, 2.0, n_par))
        d = a @ rng.uniform(-1, 1, n_par) + rng.normal(size=n_obs) * 0.1
        m_post, cov = _linear_gaussian(a, d, noise_var, prior)

        # the prior means in [-1, 1] lie below the driver's lower bound
        assert np.all(m_post + SHIFT > 0.15)
        objective = shifted_linear(a, d, noise_var, prior)
        res = map_estimate(objective, objective.prior.mean.copy())
        assert res.iterations == 1
        assert np.max(np.abs(res.x - SHIFT - m_post)) < 1e-6
        gpost, _ = laplace_covariance(res.x, objective.gradient,
                                      objective.gradient(res.x))
        assert res.converged
        assert np.allclose(gpost, cov, rtol=1e-6, atol=1e-12)


def test_laplace_gradient_calls():
    # one call per parameter, each a step of FD_REL_STEP |m_j| along
    # axis j; the gradient at m_map is handed in
    b = np.array([[2.0, 0.5, 0.1], [0.5, 3.0, 0.2], [0.1, 0.2, 4.0]])
    m = np.array([24.0, 6.0, 3.1])
    points = []

    def grad(x):
        points.append(x.copy())
        return b @ (x - 1.0)

    _, hess = laplace_covariance(m, grad, b @ (m - 1.0))
    assert len(points) == 3
    for j, x in enumerate(points):
        step = x - m
        assert np.flatnonzero(step).tolist() == [j]
        assert step[j] == pytest.approx(FD_REL_STEP * m[j], rel=1e-6)
    assert np.allclose(hess, b, rtol=1e-7)


def test_laplace_rejects_asymmetric_gradient():
    b = np.array([[1.0, 0.9], [0.1, 2.0]])  # clearly non-symmetric
    m = np.array([1.0, 1.0])
    with pytest.raises(RuntimeError, match="asymmetry"):
        laplace_covariance(m, lambda x: b @ x, b @ m)


def test_laplace_rejects_indefinite_hessian():
    with pytest.raises(RuntimeError, match="positive definite"):
        laplace_covariance(np.array([1.0, 1.0]), lambda x: -x,
                           np.array([-1.0, -1.0]))


def test_metrics_oracles():
    mt = np.array([23.64, 6.40, 3.01])
    gpost = np.diag((0.01 * mt) ** 2)

    err, tau, cns = metrics(mt, gpost, mt)
    assert err == 0.0
    assert np.allclose(cns, 0.5)
    assert tau == pytest.approx(0.01 * np.sqrt(3.0), rel=1e-12)

    err, _, _ = metrics(1.01 * mt, gpost, mt)
    assert err == pytest.approx(0.01, rel=1e-12)

    # frozen spot value
    err, _, _ = metrics(np.array([23.60, 6.35, 3.02]), gpost, mt)
    assert err == pytest.approx(0.0049978524169643134, rel=1e-12)

    # one posterior std above truth lands at Phi(1)
    m = mt + 0.01 * mt
    _, _, cns = metrics(m, gpost, mt)
    assert np.allclose(cns, 0.8413447460685429, rtol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(0.1, 50.0))
def test_metrics_scale_invariance(c):
    mt = np.array([23.64, 6.40, 3.01])
    m = np.array([23.0, 6.7, 2.9])
    gpost = np.diag([0.5, 0.02, 0.01])
    base = metrics(m, gpost, mt)
    scaled = metrics(c * m, c ** 2 * gpost, c * mt)
    assert scaled[0] == pytest.approx(base[0], rel=1e-9)
    assert scaled[1] == pytest.approx(base[1], rel=1e-9)
    assert np.allclose(scaled[2], base[2], rtol=1e-9)


def test_gaussian_prior_validation():
    with pytest.raises(ValueError):
        GaussianPrior(mean=np.zeros(3), var=np.ones(2))
    with pytest.raises(ValueError):
        GaussianPrior(mean=np.zeros(2), var=np.array([1.0, 0.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="variances must be positive "
                                             "and finite"):
            GaussianPrior(mean=np.zeros(2), var=np.array([1.0, bad]))
        with pytest.raises(ValueError, match="mean must be finite"):
            GaussianPrior(mean=np.array([bad, 0.0]), var=np.ones(2))
    prior = GaussianPrior(mean=np.array([1.0, 2.0]), var=np.array([4.0, 1.0]))
    assert prior.neg_log(np.array([3.0, 3.0])) == pytest.approx(
        0.5 * (4.0 / 4.0 + 1.0), rel=1e-14)


def test_posterior_summary_serialization(tmp_path):
    gpost = np.array([[0.04, 0.001], [0.001, 0.01]])
    s = PosteriorSummary(m_map=np.array([1.5, 2.5]), gamma_post=gpost,
                         method="adjoint", stats={"iterations": 3})
    doc = s.to_dict()
    assert doc["posterior_std"] == pytest.approx([0.2, 0.1])
    assert doc["trace_gamma_post"] == pytest.approx(0.05)
    assert "m_true" not in doc

    s.m_true = np.array([1.4, 2.6])
    s.err, s.tau, s.cns = metrics(s.m_map, gpost, s.m_true)
    path = tmp_path / "summary.json"
    write_json(path, s.to_dict())
    back = json.loads(path.read_text())
    assert back["m_map"] == [1.5, 2.5]
    assert back["metrics"]["err"] == pytest.approx(s.err)
    # deterministic bytes
    write_json(tmp_path / "b.json", s.to_dict())
    assert (tmp_path / "b.json").read_bytes() == path.read_bytes()


def test_neg_log_posterior_consistency(system, prior, make_scenario):
    obs, noise, events = make_scenario(0.5, dt_obs=0.1)
    j = neg_log_posterior(system, prior.mean, obs, noise, prior, 0.5, 0.01,
                          events)
    from gridest.adjoint import misfit
    from gridest.integrator import simulate
    traj = simulate(system, prior.mean, 0.5, 0.01, events)
    assert j == pytest.approx(misfit(traj, obs, noise), rel=1e-12)


def test_objective_value_depends_on_m_alone(system, prior, make_scenario):
    # every forward solve is cold, so a linearization at another point
    # leaves J(m) bit for bit where neg_log_posterior puts it
    obs, noise, events = make_scenario(0.5, dt_obs=0.1)
    objective = AdjointObjective(system, obs, noise, prior, 0.5, 0.01,
                                 events)
    m = prior.mean * np.array([0.95, 1.05, 1.1])
    j = neg_log_posterior(system, m, obs, noise, prior, 0.5, 0.01, events)
    assert objective.value(m) == j
    objective.linearize(prior.mean)
    assert objective.value(m) == j


def test_estimate_adjoint_small_scenario(system, prior, make_scenario):
    obs, noise, events = make_scenario(0.5, dt_obs=0.1)
    summary = estimate_adjoint(system, obs, noise, prior, 0.5, 0.01,
                               events=events, m_true=M_TRUE)
    st = summary.stats
    assert st["converged"]
    # the MAP: a forward solve per point tried and a tangent-linear pass
    # per iterate; the Laplace step: one adjoint sweep along the last
    # iterate's trajectory, no forward solve or tangent-linear pass
    assert st["forward_solves"] == st["n_evals"]
    assert st["tangent_solves"] == st["iterations"] + 1
    assert st["adjoint_solves"] == 1
    assert summary.m_map.shape == (3,)
    assert np.all(summary.m_map > 0)
    eig = np.linalg.eigvalsh(summary.gamma_post)
    assert np.all(eig > 0)
    assert summary.err is not None and summary.err < 0.2
    assert 0.0 < summary.tau < 1.0
    assert np.all((summary.cns > 0) & (summary.cns < 1))


def test_estimate_adjoint_reports_newton_iterations(system, prior,
                                                    make_scenario):
    obs, noise, events = make_scenario(0.5, dt_obs=0.1)
    counts = [estimate_adjoint(system, obs, noise, prior, 0.5, 0.01,
                               events=events).stats["newton_iters"]
              for _ in range(2)]
    assert counts[0] > 0
    assert counts[1] == counts[0]


@pytest.mark.parametrize("method", ["adjoint", "pce"])
def test_estimates_report_newton_factorizations(system, prior, make_scenario,
                                                monkeypatch, method):
    # the stats key sums the LUs of every forward solve's Newton steps
    # and projections: the integrator's lu_factor calls (the
    # sensitivity passes factor through gridest.adjoint's own name)
    obs, noise, events = make_scenario(0.5, dt_obs=0.1)
    factor, calls = gridest.integrator.lu_factor, []

    def counted(*args):
        calls.append(args[1])
        return factor(*args)

    monkeypatch.setattr(gridest.integrator, "lu_factor", counted)
    args = (system, obs, noise, prior, 0.5, 0.01, events)
    summary = (estimate_adjoint(*args) if method == "adjoint"
               else estimate_pce(*args)[0])
    assert "algebraic re-solve" in calls
    assert summary.stats["newton_factorizations"] == len(calls)
    assert 0 < len(calls) < summary.stats["newton_iters"]


@pytest.mark.parametrize("times, n_var, message", [
    ((0.1, 0.5), 4, "observation time 0.5 is past the end of the trajectory "
                    "at t=0.3"),
    ((0.1, 0.105), 4, "observation time 0.105 is not a multiple of dt=0.01"),
    ((0.1, 0.2), 3, "3 noise variances for 4 observations"),
], ids=["past-t_f", "off-grid", "noise-length"])
@pytest.mark.parametrize("module, estimate", [(gridest.bayes, estimate_adjoint),
                                              (gridest.pce, estimate_pce)],
                         ids=["adjoint", "pce"])
def test_estimators_check_the_data_before_any_solve(
        system, prior, monkeypatch, module, estimate, times, n_var, message):
    solves = []
    monkeypatch.setattr(module, "simulate",
                        lambda *args, **kw: solves.append(args))
    obs = ObservationSet(times=times, buses=[0], values=np.zeros(4))
    with pytest.raises(ValueError, match=message):
        estimate(system, obs, NoiseModel.iid(1e-4, n_var), prior, 0.3, 0.01)
    assert solves == []


DRIVER_KEYS = {"iterations", "n_evals", "converged", "message",
               "final_grad_norm", "objective", "history"}
SOLVE_KEYS = {"forward_solves", "tangent_solves", "adjoint_solves",
              "newton_iters", "newton_factorizations"}


@pytest.mark.parametrize("method", ["adjoint", "pce"])
def test_stats_hold_one_solve_record(system, prior, make_scenario, method):
    # the MAP driver's keys and the solve record; pce adds its rule and
    # order, and the two start counts that the benchmark reads
    obs, noise, events = make_scenario(0.5, dt_obs=0.1)
    args = (system, obs, noise, prior, 0.5, 0.01, events)
    if method == "adjoint":
        extra = set()
        summary = estimate_adjoint(*args)
    else:
        extra = {"rule", "order", "n_starts", "n_converged_starts"}
        summary = estimate_pce(*args)[0]
        assert summary.stats["tangent_solves"] == 0
        assert summary.stats["adjoint_solves"] == 0
    assert set(summary.stats) == DRIVER_KEYS | SOLVE_KEYS | extra


@pytest.mark.parametrize("t_f, load", [(1.0, 7.0), (1.5, 5.5)])
def test_estimate_adjoint_converges_by_the_decrement(system, prior,
                                                     make_scenario, t_f, load):
    # both stop at the first iterate whose Newton decrement is at most
    # DECREMENT_TOL, within a few evaluations
    obs, noise, events = make_scenario(t_f, 0.1, load=load)
    summary = estimate_adjoint(system, obs, noise, prior, t_f, 0.01,
                               events=events)
    st = summary.stats
    assert st["converged"]
    assert st["message"] == "Newton decrement below tolerance"
    decrements = [rec["decrement"] for rec in st["history"]]
    assert all(d > DECREMENT_TOL for d in decrements[:-1])
    assert decrements[-1] <= DECREMENT_TOL
    assert st["n_evals"] <= 15


def test_map_forward_solves_at_regime_points(regime_summaries):
    # Gauss-Newton reaches each criterion-4 regime MAP in a few iterates:
    # the decrement stops it after 4, 4, 4 and 5 forward solves
    for summary in regime_summaries.values():
        st = summary.stats
        assert st["converged"]
        assert st["forward_solves"] <= 5
