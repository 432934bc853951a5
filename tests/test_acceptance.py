"""End-to-end acceptance battery for the estimation pipelines.

One test per shipping criterion, each printing a single summary line
(visible under pytest -v -s or on failure).  Scenario constants follow
the packaged defaults: truth [23.64, 6.40, 3.01], prior N([24, 6, 3.1],
diag(5.76, 0.36, 0.09)), disturbance 5.5 pu at bus 5 on [0.1, 0.3),
noise variance 1e-4, seed 1234.
"""
import numpy as np
from least_squares import SHIFT, shifted_linear

from gridest.bayes import GaussianPrior, estimate_adjoint, laplace_covariance
from gridest.integrator import simulate
from gridest.lbfgs import minimize
from gridest.ninebus import DisturbanceEvent
from gridest.pce import estimate_pce, sparse_rule

M_TRUE = np.array([23.64, 6.40, 3.01])
PRIOR_MEAN = np.array([24.0, 6.0, 3.1])
EVENTS = (DisturbanceEvent(bus=5, start=0.1, duration=0.2, load=5.5),)


def test_criterion_01_adjoint_gradient_matches_finite_differences(
        system, prior, make_scenario):
    # componentwise relative agreement at the prior mean and at 10
    # random points within +-20% of it (t_f=1, dt=0.01, dt_obs=0.05)
    from gridest.bayes import AdjointObjective

    obs, noise, events = make_scenario(1.0)
    objective = AdjointObjective(system, obs, noise, prior, 1.0, 0.01, events)
    rng = np.random.default_rng(1)
    points = [np.asarray(PRIOR_MEAN, float)]
    points += [points[0] * (1.0 + 0.2 * rng.uniform(-1, 1, 3))
               for _ in range(10)]
    worst = 0.0
    for m in points:
        g_adj = objective.gradient(m)
        for j in range(3):
            h = 1e-6 * abs(m[j])
            e = np.zeros(3)
            e[j] = h
            fd = (objective.value(m + e) - objective.value(m - e)) / (2 * h)
            rel = abs(g_adj[j] - fd) / max(abs(fd), 1e-30)
            worst = max(worst, rel)
    print(f"criterion 1: worst componentwise rel error {worst:.3e} "
          f"(tol 1e-5) -> {'PASS' if worst <= 1e-5 else 'FAIL'}")
    assert worst <= 1e-5


def test_criterion_02_integrator_second_order(system):
    # global error slope against a dt=1e-4 reference on the transient
    m = np.asarray(M_TRUE, float)
    ref = simulate(system, m, 1.0, 1e-4, events=EVENTS)
    ref_final = ref.states[-1, :21]
    dts = np.array([0.02, 0.01, 0.005])
    errs = []
    for dt in dts:
        traj = simulate(system, m, 1.0, dt, events=EVENTS)
        errs.append(np.linalg.norm(traj.states[-1, :21] - ref_final))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    print(f"criterion 2: observed convergence slope {slope:.3f} "
          f"(target 2.0 +- 0.2) -> "
          f"{'PASS' if 1.8 <= slope <= 2.2 else 'FAIL'}")
    assert 1.8 <= slope <= 2.2


def test_criterion_03_conjugate_gaussian_oracle():
    # Laplace covariance equals the closed-form Gaussian posterior
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(20):
        n_obs, n_par = rng.integers(2, 7), rng.integers(2, 5)
        a = rng.normal(size=(n_obs, n_par))
        noise_var = rng.uniform(0.05, 0.5, n_obs)
        prior = GaussianPrior(mean=rng.uniform(-1, 1, n_par),
                              var=rng.uniform(0.2, 2.0, n_par))
        d = rng.normal(size=n_obs)
        h_exact = a.T @ (a / noise_var[:, None]) + np.diag(1.0 / prior.var)
        cov_exact = np.linalg.inv(h_exact)
        m_post = prior.mean + cov_exact @ (a.T @ ((d - a @ prior.mean)
                                                  / noise_var))

        # translated by SHIFT, so that the prior means in [-1, 1] lie
        # above the MAP driver's lower bound
        objective = shifted_linear(a, d, noise_var, prior)
        res = minimize(objective, objective.prior.mean.copy(), tol=1e-10,
                       max_iter=200)
        assert np.max(np.abs(res.x - SHIFT - m_post)) < 1e-6
        gpost, _ = laplace_covariance(res.x, objective.gradient,
                                      objective.gradient(res.x))
        rel = np.linalg.norm(gpost - cov_exact) / np.linalg.norm(cov_exact)
        worst = max(worst, rel)
    print(f"criterion 3: worst covariance rel error {worst:.3e} "
          f"(tol 1e-6) -> {'PASS' if worst <= 1e-6 else 'FAIL'}")
    assert worst <= 1e-6


def test_criterion_04_regime_metrics(regime_summaries):
    # Err <= 0.02, tau in [0.005, 0.10], CNS in (0.005, 0.995) across
    # the long-window/coarse-sampling regime
    ok = True
    for (t_f, dt_obs), summary in regime_summaries.items():
        ok &= summary.err <= 0.02
        ok &= 0.005 <= summary.tau <= 0.10
        ok &= bool(np.all((summary.cns >= 0.005) & (summary.cns <= 0.995)))
    detail = ", ".join(
        f"(t_f={t_f}, dt_obs={dt_obs}): Err={s.err:.2e} tau={s.tau:.2e}"
        for (t_f, dt_obs), s in regime_summaries.items())
    print(f"criterion 4: {detail} -> {'PASS' if ok else 'FAIL'}")
    for summary in regime_summaries.values():
        assert summary.err <= 0.02
        assert 0.005 <= summary.tau <= 0.10
        assert np.all((summary.cns >= 0.005) & (summary.cns <= 0.995))


def test_criterion_05_backend_agreement(system, prior, make_scenario,
                                        regime_summaries):
    # adjoint vs order-2 stochastic-testing surrogate on the same data
    adj = regime_summaries[(1.0, 0.05)]
    obs, noise, events = make_scenario(1.0)
    pce, _ = estimate_pce(system, obs, noise, prior, 1.0, 0.01,
                          events=events, order=2, rule="stochastic-testing",
                          m_true=M_TRUE)
    rel = np.abs(pce.m_map - adj.m_map) / np.abs(adj.m_map)
    dtau = abs(pce.tau - adj.tau) / adj.tau
    ok = np.all(rel <= 0.01) and dtau <= 0.25
    print(f"criterion 5: MAP rel diff {np.max(rel):.2e} (tol 1e-2), "
          f"tau rel diff {dtau:.2e} (tol 0.25) -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert np.all(rel <= 0.01)
    assert dtau <= 0.25


def test_criterion_06_sample_counts(system, prior, make_scenario):
    # forward-simulation budgets are exactly the advertised node counts
    obs, noise, events = make_scenario(1.0)
    st_counts, tensor_counts, sparse_counts = [], [], []
    for order in (1, 2, 3):
        _, s = estimate_pce(system, obs, noise, prior, 1.0, 0.01,
                            events=events, order=order,
                            rule="stochastic-testing")
        st_counts.append(s.n_forward)
        _, s = estimate_pce(system, obs, noise, prior, 1.0, 0.01,
                            events=events, order=order, rule="tensor")
        tensor_counts.append(s.n_forward)
        sparse_counts.append(len(sparse_rule(3, order + 1)[0]))
    _, s_sparse1 = estimate_pce(system, obs, noise, prior, 1.0, 0.01,
                                events=events, order=1, rule="sparse")
    ok = (st_counts == [4, 10, 20] and tensor_counts == [8, 27, 64]
          and s_sparse1.n_forward == 7
          and all(sp < tn for sp, tn in zip(sparse_counts, tensor_counts)))
    print(f"criterion 6: stochastic-testing {st_counts} (want [4, 10, 20]), "
          f"tensor {tensor_counts} (want [8, 27, 64]), "
          f"sparse {sparse_counts} each below tensor, lowest built with "
          f"{s_sparse1.n_forward} -> {'PASS' if ok else 'FAIL'}")
    assert st_counts == [4, 10, 20]
    assert tensor_counts == [8, 27, 64]
    assert s_sparse1.n_forward == 7
    assert all(sp < tn for sp, tn in zip(sparse_counts, tensor_counts))


def test_criterion_07_order_study(system, prior, make_scenario):
    # on the default (t_f=5) scenario: order 1 is strictly worse than
    # order 2, and order 3 over order 2 is a < 20% change for the
    # projection path (the interpolation path keeps improving on this
    # realization; its per-order errors are printed for the record)
    obs, noise, events = make_scenario(5.0)

    def err_vs_truth(rule, order):
        summary, _ = estimate_pce(system, obs, noise, prior, 5.0, 0.01,
                                  events=events, order=order, rule=rule,
                                  m_true=M_TRUE)
        return np.linalg.norm(summary.m_map - M_TRUE)

    sparse_errs = [err_vs_truth("sparse", p) for p in (1, 2, 3)]
    st_errs = [err_vs_truth("stochastic-testing", p) for p in (1, 2, 3)]
    improvement = (sparse_errs[1] - sparse_errs[2]) / sparse_errs[1]
    ok = (st_errs[0] > st_errs[1] and sparse_errs[0] > sparse_errs[1]
          and improvement < 0.20)
    print(f"criterion 7: sparse ||m-mt|| by order {np.round(sparse_errs, 4)}"
          f" (order-3 change {improvement:+.1%}, tol < 20%), "
          f"stochastic-testing {np.round(st_errs, 4)} -> "
          f"{'PASS' if ok else 'FAIL'}")
    assert st_errs[0] > st_errs[1]
    assert sparse_errs[0] > sparse_errs[1]
    assert improvement < 0.20


def test_criterion_08_unobservable_without_disturbance(system, prior,
                                                       make_scenario):
    # flat data: the posterior must return the prior
    obs, noise, events = make_scenario(1.0, load=None)
    assert events == ()
    summary = estimate_adjoint(system, obs, noise, prior, 1.0, 0.01,
                               events=(), m_true=M_TRUE)
    rel = np.abs(summary.m_map - prior.mean) / prior.mean
    diag = np.diag(summary.gamma_post)
    ddiag = np.abs(diag - prior.var) / prior.var
    ok = np.all(rel <= 1e-3) and np.all(ddiag <= 0.10)
    print(f"criterion 8: MAP rel drift {np.max(rel):.2e} (tol 1e-3), "
          f"posterior/prior variance drift {np.max(ddiag):.2e} (tol 0.10) "
          f"-> {'PASS' if ok else 'FAIL'}")
    assert np.all(rel <= 1e-3)
    assert np.all(ddiag <= 0.10)


def test_criterion_09_uncertainty_trends(system, prior, make_scenario):
    # information grows with disturbance size and shrinks with noise.
    # On the load axis the normalized posterior spread tau (which the
    # reported uncertainty surfaces use) is the monotone quantity: the
    # relative metric is dominated by the smallest machine, whose
    # information keeps growing, while the raw trace mixes scales and
    # is not monotone over long windows.  The raw trace is monotone on
    # the noise axis at every load.
    loads = (4.25, 5.5, 7.0)
    noise_vars = (1e-4, 1e-2)
    t_f, dt_obs = 2.0, 0.1
    results = {}
    for nv in noise_vars:
        for load in loads:
            obs, noise, events = make_scenario(t_f, dt_obs=dt_obs,
                                               load=load, var=nv)
            s = estimate_adjoint(system, obs, noise, prior, t_f, 0.01,
                                 events=events, m_true=M_TRUE)
            results[(load, nv)] = s

    ok = True
    for nv in noise_vars:
        taus = [results[(load, nv)].tau for load in loads]
        ok &= taus[0] >= taus[1] >= taus[2]
    for load in loads:
        traces = [float(np.trace(results[(load, nv)].gamma_post))
                  for nv in noise_vars]
        ok &= traces[0] <= traces[1]
    tau_lines = {nv: [round(results[(load, nv)].tau, 5) for load in loads]
                 for nv in noise_vars}
    print(f"criterion 9: tau by load {tau_lines} non-increasing; "
          f"trace non-decreasing in noise at fixed load -> "
          f"{'PASS' if ok else 'FAIL'}")
    for nv in noise_vars:
        taus = [results[(load, nv)].tau for load in loads]
        assert taus[0] >= taus[1] >= taus[2]
    for load in loads:
        traces = [float(np.trace(results[(load, nv)].gamma_post))
                  for nv in noise_vars]
        assert traces[0] <= traces[1]


def test_criterion_10_cost_envelope(system, prior, make_scenario,
                                    regime_summaries):
    # optimizer budget on every regime scenario, and the order-2
    # interpolation pipeline within its 15-simulation envelope
    ok = True
    worst_it, worst_solves = 0, 0
    for summary in regime_summaries.values():
        st = summary.stats
        # the Laplace step's three tangent-linear passes count too
        solves = st["forward_solves"] + st["tangent_solves"]
        worst_it = max(worst_it, st["iterations"])
        worst_solves = max(worst_solves, solves)
        ok &= st["iterations"] <= 50 and solves <= 60 and st["converged"]
    obs, noise, events = make_scenario(1.0)
    _, surrogate = estimate_pce(system, obs, noise, prior, 1.0, 0.01,
                                events=events, order=2,
                                rule="stochastic-testing")
    ok &= surrogate.n_forward <= 15
    print(f"criterion 10: worst MAP iterations {worst_it} (tol 50), worst "
          f"forward+tangent solves {worst_solves} (tol 60), "
          f"surrogate sims {surrogate.n_forward} (tol 15) -> "
          f"{'PASS' if ok else 'FAIL'}")
    for summary in regime_summaries.values():
        st = summary.stats
        assert st["converged"]
        assert st["iterations"] <= 50
        assert st["forward_solves"] + st["tangent_solves"] <= 60
    assert surrogate.n_forward <= 15
