"""The Laplace posterior against the posterior it approximates.

The adjoint back end reports a MAP and a Laplace covariance Gpost.  The
posterior of the discrete model is p(m) ~ exp(-J(m)), with J the
objective that AdjointObjective.value computes.  In the frame whitened
by the Laplace posterior, m = m_map + L x with L L^T = Gpost, so

    E[g(m)] = sum_i w_i g(m_i) exp(-(J(m_i) - J(m_map)) + |x_i|^2/2)
              / sum_i w_i exp(-(J(m_i) - J(m_map)) + |x_i|^2/2)

over the nodes x_i and weights w_i of a standard-normal Gauss rule.  A
5^3 Gauss-Hermite tensor rule (pce.tensor_rule(3, 4)) is exact for a
Gaussian posterior and gives the mean and covariance with no random
numbers, at 125 forward solves.

Bounds, fixed before the first run of each horizon (1 s and 2 s): the
MAP lies within 0.25 posterior standard deviations of the quadrature
mean, and each Laplace variance within 10% of the quadrature one.  An
earlier probe of this oracle read 0.10 sd and 0.2-2.9% at 1, 2 and
5 s, and a 7^3 rule agreed with 5^3 to 1e-3 in the variances at 1 s,
so the bounds leave the Laplace error about 2.5x and 3.5x room, and the
quadrature error none to speak of.  A
MAP that stopped short, or a Hessian that lost a factor or a term of
its curvature, moves one of them well past its bound.

The pce back end's MAPs and covariances are held to the same quadrature,
which a module fixture computes once per horizon for both back ends.
"""
import numpy as np
import pytest

from gridest.bayes import AdjointObjective, estimate_adjoint
from gridest.pce import estimate_pce, tensor_rule

MAP_SD = 0.25
VARIANCE_REL = 0.10


def quadrature_posterior(objective, m_map, gamma_post):
    """Mean and covariance of exp(-J) by the 5^3 rule in the whitened frame."""
    xi, w = tensor_rule(3, 4)
    m = m_map + xi @ np.linalg.cholesky(gamma_post).T
    j_map = objective.value(m_map)
    j = np.array([objective.value(mi) for mi in m])
    weights = w * np.exp(-(j - j_map) + 0.5 * np.sum(xi ** 2, axis=1))
    weights /= weights.sum()
    mean = weights @ m
    dev = m - mean
    return mean, dev.T @ (weights[:, None] * dev)


@pytest.fixture(scope="module")
def oracle(system, prior, make_scenario):
    """Per t_f (observations every 0.05 s): the data, the adjoint summary,
    the forward solves of its quadrature and the quadrature posterior's
    mean and covariance, computed once for every test of this module."""
    cache = {}

    def get(t_f):
        if t_f not in cache:
            obs, noise, events = make_scenario(t_f)
            summary = estimate_adjoint(system, obs, noise, prior, t_f, 0.01,
                                       events)
            objective = AdjointObjective(system, obs, noise, prior, t_f,
                                         0.01, events)
            mean, cov = quadrature_posterior(objective, summary.m_map,
                                             summary.gamma_post)
            cache[t_f] = ((obs, noise, events), summary, objective.n_forward,
                          mean, cov)
        return cache[t_f]

    return get


def check_against_quadrature(summary, mean, cov, map_sd_bound,
                             variance_rel_bound):
    """summary's MAP within map_sd_bound quadrature standard deviations of
    the quadrature mean, and its variances within variance_rel_bound."""
    assert summary.stats["converged"], summary.stats["message"]
    sd = np.sqrt(np.diag(cov))
    map_sd = np.abs(summary.m_map - mean) / sd
    variance_rel = np.diag(summary.gamma_post) / np.diag(cov) - 1.0
    print(f"MAP - mean: {np.round(map_sd, 4)} sd; Laplace / quadrature "
          f"variance - 1: {np.round(variance_rel, 4)}")
    assert np.all(map_sd <= map_sd_bound)
    assert np.all(np.abs(variance_rel) <= variance_rel_bound)


def check_laplace_against_quadrature(oracle, t_f):
    """The adjoint MAP and Laplace covariance at t_f against the
    quadrature posterior, within MAP_SD and VARIANCE_REL."""
    _, summary, n_forward, mean, cov = oracle(t_f)
    assert n_forward == 126
    check_against_quadrature(summary, mean, cov, MAP_SD, VARIANCE_REL)


def test_adjoint_laplace_posterior_matches_quadrature_at_1s(oracle):
    check_laplace_against_quadrature(oracle, 1.0)


def test_adjoint_laplace_posterior_matches_quadrature_at_2s(oracle):
    # twice the steps of the 1 s case, under the same bounds
    check_laplace_against_quadrature(oracle, 2.0)


@pytest.mark.parametrize("t_f, map_sd, variance_rel",
                         [(1.0, MAP_SD, VARIANCE_REL), (2.0, 1.0, 0.30)],
                         ids=["1s", "2s"])
@pytest.mark.parametrize("rule", ["stochastic-testing", "sparse"])
def test_pce_posterior_against_quadrature(system, prior, oracle, rule, t_f,
                                          map_sd, variance_rel):
    """The order-2 surrogate posterior against the same quadrature.

    At 1 s it is held to the adjoint's bounds, 0.25 sd and 10%; an
    earlier probe read at most 0.027 sd and 5.5% (stochastic testing)
    and 0.084 sd and 5.0% (sparse).  At 2 s the bounds are 1.0 sd and
    30%, against a probe's 0.52 sd and 16.2% (stochastic testing) and
    0.76 sd and 17.9% (sparse).  The surrogate's fit over the prior
    cannot resolve the narrower posterior of the longer horizon, so the
    2 s gate does not show an honest posterior: it only stops that error,
    which grows to several sd at 5 s, from growing at 2 s unnoticed.
    """
    (obs, noise, events), _, _, mean, cov = oracle(t_f)
    summary, _ = estimate_pce(system, obs, noise, prior, t_f, 0.01, events,
                              rule=rule)
    check_against_quadrature(summary, mean, cov, map_sd, variance_rel)
