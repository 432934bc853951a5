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
"""
import numpy as np

from gridest.bayes import AdjointObjective, estimate_adjoint
from gridest.pce import tensor_rule

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


def check_laplace_against_quadrature(system, prior, make_scenario, t_f):
    """The adjoint MAP and Laplace covariance at t_f (observations every
    0.05 s) against the quadrature posterior, within MAP_SD and
    VARIANCE_REL."""
    obs, noise, events = make_scenario(t_f)
    summary = estimate_adjoint(system, obs, noise, prior, t_f, 0.01, events)
    assert summary.stats["converged"], summary.stats["message"]
    objective = AdjointObjective(system, obs, noise, prior, t_f, 0.01, events)
    mean, cov = quadrature_posterior(objective, summary.m_map,
                                     summary.gamma_post)
    assert objective.n_forward == 126
    sd = np.sqrt(np.diag(cov))
    map_sd = np.abs(summary.m_map - mean) / sd
    variance_rel = np.diag(summary.gamma_post) / np.diag(cov) - 1.0
    print(f"MAP - mean: {np.round(map_sd, 4)} sd; Laplace / quadrature "
          f"variance - 1: {np.round(variance_rel, 4)}")
    assert np.all(map_sd <= MAP_SD)
    assert np.all(np.abs(variance_rel) <= VARIANCE_REL)


def test_adjoint_laplace_posterior_matches_quadrature_at_1s(system, prior,
                                                            make_scenario):
    check_laplace_against_quadrature(system, prior, make_scenario, 1.0)


def test_adjoint_laplace_posterior_matches_quadrature_at_2s(system, prior,
                                                            make_scenario):
    # twice the steps of the 1 s case, under the same bounds
    check_laplace_against_quadrature(system, prior, make_scenario, 2.0)
