"""Posterior calibration over noise seeds at the paper's fixed truth.

For an honest Laplace posterior, z_i = (m_map,i - m_true,i)/sqrt(Gpost_ii)
is close to standard normal over noise realizations, so z_i^2 is a
chi-square draw with one degree of freedom: mean 1, variance 2.  Cook,
Gelman & Rubin (J. Comput. Graph. Stat. 15, 2006) validate Bayesian
software by this kind of calibration over simulated data sets.  Over N
independent noise seeds the mean of z_i^2 has mean 1 and standard
deviation sqrt(2/N), so each case bounds it, per parameter, by

    |mean z_i^2 - 1| <= 4 sqrt(2/N),

four standard deviations: 0.894 at N = 40 and 1.265 at N = 20.  The
chi-square tail above the band is 5e-4 at N = 40 and 1e-3 at N = 20
per parameter.  The prior shrinks z a little and the model is not
linear, both of which move the mean off 1; the band leaves room for
that.  An over-confident posterior
(variances too small) pushes the mean above the band, an under-confident
one below it.

The seeds, N and the bound were fixed before any case was run.  Data:
ScenarioConfig's defaults at each case's horizon and cadence (truth
[23.64, 6.40, 3.01], the packaged prior, a 5.5 pu load step at bus 5 on
[0.1, 0.3), noise variance 1e-4, dt = 0.01), one truth trajectory per
case and one noise draw per seed.  A surrogate does
not depend on the data, so each PCE case builds one and runs the
surrogate MAP once per seed.
"""
from dataclasses import replace

import numpy as np
import pytest
from conftest import M_TRUE

from gridest.bayes import estimate_adjoint
from gridest.integrator import simulate
from gridest.observation import observe
from gridest.pce import build_surrogate, surrogate_map
from gridest.scenario import ScenarioConfig

PCE_SEEDS = range(10000, 10040)        # N = 40
ADJOINT_SEEDS = range(10000, 10020)    # N = 20


def _data_sets(system, t_f, dt_obs, seeds):
    """(obs, noise) per seed, all from one truth trajectory."""
    cfg = ScenarioConfig(t_f=t_f, dt_obs=dt_obs)
    truth = cfg.truth(system)
    return [replace(cfg, seed=seed).observations(truth) for seed in seeds]


def _assert_calibrated(label, summaries):
    for s in summaries:
        assert s.stats["converged"], s.stats["message"]
    z = np.array([(s.m_map - M_TRUE) / np.sqrt(np.diag(s.gamma_post))
                  for s in summaries])
    mean_z2 = np.mean(z ** 2, axis=0)
    bound = 4.0 * np.sqrt(2.0 / len(z))
    print(f"{label}: N = {len(z)}, mean z^2 = {np.round(mean_z2, 3)}, "
          f"bound |mean z^2 - 1| <= {bound:.3f}")
    assert np.all(np.abs(mean_z2 - 1.0) <= bound), mean_z2


def _check_pce(system, prior, rule, t_f, dt_obs):
    cfg = ScenarioConfig(t_f=t_f, dt_obs=dt_obs)
    times = cfg.times()

    def forward(m):
        return observe(simulate(system, m, t_f, cfg.dt, cfg.events()), times)

    surrogate = build_surrogate(rule, 2, forward, prior)
    summaries = [surrogate_map(surrogate, obs, noise, prior)
                 for obs, noise in _data_sets(system, t_f, dt_obs, PCE_SEEDS)]
    _assert_calibrated(f"PCE {rule} at {t_f} s", summaries)


@pytest.mark.parametrize("t_f, dt_obs", [(1.0, 0.05), (2.0, 0.1)])
@pytest.mark.parametrize("rule", ["stochastic-testing", "sparse"])
def test_pce_posterior_calibrated(system, prior, rule, t_f, dt_obs):
    _check_pce(system, prior, rule, t_f, dt_obs)


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND line: the order-2 PCE posterior is over-confident "
    "on the paper's 5 s scenario"))
def test_pce_posterior_calibrated_at_5s(system, prior):
    _check_pce(system, prior, "stochastic-testing", 5.0, 0.05)


def test_adjoint_posterior_calibrated(system, prior):
    cfg = ScenarioConfig(t_f=1.0, dt_obs=0.05)
    summaries = [estimate_adjoint(system, obs, noise, prior, 1.0, cfg.dt,
                                  cfg.events())
                 for obs, noise in _data_sets(system, 1.0, 0.05, ADJOINT_SEEDS)]
    _assert_calibrated("adjoint at 1.0 s", summaries)
