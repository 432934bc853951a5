"""Shared fixtures: the 9-bus system and cached estimation scenarios."""
from dataclasses import replace

import numpy as np
import pytest

from gridest.bayes import GaussianPrior, estimate_adjoint
from gridest.ninebus import load_system
from gridest.scenario import (DEFAULT_DISTURBANCE, DEFAULT_M_TRUE,
                              DEFAULT_PRIOR_MEAN, DEFAULT_PRIOR_VAR,
                              ScenarioConfig)

M_TRUE = np.array(DEFAULT_M_TRUE)
PRIOR_MEAN = np.array(DEFAULT_PRIOR_MEAN)
PRIOR_VAR = np.array(DEFAULT_PRIOR_VAR)
SEED = 1234


@pytest.fixture(scope="session")
def system():
    return load_system()


@pytest.fixture(scope="session")
def prior():
    return GaussianPrior(PRIOR_MEAN.copy(), PRIOR_VAR.copy())


@pytest.fixture(scope="session")
def make_scenario(system):
    """Factory returning cached (obs, noise, events) for a scenario key."""
    cache = {}

    def make(t_f, dt_obs=0.05, load=5.5, var=1e-4, seed=SEED, dt=0.01):
        key = (t_f, dt_obs, load, var, seed, dt)
        if key not in cache:
            cfg = ScenarioConfig(
                t_f=t_f, dt=dt, dt_obs=dt_obs, noise_var=var, seed=seed,
                disturbance=None if load is None else replace(
                    DEFAULT_DISTURBANCE, load=load))
            obs, noise = cfg.observations(cfg.truth(system))
            cache[key] = (obs, noise, cfg.events())
        return cache[key]

    return make


@pytest.fixture(scope="session")
def regime_summaries(system, prior, make_scenario):
    """Adjoint pipeline at the four pinned operating-regime points."""
    out = {}
    for t_f, dt_obs in ((1.0, 0.05), (1.0, 0.1), (2.0, 0.1), (5.0, 0.05)):
        obs, noise, events = make_scenario(t_f, dt_obs)
        out[(t_f, dt_obs)] = estimate_adjoint(
            system, obs, noise, prior, t_f, 0.01, events, m_true=M_TRUE)
    return out
