"""Shared fixtures: the 9-bus system and cached estimation scenarios."""
import numpy as np
import pytest

from gridest.bayes import GaussianPrior, estimate_adjoint
from gridest.integrator import simulate
from gridest.ninebus import N_BUS, DisturbanceEvent, load_system
from gridest.observation import (NoiseModel, observation_times,
                                 synthesize_observations)

M_TRUE = np.array([23.64, 6.40, 3.01])
PRIOR_MEAN = np.array([24.0, 6.0, 3.1])
PRIOR_VAR = np.array([5.76, 0.36, 0.09])
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
            events = () if load is None else (
                DisturbanceEvent(bus=5, start=0.1, duration=0.2, load=load),)
            times = observation_times(t_f, dt_obs)
            traj = simulate(system, M_TRUE, t_f, dt, events=events)
            noise = NoiseModel.iid(var, 2 * N_BUS * len(times))
            obs = synthesize_observations(traj, times, noise, seed)
            cache[key] = (obs, noise, events)
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
