"""Scenario configuration: one experiment = one config.

A scenario bundles everything needed to reproduce an estimation run:
time grid, disturbance, noise level, prior, ground truth, seed, and the
estimation method.  Configs round-trip through YAML and the CLI can
override individual fields with flags.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
import yaml

from .bayes import GaussianPrior
from .integrator import grid_nodes
from .lbfgs import H_LOWER_BOUND
from .ninebus import DisturbanceEvent
from .observation import NoiseModel, observation_times
from .pce import PCE_RULES

METHODS = ("adjoint", "pce")

DEFAULT_PRIOR_MEAN = (24.0, 6.0, 3.1)
DEFAULT_PRIOR_VAR = (5.76, 0.36, 0.09)
DEFAULT_M_TRUE = (23.64, 6.40, 3.01)
DEFAULT_DISTURBANCE = DisturbanceEvent(bus=5, start=0.1, duration=0.2, load=5.5)


@dataclass
class ScenarioConfig:
    """Fully resolved experiment description.

    The defaults reproduce the baseline study: 5 s horizon, 10 ms
    steps, 50 ms observation cadence, a load step to 5.5 pu at bus 5
    during [0.1, 0.3) s, iid measurement noise of variance 1e-4.
    """
    t_f: float = 5.0
    dt: float = 0.01
    dt_obs: float = 0.05
    disturbance: DisturbanceEvent | None = DEFAULT_DISTURBANCE
    noise_var: float = 1e-4
    prior_mean: tuple = DEFAULT_PRIOR_MEAN
    prior_var: tuple = DEFAULT_PRIOR_VAR
    m_true: tuple = DEFAULT_M_TRUE
    seed: int = 1234
    method: str = "adjoint"
    pce_order: int = 2
    pce_rule: str = "stochastic-testing"

    def __post_init__(self):
        self.prior_mean = tuple(float(x) for x in self.prior_mean)
        self.prior_var = tuple(float(x) for x in self.prior_var)
        self.m_true = tuple(float(x) for x in self.m_true)
        if self.t_f <= 0 or self.dt <= 0 or self.dt_obs <= 0:
            raise ValueError("t_f, dt and dt_obs must be positive")
        # the integrator's checks, before any solve
        grid_nodes(self.t_f, self.dt, what="t_f")
        if grid_nodes(self.dt_obs, self.dt, what="dt_obs") < 1:
            raise ValueError(
                f"dt_obs {self.dt_obs!r} is not a positive multiple of "
                f"dt={self.dt}")
        if self.disturbance is not None:
            grid_nodes([self.disturbance.start, self.disturbance.end],
                       self.dt, self.t_f, what="disturbance bound")
        if self.noise_var <= 0:
            raise ValueError("noise_var must be positive")
        if any(v <= 0 for v in self.prior_var):
            raise ValueError("prior variances must be positive")
        if any(h < H_LOWER_BOUND for h in self.prior_mean):
            raise ValueError(
                f"prior_mean={self.prior_mean} has an entry below the MAP's "
                f"lower bound {H_LOWER_BOUND}")
        if any(h <= 0 for h in self.m_true):
            raise ValueError(
                f"m_true={self.m_true} has an inertia that is not positive")
        if len(self.prior_mean) != len(self.prior_var) or \
                len(self.prior_mean) != len(self.m_true):
            raise ValueError("prior_mean, prior_var and m_true lengths differ")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.pce_rule not in PCE_RULES:
            raise ValueError(f"pce_rule must be one of {PCE_RULES}")
        if not 1 <= self.pce_order <= 5:
            raise ValueError("pce_order must be in 1..5")

    # -- derived objects ------------------------------------------------
    def events(self) -> tuple:
        return () if self.disturbance is None else (self.disturbance,)

    def times(self) -> np.ndarray:
        return observation_times(self.t_f, self.dt_obs)

    def prior(self) -> GaussianPrior:
        return GaussianPrior(np.array(self.prior_mean),
                             np.array(self.prior_var))

    def noise(self, n_obs: int) -> NoiseModel:
        return NoiseModel.iid(self.noise_var, n_obs)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        Path(path).write_text(yaml.safe_dump(self.to_dict(), sort_keys=True))

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        d = dict(d)
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        dist = d.get("disturbance")
        if isinstance(dist, dict):
            fields = set(DisturbanceEvent.__dataclass_fields__)
            unknown, missing = set(dist) - fields, fields - set(dist)
            if unknown:
                raise ValueError(
                    f"unknown disturbance fields: {sorted(unknown)}")
            if missing:
                raise ValueError(
                    f"missing disturbance fields: {sorted(missing)}")
            d["disturbance"] = DisturbanceEvent(**dist)
        return cls(**d)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        d = yaml.safe_load(Path(path).read_text())
        if not isinstance(d, dict):
            raise ValueError(f"{path}: expected a mapping at top level")
        return cls.from_dict(d)
