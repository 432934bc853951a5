"""Bayesian estimation of generator inertias from transient voltage data.

Forward model: a 9-bus network with three two-axis synchronous machine
models under a temporary load disturbance.  Two estimation back ends
produce a MAP point with a Laplace (inverse-Hessian) covariance: a
discrete-adjoint gradient pipeline and a polynomial-chaos surrogate
pipeline.
"""
import os

# one BLAS thread unless the environment sets a count, before numpy
# loads: threads make the model's 45x45 factorizations slower and noisier
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .ninebus import NineBusSystem, DisturbanceEvent, load_system
from .integrator import Trajectory, simulate
from .observation import (NoiseModel, ObservationSet, observation_times,
                          observe, synthesize_observations,
                          read_observations, write_observations)
from .bayes import (GaussianPrior, PosteriorSummary, estimate_adjoint,
                    laplace_covariance, map_estimate, metrics,
                    neg_log_posterior)
from .pce import Surrogate, build_surrogate, estimate_pce, surrogate_map
from .scenario import ScenarioConfig

__version__ = "0.1.0"

__all__ = [
    "NineBusSystem", "DisturbanceEvent", "load_system",
    "Trajectory", "simulate",
    "NoiseModel", "ObservationSet", "observation_times", "observe",
    "synthesize_observations", "read_observations", "write_observations",
    "GaussianPrior", "PosteriorSummary", "estimate_adjoint",
    "laplace_covariance", "map_estimate", "metrics", "neg_log_posterior",
    "Surrogate", "build_surrogate", "estimate_pce", "surrogate_map",
    "ScenarioConfig",
    "__version__",
]
