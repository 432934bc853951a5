"""MAP estimation and Laplace uncertainty for the inertia vector.

The negative log posterior of m given voltage data d is

    J(m) = 1/2 ||f(m) - d||^2_{Gn^-1} + 1/2 ||m - m_pr||^2_{Gpr^-1}

with independent Gaussian noise and prior.  The MAP point minimizes J
(quasi-Newton with adjoint gradients); the posterior covariance is the
Laplace approximation Gpost = (Hessian of J at the MAP)^-1, with the
Hessian obtained by central finite differences of the exact gradient.

Quality metrics for synthetic studies with known truth:

    Err = sqrt(1/n sum_i ((m_i - m_true,i)/m_true,i)^2)
    tau = sqrt(sum_i Gpost_ii / m_true,i^2)
    CNS_i = Phi((m_MAP,i - m_true,i)/sqrt(Gpost_ii))

CNS should be comfortably inside (0, 1) when the posterior is honest;
values pressed against 0/1 flag an over-confident or biased fit.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import ndtr

from . import lbfgs
from .adjoint import backward_sweep, misfit
from .integrator import simulate
from .observation import NoiseModel, ObservationSet

H_LOWER_BOUND = 0.1    # physical safety net for the optimizer (seconds)
FD_REL_STEP = 1e-4     # relative central-difference step, Laplace Hessian
FD_SYM_TOL = 1e-3      # largest relative asymmetry of that Hessian


@dataclass(frozen=True)
class GaussianPrior:
    """Independent Gaussian prior; var holds the diagonal of Gpr."""
    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "var", np.asarray(self.var, dtype=float))
        if self.mean.shape != self.var.shape:
            raise ValueError("prior mean/var shape mismatch")
        if np.any(self.var <= 0):
            raise ValueError("prior variances must be positive")

    def neg_log(self, m: np.ndarray) -> float:
        r = m - self.mean
        return 0.5 * float(r @ (r / self.var))


class AdjointObjective:
    """Callable J(m) -> (value, gradient) with solve and Newton counting.

    One call costs one forward simulation plus one adjoint sweep.
    """

    def __init__(self, system, obs: ObservationSet, noise: NoiseModel,
                 prior: GaussianPrior, t_f: float, dt: float, events=()):
        self.system = system
        self.obs = obs
        self.noise = noise
        self.prior = prior
        self.t_f = t_f
        self.dt = dt
        self.events = tuple(events)
        self.n_forward = 0
        self.n_adjoint = 0
        self.newton_iters = 0

    def simulate(self, m):
        self.n_forward += 1
        traj = simulate(self.system, m, self.t_f, self.dt, self.events)
        self.newton_iters += traj.newton_iters
        return traj

    def value(self, m: np.ndarray) -> float:
        traj = self.simulate(m)
        return misfit(traj, self.obs, self.noise) + self.prior.neg_log(m)

    def __call__(self, m: np.ndarray):
        traj = self.simulate(m)
        j = misfit(traj, self.obs, self.noise) + self.prior.neg_log(m)
        self.n_adjoint += 1
        g = backward_sweep(self.system, traj, m, self.obs, self.noise,
                           prior=self.prior)
        return j, g

    def gradient(self, m: np.ndarray) -> np.ndarray:
        return self(m)[1]


def neg_log_posterior(system, m, obs, noise, prior, t_f, dt, events=()):
    """Convenience single evaluation of J(m)."""
    traj = simulate(system, m, t_f, dt, events)
    return misfit(traj, obs, noise) + prior.neg_log(m)


def map_estimate(objective, m0: np.ndarray, tol: float = 1e-6,
                 max_iter: int = 50) -> lbfgs.OptimizeResult:
    """Minimize the negative log posterior from m0 (usually the prior mean)."""
    return lbfgs.minimize(objective, m0, lower=H_LOWER_BOUND, tol=tol,
                          max_iter=max_iter)


def laplace_covariance(m_map: np.ndarray, grad_fn):
    """Gpost = H^-1 with H from central differences of the gradient.

    The raw FD Hessian is checked for symmetry (relative infinity norm)
    before symmetrizing, then factorized; a non-positive-definite
    Hessian raises with the offending eigenvalues (the MAP point is
    then not a proper minimum, or the FD step is unsuitable).
    """
    m_map = np.asarray(m_map, dtype=float)
    n = m_map.size
    hess = np.empty((n, n))
    for j in range(n):
        h = FD_REL_STEP * max(abs(m_map[j]), 1e-8)
        mp, mm = m_map.copy(), m_map.copy()
        mp[j] += h
        mm[j] -= h
        hess[:, j] = (grad_fn(mp) - grad_fn(mm)) / (2.0 * h)
    asym = np.linalg.norm(hess - hess.T, np.inf) / max(np.linalg.norm(hess, np.inf), 1e-30)
    if asym > FD_SYM_TOL:
        raise RuntimeError(f"FD Hessian asymmetry {asym:.2e} exceeds {FD_SYM_TOL:.0e}")
    hess = 0.5 * (hess + hess.T)
    return hessian_inverse(hess), hess


def hessian_inverse(hess: np.ndarray) -> np.ndarray:
    """Symmetric inverse of a positive-definite Hessian by Cholesky.

    A Hessian that is not positive definite raises with its eigenvalues.
    """
    try:
        cf = cho_factor(hess)
    except np.linalg.LinAlgError as exc:
        eig = np.linalg.eigvalsh(hess)
        raise RuntimeError(f"Hessian not positive definite, eigenvalues {eig}") from exc
    inv = cho_solve(cf, np.eye(hess.shape[0]))
    return 0.5 * (inv + inv.T)


def metrics(m_map: np.ndarray, gpost: np.ndarray, m_true: np.ndarray):
    """(Err, tau, CNS) quality metrics against a known truth."""
    m_map = np.asarray(m_map, float)
    m_true = np.asarray(m_true, float)
    rel = (m_map - m_true) / m_true
    err = float(np.sqrt(np.mean(rel ** 2)))
    diag = np.diag(np.asarray(gpost, float))
    tau = float(np.sqrt(np.sum(diag / m_true ** 2)))
    cns = ndtr((m_map - m_true) / np.sqrt(diag))
    return err, tau, cns


@dataclass
class PosteriorSummary:
    """MAP point, Laplace covariance, metrics, and cost counters.

    Given m_true, construction computes the metrics err, tau and cns.
    Both back ends put iterations, forward_solves, adjoint_solves,
    newton_iters and converged into stats; the other keys are back-end
    specific.
    converged means the MAP optimizer met its gradient tolerance, or
    stopped with its gradient at the roundoff floor certified by the
    Hessian at the MAP (lbfgs.at_roundoff_floor).
    """
    m_map: np.ndarray
    gamma_post: np.ndarray
    method: str
    m_true: np.ndarray | None = None
    stats: dict = field(default_factory=dict)
    err: float | None = field(default=None, init=False)
    tau: float | None = field(default=None, init=False)
    cns: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        if self.m_true is not None:
            self.m_true = np.asarray(self.m_true, float)
            self.err, self.tau, self.cns = metrics(self.m_map, self.gamma_post,
                                                   self.m_true)

    def to_dict(self) -> dict:
        out = {
            "method": self.method,
            "m_map": self.m_map.tolist(),
            "gamma_post": self.gamma_post.tolist(),
            "posterior_std": np.sqrt(np.diag(self.gamma_post)).tolist(),
            "trace_gamma_post": float(np.trace(self.gamma_post)),
            "stats": self.stats,
        }
        if self.m_true is not None:
            out["m_true"] = self.m_true.tolist()
            out["metrics"] = {"err": self.err, "tau": self.tau,
                              "cns": self.cns.tolist()}
        return out

    def to_json(self, path: str | Path, extra: dict | None = None) -> None:
        doc = self.to_dict()
        if extra:
            doc.update(extra)
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def estimate_adjoint(system, obs: ObservationSet, noise: NoiseModel,
                     prior: GaussianPrior, t_f: float, dt: float, events=(),
                     m_true=None) -> PosteriorSummary:
    """Full adjoint-based pipeline: MAP point then Laplace covariance."""
    objective = AdjointObjective(system, obs, noise, prior, t_f, dt, events)
    res = map_estimate(objective, prior.mean.copy())
    map_fwd, map_adj = objective.n_forward, objective.n_adjoint

    gpost, hess = laplace_covariance(res.x, objective.gradient)
    converged = res.converged or lbfgs.at_roundoff_floor(res, hess)
    stats = {
        "iterations": res.iterations,
        "n_evals": res.n_evals,
        "converged": converged,
        "message": res.message,
        "final_grad_norm": res.grad_norm,
        "objective": res.fun,
        "forward_solves": objective.n_forward,
        "adjoint_solves": objective.n_adjoint,
        "map_forward_solves": map_fwd,
        "map_adjoint_solves": map_adj,
        "hessian_forward_solves": objective.n_forward - map_fwd,
        "newton_iters": objective.newton_iters,
        "skipped_updates": res.skipped_updates,
    }
    return PosteriorSummary(m_map=res.x, gamma_post=gpost, method="adjoint",
                            m_true=m_true, stats=stats)
