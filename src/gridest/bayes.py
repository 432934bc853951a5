"""MAP estimation and Laplace uncertainty for the inertia vector.

The negative log posterior of m given voltage data d is

    J(m) = 1/2 ||f(m) - d||^2_{Gn^-1} + 1/2 ||m - m_pr||^2_{Gpr^-1}

with independent Gaussian noise and prior.  The MAP point minimizes J
by bounded Gauss-Newton (map_estimate, the MAP driver lbfgs.minimize
that the surrogate MAP shares): the objective linearizes f with a
tangent-linear pass, giving the gradient J_f^T Gn^-1 (f - d) +
Gpr^-1 (m - m_pr) and the model Hessian J_f^T Gn^-1 J_f + Gpr^-1 (the
Gauss-Newton Hessian of Bui-Thanh, Ghattas, Martin & Stadler, SIAM J.
Sci. Comput. 35, 2013).  The residual at the MAP is small, so the loop
converges in a handful of iterations.  Each trial forward solve starts
Newton from the trajectory that the latest tangent-linear pass predicts
(adjoint.Sensitivity), which is good to O(|dm|^2).

The posterior covariance is the Laplace approximation
Gpost = (Hessian of J at the MAP)^-1.  The model Hessian leaves out the
residual curvature, which moves the variances by tens of per cent at
high noise, so the full Hessian is taken by central finite differences
of the gradient, at m_MAP +- h e_j.  That gradient is evaluated on the
predicted trajectory T~(m) = T(m_MAP) + S (m - m_MAP) of the tangent-
linear pass at the MAP: one more tangent-linear pass along T~ gives
J~^T Gn^-1 (f(T~) - d) + Gpr^-1 (m - m_pr), with no forward or adjoint
solve.  The prediction error is 1/2 T''[dm, dm] + O(|dm|^3), the same at
+h and -h, so it cancels in the central difference: the Hessian keeps
the residual curvature and stays accurate to O(h^2).  The Laplace step
costs six tangent-linear passes.

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

from .adjoint import backward_sweep, misfit, residual, tangent_linear
from .integrator import simulate
from .lbfgs import at_roundoff_floor
from .lbfgs import minimize as map_estimate
from .observation import NoiseModel, ObservationSet

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
    """The negative log posterior J(m), with solve and Newton counting.

    gradient(m) costs one forward simulation plus one adjoint sweep;
    value(m) costs one forward simulation; linearize(m) costs one
    tangent-linear pass, plus a forward simulation unless m is the point
    of the latest one, and makes that pass the anchor.  Every
    forward solve after the first starts Newton from the anchor's
    prediction; predicted_gradient(m) costs one tangent-linear pass
    along it.
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
        self.n_tangent = 0
        self.newton_iters = 0
        self._latest = None    # (m, trajectory) of the latest forward solve
        self.anchor = None     # Sensitivity of the latest linearization

    def simulate(self, m):
        self.n_forward += 1
        predicted = None if self.anchor is None else self.anchor.predict(m)
        traj = simulate(self.system, m, self.t_f, self.dt, self.events,
                        predicted=predicted)
        self.newton_iters += traj.newton_iters
        self._latest = (np.array(m, dtype=float), traj)
        return traj

    def value(self, m: np.ndarray) -> float:
        traj = self.simulate(m)
        return misfit(traj, self.obs, self.noise) + self.prior.neg_log(m)

    def gradient(self, m: np.ndarray) -> np.ndarray:
        traj = self.simulate(m)
        self.n_adjoint += 1
        return backward_sweep(self.system, traj, m, self.obs, self.noise,
                              prior=self.prior)

    def _tangent(self, traj, m):
        """One tangent-linear pass: (Jacobian, sensitivity, residual,
        gradient)."""
        self.n_tangent += 1
        jac, sens = tangent_linear(self.system, traj, m, self.obs)
        r = residual(traj, self.obs)
        prior = self.prior
        grad = jac.T @ (r / self.noise.var) + (m - prior.mean) / prior.var
        return jac, sens, r, grad

    def linearize(self, m: np.ndarray):
        """(J(m), gradient, Gauss-Newton Hessian) from the tangent-linear
        Jacobian of the observables."""
        if self._latest is not None and np.array_equal(self._latest[0], m):
            traj = self._latest[1]
        else:
            traj = self.simulate(m)
        jac, self.anchor, r, grad = self._tangent(traj, m)
        prior = self.prior
        j = 0.5 * float(r @ (r / self.noise.var)) + prior.neg_log(m)
        hess = jac.T @ (jac / self.noise.var[:, None]) + np.diag(1.0 / prior.var)
        return j, grad, hess

    def predicted_gradient(self, m: np.ndarray) -> np.ndarray:
        """The gradient on the anchor's predicted trajectory at m."""
        return self._tangent(self.anchor.predict(m), m)[3]


def neg_log_posterior(system, m, obs, noise, prior, t_f, dt, events=()):
    """Convenience single evaluation of J(m)."""
    traj = simulate(system, m, t_f, dt, events)
    return misfit(traj, obs, noise) + prior.neg_log(m)


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
    tangent_solves, newton_iters and converged into stats; the other
    keys are back-end specific.
    converged means the MAP optimizer met its gradient tolerance, or
    stopped with its gradient at the roundoff floor certified by the
    Hessian at the MAP (at_roundoff_floor).
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
    map_tan = objective.n_tangent

    # map_estimate returns the last point it linearized
    assert np.array_equal(objective.anchor.m, res.x)
    gpost, hess = laplace_covariance(res.x, objective.predicted_gradient)
    converged = res.converged or at_roundoff_floor(res, hess)
    stats = {
        "iterations": res.iterations,
        "n_evals": res.n_evals,
        "converged": converged,
        "message": res.message,
        "final_grad_norm": res.grad_norm,
        "objective": res.fun,
        "forward_solves": objective.n_forward,
        "adjoint_solves": objective.n_adjoint,
        "tangent_solves": objective.n_tangent,
        "map_forward_solves": map_fwd,
        "map_adjoint_solves": map_adj,
        "map_tangent_solves": map_tan,
        "hessian_tangent_solves": objective.n_tangent - map_tan,
        "newton_iters": objective.newton_iters,
    }
    return PosteriorSummary(m_map=res.x, gamma_post=gpost, method="adjoint",
                            m_true=m_true, stats=stats)
