"""MAP estimation and Laplace uncertainty for the inertia vector.

The negative log posterior of m given voltage data d is

    J(m) = 1/2 ||f(m) - d||^2_{Gn^-1} + 1/2 ||m - m_pr||^2_{Gpr^-1}

with independent Gaussian noise and prior.  The MAP point minimizes J
by bounded Gauss-Newton (map_estimate, the MAP driver lbfgs.minimize
that the surrogate MAP shares): the objective linearizes f with a
tangent-linear pass, giving the gradient J_f^T Gn^-1 (f - d) +
Gpr^-1 (m - m_pr) and the model Hessian J_f^T Gn^-1 J_f + Gpr^-1
(gauss_newton_hessian; Bui-Thanh, Ghattas, Martin & Stadler, SIAM J.
Sci. Comput. 35, 2013).  The residual at the MAP is small, so the loop
converges in a handful of iterations.

The posterior covariance is the Laplace approximation
Gpost = (Hessian of J at the MAP)^-1.  The model Hessian leaves out the
residual curvature, which moves the variances by tens of per cent at
high noise, so both back ends invert their objective's full Hessian.
AdjointObjective.hessian takes it at the MAP driver's last
linearization, by one adjoint sweep and no forward solve: that pass's
Gauss-Newton Hessian plus laplace_covariance's one-sided differences of
adjoint.lagrangian_gradient, whose O(h) error FD_REL_STEP keeps near
1e-7 relative.  Both back ends end in PosteriorSummary.at_map, which
takes the MAP driver's convergence verdict (its Newton decrement test)
as the estimate's.

stats records the cost in solves: forward_solves (the MAP driver's
n_evals; the Laplace step makes none), tangent_solves (iterations + 1),
adjoint_solves (1, the Laplace step's sweep), newton_iters and
newton_factorizations.

Quality metrics for synthetic studies with known truth:

    Err = sqrt(1/n sum_i ((m_i - m_true,i)/m_true,i)^2)
    tau = sqrt(sum_i Gpost_ii / m_true,i^2)
    CNS_i = Phi((m_MAP,i - m_true,i)/sqrt(Gpost_ii))

CNS should be comfortably inside (0, 1) when the posterior is honest;
values pressed against 0/1 flag an over-confident or biased fit.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .adjoint import (backward_sweep, lagrangian_gradient, misfit, residual,
                      tangent_linear)
from .integrator import grid_nodes, simulate
from .lbfgs import minimize as map_estimate
from .normal import ndtr
from .observation import NoiseModel, ObservationSet, check_noise_length

FD_REL_STEP = 1e-7     # relative one-sided step, Laplace Hessian
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
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("prior mean must be finite")
        if not np.all(np.isfinite(self.var) & (self.var > 0)):
            raise ValueError("prior variances must be positive and finite")

    def neg_log(self, m: np.ndarray) -> float:
        r = m - self.mean
        return 0.5 * float(r @ (r / self.var))


class AdjointObjective:
    """The negative log posterior J(m), with solve and Newton counting.

    gradient(m) costs one forward simulation plus one adjoint sweep;
    value(m) costs one forward simulation; linearize(m) costs one
    tangent-linear pass, plus a forward simulation unless m is the point
    of the latest one, and makes that pass the anchor.  hessian(m), at
    the anchor's m, costs one adjoint sweep.  Every forward solve is
    cold, so J(m) depends on m alone.
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
        self.n_tangent = 0
        self.n_adjoint = 0
        self.newton_iters = 0
        self.newton_factorizations = 0
        self._latest = None    # (m, trajectory) of the latest forward solve
        self.anchor = None     # (Sensitivity, Gauss-Newton Hessian) of the
        #                        latest linearization

    def simulate(self, m):
        self.n_forward += 1
        traj = simulate(self.system, m, self.t_f, self.dt, self.events)
        self.newton_iters += traj.newton_iters
        self.newton_factorizations += traj.newton_factorizations
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

    def linearize(self, m: np.ndarray):
        """(J(m), gradient, Gauss-Newton Hessian) from the tangent-linear
        Jacobian of the observables."""
        if self._latest is not None and np.array_equal(self._latest[0], m):
            traj = self._latest[1]
        else:
            traj = self.simulate(m)
        self.n_tangent += 1
        jac, sens = tangent_linear(self.system, traj, m, self.obs)
        r, prior = residual(traj, self.obs), self.prior
        grad = jac.T @ (r / self.noise.var) + (m - prior.mean) / prior.var
        hess = gauss_newton_hessian(jac, self.noise.var, prior)
        self.anchor = sens, hess
        j = 0.5 * float(r @ (r / self.noise.var)) + prior.neg_log(m)
        return j, grad, hess

    def hessian(self, m: np.ndarray) -> np.ndarray:
        """The full Hessian at the anchor's m, by laplace_covariance (so
        checked for symmetry and symmetrized): its Gauss-Newton Hessian
        plus one-sided differences of adjoint.lagrangian_gradient."""
        sens, gauss_newton = self.anchor
        if not np.array_equal(sens.m, m):
            raise ValueError("the Hessian is taken at the latest linearization")
        self.n_adjoint += 1
        change = lagrangian_gradient(self.system, sens, self.obs, self.noise)
        return laplace_covariance(
            m, lambda x: change(x) + gauss_newton @ (x - m), 0.0)[1]


def gauss_newton_hessian(jac, noise_var, prior: GaussianPrior) -> np.ndarray:
    """J_f^T Gn^-1 J_f + Gpr^-1 for the Jacobian jac of the observables."""
    return jac.T @ (jac / noise_var[:, None]) + np.diag(1.0 / prior.var)


def neg_log_posterior(system, m, obs, noise, prior, t_f, dt, events=()):
    """Convenience single evaluation of J(m)."""
    traj = simulate(system, m, t_f, dt, events)
    return misfit(traj, obs, noise) + prior.neg_log(m)


def laplace_covariance(m_map: np.ndarray, grad_fn, grad_map):
    """Gpost = H^-1 with H from one-sided differences of the gradient.

    Column j is (grad_fn(m_map + h e_j) - grad_map) / h, with grad_map
    the gradient at m_map and h about FD_REL_STEP |m_j|, rounded so that
    m_map + h e_j is exact.  The raw FD Hessian is checked for symmetry
    (relative infinity norm) before symmetrizing, then factorized; a
    non-positive-definite Hessian raises with the offending eigenvalues
    (the MAP point is then not a proper minimum, or the FD step is
    unsuitable).
    """
    m_map = np.asarray(m_map, dtype=float)
    n = m_map.size
    hess = np.empty((n, n))
    for j in range(n):
        mp = m_map.copy()
        mp[j] += FD_REL_STEP * max(abs(m_map[j]), 1e-8)
        hess[:, j] = (grad_fn(mp) - grad_map) / (mp[j] - m_map[j])
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
    """(Err, tau, CNS) quality metrics against a known truth; the normal
    CDF of CNS is normal.ndtr, bit-identical to scipy.special.ndtr."""
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
    Both back ends build it with at_map, which writes the MAP driver's
    keys into stats, next to one solve record: forward_solves,
    tangent_solves, adjoint_solves, newton_iters and
    newton_factorizations.  The pce back end adds rule, order, n_starts
    and n_converged_starts.
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

    @classmethod
    def at_map(cls, res, gpost, method, m_true, stats):
        """The summary at the MAP driver's result res, with gpost the
        Laplace covariance there.  converged is the driver's verdict:
        its Newton decrement fell to its tolerance.  The driver's keys,
        one history record per iterate among them, come ahead of the
        back end's stats."""
        driver = {"iterations": res.iterations, "n_evals": res.n_evals,
                  "converged": res.converged, "message": res.message,
                  "final_grad_norm": res.grad_norm, "objective": res.fun,
                  "history": res.history}
        return cls(m_map=res.x, gamma_post=gpost, method=method,
                   m_true=m_true, stats={**driver, **stats})

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


def check_data(obs: ObservationSet, noise: NoiseModel, t_f: float,
               dt: float) -> None:
    """Reject, before any solve, observation times off the integrator's
    grid or past t_f, and a noise model whose length is not the data's."""
    grid_nodes(obs.times, dt, t_f, "observation time")
    check_noise_length(obs, noise)


def estimate_adjoint(system, obs: ObservationSet, noise: NoiseModel,
                     prior: GaussianPrior, t_f: float, dt: float, events=(),
                     m_true=None) -> PosteriorSummary:
    """Full adjoint-based pipeline: MAP point then Laplace covariance."""
    check_data(obs, noise, t_f, dt)
    objective = AdjointObjective(system, obs, noise, prior, t_f, dt, events)
    # map_estimate returns the last point it linearized, the anchor
    res = map_estimate(objective, prior.mean.copy())
    gpost = hessian_inverse(objective.hessian(res.x))
    stats = {
        "forward_solves": objective.n_forward,
        "tangent_solves": objective.n_tangent,
        "adjoint_solves": objective.n_adjoint,
        "newton_iters": objective.newton_iters,
        "newton_factorizations": objective.newton_factorizations,
    }
    return PosteriorSummary.at_map(res, gpost, "adjoint", m_true, stats)
