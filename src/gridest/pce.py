"""Polynomial-chaos surrogate pipeline for the observable map.

The expensive trajectory observables f(m) are replaced by a truncated
expansion f_hat(m) = sum_{|alpha| <= p} c_alpha Psi_alpha(xi(m)) in
orthonormal Hermite polynomials of the prior-standardized parameters
xi_i = (m_i - mpr_i)/sqrt(Gpr_ii).  The rule name, one of PCE_RULES,
picks both the nodes and the fit of the coefficients:

* "tensor" and "sparse": projection, c_alpha = sum_i w_i Psi_alpha(xi_i)
  f(m_i), over the order-p tensor or the level-(p+1) Smolyak sparse
  Gauss quadrature rule;
* "stochastic-testing": interpolation, collocation on K well-conditioned
  nodes subselected from the order-p tensor candidates by column-pivoted
  QR, solving V C = F.

Each quadrature/collocation node costs exactly one forward simulation;
the count is recorded on the surrogate and is the estimate's
forward_solves.  The induced negative log posterior is a polynomial
with closed-form gradient and Hessian, so the surrogate MAP needs no
further simulations (tangent_solves is 0) and its Laplace covariance
is the analytic Hessian inverse.  The MAP is one run of the bounded
Gauss-Newton driver of the adjoint back end (lbfgs.minimize), from the
same start, the prior mean, with the same bayes.gauss_newton_hessian
and the same Newton-decrement stop, set tighter (_MAP_DECREMENT_TOL)
because a surrogate iterate costs no solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

import numpy as np
from scipy.linalg import qr

from .bayes import (GaussianPrior, PosteriorSummary, check_data,
                    gauss_newton_hessian, hessian_inverse)
from .hermite import basis_derivatives, basis_matrix, gauss_hermite, multi_index_set
from .integrator import simulate
from .lbfgs import minimize
from .observation import observe

PCE_RULES = ("stochastic-testing", "tensor", "sparse")

_MAP_DECREMENT_TOL = 1e-8    # J within about 5e-9 of the surrogate minimum
_COND_LIMIT = 1e12


def standardize(m, prior: GaussianPrior) -> np.ndarray:
    return (np.asarray(m, dtype=float) - prior.mean) / np.sqrt(prior.var)


def unstandardize(xi, prior: GaussianPrior) -> np.ndarray:
    return prior.mean + np.sqrt(prior.var) * np.asarray(xi, dtype=float)


def tensor_rule(n: int, p: int):
    """Tensor product of (p+1)-point Gauss rules: (xi, weights), with
    (p+1)^n standardized nodes."""
    nodes1, w1 = gauss_hermite(p + 1)
    xi = np.array(list(product(nodes1, repeat=n)), dtype=float)
    w = np.prod(np.array(list(product(w1, repeat=n))), axis=1)
    return xi, w


def _sparse_growth(i: int) -> int:
    """Univariate node count at level i: 1, 3, 3, 5, 5, ...

    Odd sizes keep the center node nested across levels; the delayed
    doubling keeps counts low while the Gauss rule of size s is already
    exact to degree 2s-1 >= 2i-1.
    """
    return 2 * (i // 2) + 1


def sparse_rule(n: int, level: int):
    """Smolyak sparse Gauss rule, (xi, weights); exact for total degree
    <= 2*level-1.

    Nodes from all combination terms are merged by exact coordinate
    match; nodes whose net weight cancels to zero are kept (they are
    part of the evaluated support, and each costs a forward solve).
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    q = level + n - 1
    merged: dict[tuple, float] = {}
    for total in range(max(n, q - n + 1), q + 1):
        coeff = (-1.0) ** (q - total) * comb(n - 1, q - total)
        # the n-tuples of levels >= 1 summing to total
        for parts in product(range(1, total - n + 2), repeat=n):
            if sum(parts) != total:
                continue
            rules1 = [gauss_hermite(_sparse_growth(i)) for i in parts]
            for combo in product(*[range(len(r[0])) for r in rules1]):
                node = tuple(rules1[j][0][combo[j]] for j in range(n))
                w = coeff * np.prod([rules1[j][1][combo[j]] for j in range(n)])
                merged[node] = merged.get(node, 0.0) + w
    nodes = sorted(merged)
    return np.array(nodes, dtype=float), np.array([merged[t] for t in nodes])


def stochastic_testing_select(xi: np.ndarray, weights: np.ndarray,
                              indices: np.ndarray):
    """Pick K = len(indices) dominant, well-conditioned collocation nodes
    from the candidate rule (xi, weights).

    Column-pivoted QR on the transposed candidate Vandermonde ranks the
    nodes; the first K pivots form the collocation set.  Rows are
    scaled by the quadrature weights, so high-probability nodes near
    the prior mean dominate the selection (pivoting still rejects rows
    that add no new information).  This anchors the interpolant where
    the posterior mass lives instead of at the outermost tensor
    corners.  Returns (xi_sel, V) with V the K x K (unscaled)
    collocation matrix, which must be well conditioned.
    """
    k_total = indices.shape[0]
    if xi.shape[0] < k_total:
        raise ValueError(
            f"need at least {k_total} candidates, got {xi.shape[0]}")
    v_cand = basis_matrix(indices, xi)
    _, _, piv = qr((v_cand * weights[:, None]).T, pivoting=True)
    sel = np.sort(piv[:k_total])
    v_sel = v_cand[sel]
    cond = float(np.linalg.cond(v_sel))
    if cond > _COND_LIMIT:
        raise np.linalg.LinAlgError(
            f"collocation matrix is numerically singular (cond = {cond:.2e})")
    return xi[sel], v_sel


@dataclass
class Surrogate:
    """Truncated expansion of the observable map around the prior."""
    indices: np.ndarray          # (K, n) multi-indices
    coeffs: np.ndarray           # (K, q) one row per basis function
    prior: GaussianPrior         # standardizes m to xi
    order: int
    rule: str                    # one of PCE_RULES
    n_forward: int               # forward simulations spent building it

    def evaluate(self, m) -> np.ndarray:
        """Surrogate observables at one parameter point, shape (q,)."""
        xi = standardize(m, self.prior)
        return basis_matrix(self.indices, xi[None, :])[0] @ self.coeffs


def _evaluate_forward(forward, nodes_m) -> np.ndarray:
    """Forward map at every node, one row per node."""
    rows = []
    for i, m in enumerate(nodes_m):
        try:
            rows.append(forward(m))
        except Exception as exc:
            raise RuntimeError(
                f"forward simulation failed at node {i}, m = {m}") from exc
    return np.array(rows)


def build_surrogate(rule: str, order: int, forward,
                    prior: GaussianPrior) -> Surrogate:
    """Fit the order-p expansion coefficients from forward runs at the nodes.

    "tensor" and "sparse" evaluate every node of the order-p tensor or
    level-(p+1) Smolyak rule and compute the discrete orthogonal
    projection with its weights; "stochastic-testing" subselects K
    nodes from the order-p tensor candidates and solves the square
    collocation system.
    """
    if rule not in PCE_RULES:
        raise ValueError(f"unknown rule: {rule!r}")
    n = prior.mean.size
    indices = multi_index_set(n, order)
    xi, weights = sparse_rule(n, order + 1) if rule == "sparse" \
        else tensor_rule(n, order)
    if rule == "stochastic-testing":
        xi, v_sel = stochastic_testing_select(xi, weights, indices)
        f_rows = _evaluate_forward(forward, unstandardize(xi, prior))
        coeffs = np.linalg.solve(v_sel, f_rows)
    else:
        f_rows = _evaluate_forward(forward, unstandardize(xi, prior))
        psi = basis_matrix(indices, xi)
        coeffs = psi.T @ (weights[:, None] * f_rows)
    if not np.all(np.isfinite(coeffs)):
        raise RuntimeError("surrogate coefficients are not finite")
    return Surrogate(indices=indices, coeffs=coeffs, prior=prior, order=order,
                     rule=rule, n_forward=xi.shape[0])


class SurrogateObjective:
    """Negative log posterior with the surrogate in place of the model.

    A polynomial of degree 2p in m: value, gradient, Jacobian and
    Hessian are closed-form contractions of the basis derivative tables,
    so calls cost no simulations.  linearize(m) and value(m) serve the
    MAP driver (lbfgs.minimize); both form J and its gradient in
    value_grad.  The basis tables of the latest point are kept: the
    driver linearizes at the trial point it has just accepted, and
    surrogate_map takes the Hessian at the MAP, the point the driver
    linearized last.
    """

    def __init__(self, surrogate: Surrogate, obs, noise, prior: GaussianPrior):
        self.surrogate = surrogate
        self.data = obs.values
        self.noise_var = noise.var
        self.prior = prior
        self.sigma = np.sqrt(surrogate.prior.var)
        self._latest = None    # (m, basis tables) of the latest point
        if surrogate.coeffs.shape[1] != self.data.shape[0]:
            raise ValueError("surrogate output dimension does not match data")

    def _parts(self, m):
        if self._latest is None or not np.array_equal(self._latest[0], m):
            xi = standardize(m, self.surrogate.prior)
            psi, dpsi, d2psi = basis_derivatives(self.surrogate.indices, xi)
            # chain rule to physical coordinates
            dpsi = dpsi / self.sigma
            d2psi = d2psi / (self.sigma[:, None] * self.sigma[None, :])
            self._latest = (m.copy(), (psi, dpsi, d2psi))
        return self._latest[1]

    def value_grad(self, m):
        m = np.asarray(m, dtype=float)
        psi, dpsi, _ = self._parts(m)
        c = self.surrogate.coeffs
        r = psi @ c - self.data
        wr = r / self.noise_var
        jval = 0.5 * (r @ wr) + self.prior.neg_log(m)
        v = c @ wr                      # (K,) misfit-weighted coefficients
        grad = dpsi.T @ v + (m - self.prior.mean) / self.prior.var
        return float(jval), grad

    def value(self, m) -> float:
        return self.value_grad(m)[0]

    def jacobian(self, m) -> np.ndarray:
        """Jacobian c^T dPsi of the surrogate observables, shape (q, n)."""
        return self.surrogate.coeffs.T @ self._parts(np.asarray(m, dtype=float))[1]

    def linearize(self, m):
        """(J(m), gradient, Gauss-Newton Hessian) from the surrogate
        Jacobian."""
        return (*self.value_grad(m), gauss_newton_hessian(
            self.jacobian(m), self.noise_var, self.prior))

    def hessian(self, m) -> np.ndarray:
        """The full Hessian: linearize's plus the residual curvature."""
        psi, dpsi, d2psi = self._parts(np.asarray(m, dtype=float))
        c = self.surrogate.coeffs
        v = c @ ((psi @ c - self.data) / self.noise_var)
        return gauss_newton_hessian(c.T @ dpsi, self.noise_var, self.prior) \
            + np.einsum("k,kij->ij", v, d2psi)


def surrogate_map(surrogate: Surrogate, obs, noise, prior: GaussianPrior,
                  m_true=None) -> PosteriorSummary:
    """Gauss-Newton MAP on the polynomial posterior, from the prior mean.

    One run of the MAP driver (lbfgs.minimize) from the start the
    adjoint back end uses; its verdict is the estimate's.  The full
    Hessian at the MAP gives the covariance, its inverse.  stats holds
    the rule, the order, the surrogate's forward solves and no
    tangent-linear pass next to the driver's keys.
    """
    objective = SurrogateObjective(surrogate, obs, noise, prior)
    res = minimize(objective, prior.mean, decrement_tol=_MAP_DECREMENT_TOL)
    stats = {
        "rule": surrogate.rule,
        "order": surrogate.order,
        "forward_solves": surrogate.n_forward,
        "tangent_solves": 0,
        "n_starts": 1,    # always 1; kept while perfbench/ reads it
    }
    summary = PosteriorSummary.at_map(
        res, hessian_inverse(objective.hessian(res.x)), "pce", m_true, stats)
    # repeats converged; kept while perfbench/ reads it
    summary.stats["n_converged_starts"] = int(summary.stats["converged"])
    return summary


def estimate_pce(system, obs, noise, prior: GaussianPrior, t_f: float,
                 dt: float, events=(), order: int = 2,
                 rule: str = "stochastic-testing", m_true=None,
                 seed: int = 0):
    """Full surrogate pipeline: build from simulations, then MAP.

    rule is one of PCE_RULES (see build_surrogate).  Returns
    (PosteriorSummary, Surrogate); stats adds the Newton iterations and
    factorizations of the node solves.  seed is unused, as the MAP draws no
    random numbers; it stays only because perfbench/workloads.py passes
    it, and goes with the next change to that benchmark.
    """
    check_data(obs, noise, t_f, dt)
    newton_iters = newton_factorizations = 0

    def forward(m):
        nonlocal newton_iters, newton_factorizations
        traj = simulate(system, m, t_f, dt, events)
        newton_iters += traj.newton_iters
        newton_factorizations += traj.newton_factorizations
        return observe(traj, obs.times, obs.buses, obs.coords)

    surrogate = build_surrogate(rule, order, forward, prior)
    summary = surrogate_map(surrogate, obs, noise, prior, m_true=m_true)
    summary.stats["newton_iters"] = newton_iters
    summary.stats["newton_factorizations"] = newton_factorizations
    return summary, surrogate
