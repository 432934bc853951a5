"""The MAP driver: bounded Gauss-Newton with Armijo backtracking.

Both back ends find their MAP here.  The adjoint objective linearizes
the observables with a tangent-linear pass; the surrogate objective
differentiates its polynomial in closed form.  Either way the objective
gives, at an iterate, the value J, the gradient and a positive-definite
model Hessian (the Gauss-Newton Hessian J_f^T Gn^-1 J_f + Gpr^-1), and
at a trial point the value alone.  The module keeps the name lbfgs,
under which the benchmark's tracer looks up minimize, although its
limited-memory BFGS loop is gone.

* The step -H^-1 g is taken over the variables not held at
  H_LOWER_BOUND, capped where it first reaches the bound, and halved
  until it meets the Armijo condition (ARMIJO_C1, at most BACKTRACKS
  trials).  A trial whose forward solve raises StepFailure counts as no
  decrease.
* Convergence is tested on the projected gradient, so an iterate resting
  on the bound with an outward-pointing gradient counts as stationary.

Termination: converged means the projected gradient infinity norm
dropped to tol.  Large-scale objectives (a misfit summing thousands of
squared residuals) hit double-precision limits first: once the gradient
norm falls to roughly sqrt(eps * |f| * lambda_max), a Newton step
changes f by less than one unit in the last place and no line search
can verify descent.  The loop therefore also stops, not converged, when
its gradient is at that floor for the model Hessian (at_roundoff_floor),
when backtracking finds no decrease, or at max_iter.  The caller makes
the final floor verdict from the Hessian it computes at the MAP.

One record per iterate (value, gradient norm, step length, cumulative
evaluations) is kept in history for machine-readable logging.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrator import StepFailure

H_LOWER_BOUND = 0.1    # physical safety net for the optimizer (seconds)
ARMIJO_C1 = 1e-4       # sufficient decrease of a Gauss-Newton step
BACKTRACKS = 10        # trial points per Gauss-Newton step
_EPS = float(np.finfo(float).eps)


@dataclass
class OptimizeResult:
    x: np.ndarray
    fun: float
    grad_norm: float
    iterations: int
    n_evals: int
    converged: bool
    message: str
    history: list[dict] = field(default_factory=list)


def minimize(objective, m0: np.ndarray, tol: float = 1e-6,
             max_iter: int = 50) -> OptimizeResult:
    """Minimize the objective from m0 by Gauss-Newton steps kept above
    H_LOWER_BOUND.

    objective.linearize(m) gives (J, gradient, model Hessian) at an
    iterate and objective.value(m) gives J at a trial point.  The result
    holds the last point linearized.  Only a projected gradient at tol
    is converged; any other stop says why in message: "gradient at the
    roundoff floor", "backtracking found no decrease" or "max_iter
    reached".  n_evals counts the points at which J was computed.
    """
    x = np.array(m0, dtype=float)
    if np.any(x < H_LOWER_BOUND):
        raise ValueError(f"initial point below the bound {H_LOWER_BOUND}")
    f, g, hess = objective.linearize(x)
    res = OptimizeResult(x=x, fun=f, grad_norm=np.inf, iterations=0,
                         n_evals=1, converged=False,
                         message="max_iter reached")
    alpha = None
    while True:
        at_bound = x <= H_LOWER_BOUND + 1e-12
        held = at_bound & (g >= 0.0)
        res.x, res.fun = x, f
        res.grad_norm = float(np.linalg.norm(np.where(held, 0.0, g), np.inf))
        res.history.append({"iter": res.iterations, "fun": f,
                            "grad_norm": res.grad_norm, "step": alpha,
                            "evals": res.n_evals})
        if res.grad_norm <= tol:
            res.converged = True
            res.message = "projected gradient below tolerance"
            return res
        if at_roundoff_floor(res, hess):
            res.message = "gradient at the roundoff floor"
            return res
        if res.iterations >= max_iter:
            return res

        free = ~held
        p = np.zeros_like(x)
        p[free] = -np.linalg.solve(hess[np.ix_(free, free)], g[free])
        p[at_bound & (p < 0.0)] = 0.0
        into = p < 0.0
        alpha = 1.0
        if np.any(into):
            alpha = min(1.0, float(np.min((H_LOWER_BOUND - x[into]) / p[into])))
        slope = float(g @ p)
        for _ in range(BACKTRACKS):
            x_new = np.maximum(x + alpha * p, H_LOWER_BOUND)
            res.n_evals += 1
            try:
                f_new = objective.value(x_new)
            except StepFailure:
                f_new = np.inf
            if f_new <= f + ARMIJO_C1 * alpha * slope:
                break
            alpha *= 0.5
        else:
            res.message = "backtracking found no decrease"
            return res
        x = x_new
        f, g, hess = objective.linearize(x)
        res.iterations += 1


def at_roundoff_floor(res: OptimizeResult, hess: np.ndarray) -> bool:
    """True when res stopped with its gradient at the roundoff floor.

    hess is the exact (or finite-difference) Hessian at res.x.  The
    floor is 10 sqrt(eps max(1, |f|) lambda_max), see the module
    docstring; a Hessian with no positive eigenvalue certifies nothing.
    """
    lam = float(np.linalg.eigvalsh(hess)[-1])
    if lam <= 0.0:
        return False
    return bool(res.grad_norm <= 10.0 * np.sqrt(_EPS * max(1.0, abs(res.fun)) * lam))
