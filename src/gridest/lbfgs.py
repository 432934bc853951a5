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
  until it meets the Armijo condition f_new <= f + ARMIJO_C1 alpha slope
  (at most BACKTRACKS trials).  A trial whose forward solve raises
  StepFailure counts as no decrease.
* Convergence is tested over the same free variables, so an iterate
  resting on the bound with an outward-pointing gradient can stop.

Termination: converged means the Newton decrement over the free
variables F, lambda^2 = g_F^T H_FF^-1 g_F, dropped to decrement_tol
(Boyd & Vandenberghe, Convex Optimization, 2004, sec. 9.5.1).  H is the
model Hessian, whose inverse is the Gauss-Newton posterior covariance,
so lambda is the length of the next step in posterior standard
deviations and J is within about lambda^2 / 2 of its minimum: the
default DECREMENT_TOL = 1e-6 stops about 1e-3 sd from the MAP, far
below anything the posterior resolves.  The test costs nothing, since
the step solves with H_FF anyway.  The loop also stops, not converged,
when backtracking finds no decrease or at max_iter.

One record per iterate (value, gradient norm, Newton decrement, step
length, cumulative evaluations) is kept in history for machine-readable
logging.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .integrator import StepFailure

H_LOWER_BOUND = 0.1    # physical safety net for the optimizer (seconds)
ARMIJO_C1 = 1e-4       # sufficient decrease of a Gauss-Newton step
BACKTRACKS = 10        # trial points per Gauss-Newton step
DECREMENT_TOL = 1e-6   # lambda^2 at which the MAP is converged


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


def minimize(objective, m0: np.ndarray, decrement_tol: float = DECREMENT_TOL,
             max_iter: int = 50) -> OptimizeResult:
    """Minimize the objective from m0 by Gauss-Newton steps kept above
    H_LOWER_BOUND.

    objective.linearize(m) gives (J, gradient, model Hessian) at an
    iterate and objective.value(m) gives J at a trial point.  The
    result holds the last point linearized.  Only a Newton decrement at
    decrement_tol is converged; any other stop says why in message:
    "backtracking found no decrease" or "max_iter reached".  n_evals
    counts the points at which J was computed.
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
        free = ~(at_bound & (g >= 0.0))
        newton = np.linalg.solve(hess[np.ix_(free, free)], g[free])
        decrement = float(g[free] @ newton)
        res.x, res.fun = x, f
        res.grad_norm = float(np.linalg.norm(np.where(free, g, 0.0), np.inf))
        res.history.append({"iter": res.iterations, "fun": f,
                            "grad_norm": res.grad_norm,
                            "decrement": decrement, "step": alpha,
                            "evals": res.n_evals})
        if decrement <= decrement_tol:
            res.converged = True
            res.message = "Newton decrement below tolerance"
            return res
        if res.iterations >= max_iter:
            return res

        p = np.zeros_like(x)
        p[free] = -newton
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
