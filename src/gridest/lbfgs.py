"""Limited-memory BFGS with a strong-Wolfe line search and lower bounds.

Small hand-rolled quasi-Newton loop for the surrogate MAP, a
low-dimensional problem with cheap exact derivatives, run from several
starts (the adjoint back end's MAP is bayes.map_estimate's Gauss-Newton
loop, which shares OptimizeResult and at_roundoff_floor):

* two-loop recursion with memory 10 and gamma := s.y/y.y scaling;
* strong Wolfe conditions (c1 = 1e-4, c2 = 0.9) enforced by a
  bracket/zoom search with cubic interpolation;
* optional lower bounds kept by capping the step at the feasible
  boundary; convergence is tested on the projected gradient, so an
  iterate resting on a bound with an inward-pointing gradient counts
  as stationary;
* curvature pairs with s.y <= eps ||s|| ||y|| are skipped instead of
  corrupting the inverse-Hessian estimate.

Termination: converged means the projected gradient infinity norm
dropped to tol.  Large-scale objectives (a misfit summing thousands of
squared residuals) hit double-precision limits first: once the gradient
norm falls to roughly sqrt(eps * |f| * lambda_max), a Newton step
changes f by less than one unit in the last place and no line search
can verify descent.  The loop therefore also stops, not converged, when
a step decreases f by less than ftol = 1e4 eps relative or the line
search fails; ftol * max(1, |f|) is also the line search's objective
noise.  lambda_max is unknown here, so at_roundoff_floor makes the
floor verdict from the Hessian the caller computes at the MAP.

The objective callable returns (value, gradient).  Every accepted step
satisfies the Armijo condition; one record per iterate (value,
gradient norm, step length, cumulative evaluations) is kept in
history for machine-readable logging.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_CURV_EPS = 1e-10
_EPS = float(np.finfo(float).eps)
_MEMORY = 10
_C1, _C2 = 1e-4, 0.9
_FTOL = 1e4 * _EPS     # relative objective decrease, and line-search noise
_LS_EVALS = 25         # evaluations per line search


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


def _projected_grad_norm(x, g, lower):
    """Infinity norm of the gradient with bound-blocked components removed."""
    if lower is None:
        return np.linalg.norm(g, np.inf)
    pg = np.where((x <= lower + 1e-12) & (g > 0), 0.0, g)
    return np.linalg.norm(pg, np.inf)


def _two_loop(g, s_list, y_list, rho_list):
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if s_list:
        gamma = (s_list[-1] @ y_list[-1]) / (y_list[-1] @ y_list[-1])
        q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def _cubic_min(a, fa, dfa, b, fb, dfb):
    """Minimizer of the cubic interpolant on [a, b]; None if degenerate."""
    d1 = dfa + dfb - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - dfa * dfb
    if disc < 0.0:
        return None
    d2 = np.sign(b - a) * np.sqrt(disc)
    denom = dfb - dfa + 2.0 * d2
    if denom == 0.0:
        return None
    t = b - (b - a) * (dfb + d2 - d1) / denom
    if not np.isfinite(t):
        return None
    return t


def minimize(fun, x0, lower=None, tol=1e-6, max_iter=100) -> OptimizeResult:
    """Minimize fun(x) -> (value, grad) from x0.

    lower: optional array (or scalar) of lower bounds; iterates never
    violate them.  Only a projected gradient at tol is converged; any
    other stop says why in message: "objective decrease below ftol",
    "line search failed" or "max_iter reached" (see at_roundoff_floor).
    """
    x = np.asarray(x0, dtype=float).copy()
    if lower is not None:
        lower = np.broadcast_to(np.asarray(lower, dtype=float), x.shape)
        if np.any(x < lower):
            raise ValueError("initial point violates the lower bounds")

    evals = 0

    def fg(z):
        nonlocal evals
        evals += 1
        f, g = fun(z)
        return float(f), np.asarray(g, dtype=float)

    f, g = fg(x)
    history: list[dict] = []
    s_mem: list[np.ndarray] = []
    y_mem: list[np.ndarray] = []
    rho_mem: list[float] = []
    message = "max_iter reached"
    converged = stalled = False
    alpha = None

    it = 0
    while True:
        gnorm = _projected_grad_norm(x, g, lower)
        history.append({"iter": it, "fun": f, "grad_norm": float(gnorm),
                        "step": alpha, "evals": evals})
        if gnorm <= tol:
            converged, message = True, "projected gradient below tolerance"
            break
        if stalled:
            message = "objective decrease below ftol"
            break
        if it >= max_iter:
            break

        at_bound = None if lower is None else x <= lower + 1e-12
        p = -_two_loop(g, s_mem, y_mem, rho_mem)
        if at_bound is not None:
            # drop direction components pushing into an active bound
            p = np.where(at_bound & (p < 0.0), 0.0, p)
        if p @ g >= 0.0:
            # not a descent direction: reset the memory
            s_mem, y_mem, rho_mem = [], [], []
            p = -g.copy()
            if at_bound is not None:
                p = np.where(at_bound & (p < 0.0), 0.0, p)
        if it == 0 and not s_mem:
            p /= max(np.linalg.norm(p), 1e-16)

        # cap the step where it first hits an inactive bound
        a_max = np.inf
        if lower is not None:
            neg = (p < 0.0) & ~at_bound
            if np.any(neg):
                a_max = np.min((lower[neg] - x[neg]) / p[neg])
                a_max = max(a_max, 0.0)

        x_new, f_new, g_new, alpha = _wolfe(fg, x, f, g, p, a_max)
        if x_new is None:
            message = "line search failed"
            break

        s = x_new - x
        y = g_new - g
        sy = s @ y
        if sy > _CURV_EPS * np.linalg.norm(s) * np.linalg.norm(y):
            s_mem.append(s)
            y_mem.append(y)
            rho_mem.append(1.0 / sy)
            if len(s_mem) > _MEMORY:
                s_mem.pop(0)
                y_mem.pop(0)
                rho_mem.pop(0)

        stalled = f - f_new <= _FTOL * max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        alpha = float(alpha)
        it += 1

    return OptimizeResult(x=x, fun=f, grad_norm=float(gnorm),
                          iterations=it, n_evals=evals, converged=converged,
                          message=message, history=history)


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


def _wolfe(fg, x, f0, g0, p, a_max):
    """Strong-Wolfe search along the descent direction p, capped at a_max.

    Returns (x_new, f_new, g_new, alpha) or (None, ...) on failure.
    If the cap itself satisfies Armijo but curvature cannot be met
    inside the feasible segment, the capped point is accepted: the
    caller's curvature test then decides whether the pair is usable.
    """
    dphi0 = g0 @ p
    a_prev, f_prev, g_prev, dphi_prev = 0.0, f0, g0, dphi0
    a = min(1.0, a_max)
    f_a, g_a = fg(x + a * p)
    n = 1

    while True:
        dphi_a = g_a @ p
        if f_a > f0 + _C1 * a * dphi0 or (a_prev > 0.0 and f_a >= f_prev):
            return _zoom(fg, x, p, f0, dphi0,
                         a_prev, f_prev, g_prev, dphi_prev,
                         a, f_a, g_a, dphi_a, _LS_EVALS - n)
        if abs(dphi_a) <= -_C2 * dphi0:
            return x + a * p, f_a, g_a, a
        if dphi_a >= 0.0:
            return _zoom(fg, x, p, f0, dphi0,
                         a, f_a, g_a, dphi_a,
                         a_prev, f_prev, g_prev, dphi_prev, _LS_EVALS - n)
        if a >= a_max - 1e-16:
            # Armijo holds at the cap and the slope still points outward
            return x + a * p, f_a, g_a, a
        a_prev, f_prev, g_prev, dphi_prev = a, f_a, g_a, dphi_a
        a = min(2.0 * a, a_max)
        if n >= _LS_EVALS:
            return None, None, None, None
        f_a, g_a = fg(x + a * p)
        n += 1


def _zoom(fg, x, p, f0, dphi0, a_lo, f_lo, g_lo, dphi_lo,
          a_hi, f_hi, g_hi, dphi_hi, budget):
    noise = _FTOL * max(1.0, abs(f0))
    for _ in range(max(budget, 1)):
        # once every function difference in the bracket is below the
        # objective noise ftol * max(1, |f0|), Armijo comparisons carry
        # no information; settle for the best point seen
        if abs(f_lo - f0) <= noise and abs(f_hi - f0) <= noise:
            break
        a = _cubic_min(a_lo, f_lo, dphi_lo, a_hi, f_hi, dphi_hi)
        width = abs(a_hi - a_lo)
        lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
        if a is None or not (lo + 0.1 * width <= a <= hi - 0.1 * width):
            a = 0.5 * (a_lo + a_hi)
        f_a, g_a = fg(x + a * p)
        dphi_a = g_a @ p
        if f_a > f0 + _C1 * a * dphi0 or f_a >= f_lo:
            a_hi, f_hi, g_hi, dphi_hi = a, f_a, g_a, dphi_a
        else:
            if abs(dphi_a) <= -_C2 * dphi0:
                return x + a * p, f_a, g_a, a
            if dphi_a * (a_hi - a_lo) >= 0.0:
                a_hi, f_hi, g_hi, dphi_hi = a_lo, f_lo, g_lo, dphi_lo
            a_lo, f_lo, g_lo, dphi_lo = a, f_a, g_a, dphi_a
        if abs(a_hi - a_lo) < 1e-14:
            break
    # fall back to the best Armijo point found
    if a_lo > 0.0 and f_lo <= f0 + min(_C1 * a_lo * dphi0 + noise, 0.0):
        return x + a_lo * p, f_lo, g_lo, a_lo
    return None, None, None, None
