"""Implicit trapezoidal integration of the semi-explicit DAE.

The differential rows advance with the trapezoidal rule while the
algebraic constraints are enforced at the new time level,

    x_{k+1} = x_k + dt/2 (h_k + h_{k+1}),   0 = g(u_{k+1}),

which keeps every stored state consistent (no accumulation of
algebraic residual) and is algebraically equivalent to applying the
rule to M du/dt = F on consistent states.  Each step solves the
nonlinear system by chord Newton on the matrix M - dt/2 F_u (algebraic
rows unscaled): one LU at the start guess, refactored only where the
residual stalls (see _newton).  Newton starts from the extrapolation
of the solve's own states by the polynomial of order p through
u_{k-p}..u_k:

    u_{k+1}^0 = u_k + sum_{j=1..p} c_j (u_{k-j} - u_k),
    c_j = (-1)^j C(p+1, j+1),

with p = min(EXTRAPOLATION_ORDER, k - r), r the last restart: node 0
or a projection node, where the algebraic states jump.  p = 2 is the
quadratic start 3 u_k - 3 u_{k-1} + u_{k-2}, p = 1 the linear one.
Written as differences from u_k, the start is exactly u_k on a constant
trajectory, so an undisturbed solve makes no update.  At p = 0 the
start is the departure state, whose F the step already holds.  The
order is 5: over the 27 nodes of an order-2 tensor rule at 2 s and
dt = 0.01, the updates per step were 2.24, 1.96, 1.58, 1.06 and 1.05
for p = 2..6, at 0.96 LUs per step for each, and p = 5 was no worse
than p = 2 for any dt from 0.001 to 0.1.  The close start is what lets
one LU last the solve: a 2 s solve of the 9-bus model takes 1.05
updates and 0.96 LUs per step, where full Newton from the linear start
took 1.9 of each.  Newton returns at the first residual that meets
NEWTON_TOL, which is already near roundoff.  A step hands back F at its
arrival state, taken from its final residual evaluation, so the next
step does not evaluate it again.  The load-switch projection runs the
same Newton loop on the algebraic block and hands back F at the
post-switch state the same way.
The sensitivity passes factor their own Newton matrices at the
converged states, so the chord moves states only within NEWTON_TOL and
leaves the discrete adjoint exact.

Every time that meets the grid (t_f, event bounds, observation times)
is mapped to its node by grid_nodes, so load-switch events coincide
with grid points.  The schedule builds each load set's matrix once
(system.load_set) and hands it to every rhs and jac_u call under that
set.  Load set 0 is the nominal one, to which the initial equilibrium
belongs, and node k is a switching instant when its load set differs
from node k-1's (node 0's from set 0).  There the differential states
are continuous while the algebraic variables jump: they are re-solved
under the new load set (consistency projection).  The trajectory
stores the post-switch state as the state of that node and keeps the
pre-switch one alongside for the adjoint.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import comb

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs


NEWTON_TOL = 1e-12        # target residual (inf norm)
NEWTON_ACCEPT = 1e-10     # hard acceptance threshold
NEWTON_MAXIT = 25
CHORD_RHO = 0.1           # refactor where an update cuts the residual less
EXTRAPOLATION_ORDER = 5   # highest order of the Newton start's extrapolation
GRID_TOL = 1e-9           # t is node k when |k dt - t| <= GRID_TOL max(1,|t|)


class StepFailure(RuntimeError):
    """Newton iteration failed inside a time step or projection."""


@dataclass
class Trajectory:
    """Dense storage of one forward solve.

    states[k] is the (consistent) state at times[k]; for event nodes the
    pre-switch state is kept in pre_event.  step_loads[k] gives the
    index into load_sets, the stacked load-set matrices, of the set
    active on [times[k], times[k+1]); set 0 is the nominal one, under
    which states[0] is the equilibrium.  newton_iters counts the Newton
    updates of the steps, newton_factorizations the LUs of every Newton
    solve, projections included.
    """
    times: np.ndarray
    states: np.ndarray
    dt: float
    step_loads: np.ndarray
    load_sets: np.ndarray
    pre_event: dict[int, np.ndarray] = field(default_factory=dict)
    newton_iters: int = 0
    newton_factorizations: int = 0

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


def grid_nodes(times, dt: float, t_f: float | None = None,
               what: str = "time") -> np.ndarray:
    """The node k of each time t = k dt, within GRID_TOL max(1, |t|).

    The one map from times to grid nodes.  Raises ValueError naming the
    first time that is off the grid, or past the node of t_f if given;
    `what` names the times in the message.
    """
    times = np.asarray(times, dtype=float)
    nodes = np.round(times / dt).astype(int)
    off = np.abs(nodes * dt - times) > GRID_TOL * np.maximum(1.0, np.abs(times))
    if off.any():
        raise ValueError(f"{what} {float(times[off][0])!r} is not a "
                         f"multiple of dt={dt}")
    if t_f is not None:
        late = nodes > grid_nodes(t_f, dt, what="final time")
        if late.any():
            raise ValueError(f"{what} {float(times[late][0])!r} is past the "
                             f"end of the trajectory at t={t_f:.6g}")
    return nodes


def build_load_schedule(system, events, dt: float, t_f: float):
    """Map each step interval to a load set, the nominal one first:
    (load_sets, step_loads), with one system.load_set matrix per
    distinct (p, q) and step_loads[k] the set of step k.

    t_f and the event bounds must lie on the grid, the bounds within
    [0, t_f].
    """
    n = int(grid_nodes(t_f, dt, what="final time"))
    # boundaries where the active load set changes
    bounds = {0, n}
    for ev in events:
        bounds.update(grid_nodes([ev.start, ev.end], dt, t_f,
                                 what="event bound").tolist())
    bounds = sorted(bounds)

    sets = [system.loads_at(0.0)]    # distinct (p, q), the nominal first
    step_loads = np.empty(n, dtype=int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        p, q = system.loads_at((lo + 0.5) * dt, events)
        same = [np.array_equal(pp, p) and np.array_equal(qq, q)
                for pp, qq in sets]
        if not any(same):
            sets.append((p, q))
            same.append(True)
        step_loads[lo:hi] = same.index(True)
    return np.array([system.load_set(p, q) for p, q in sets]), step_loads


def newton_matrix(system, fu: np.ndarray, dt: float) -> np.ndarray:
    """Iteration matrix: I - dt/2 h_u on differential rows, -g_u below."""
    n_x = system.n_x
    a = -fu
    a[:n_x] *= 0.5 * dt
    a.flat[:n_x * (a.shape[0] + 1):a.shape[0] + 1] += 1.0
    return a


def lu_factor(a: np.ndarray, where: str, t: float):
    """LU factors of the square matrix a by dgetrf, for lu_solve.

    A Fortran-ordered a is factored in place, with no copy; any other
    layout is copied first.  A singular a (dgetrf's info > 0) raises
    StepFailure naming where and t.  dgetrf does not flag NaN: a NaN
    entry gives non-finite factors without complaint, so callers check
    what they solve for.
    """
    lu, piv, info = dgetrf(a, overwrite_a=True)
    if info > 0:
        raise StepFailure(f"{where} at t={t:.6g}: singular matrix")
    return lu, piv


def lu_solve(factors, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """x with a x = b, or a^T x = b when trans=1, from lu_factor(a)."""
    return dgetrs(factors[0], factors[1], b, trans=trans)[0]


def _newton(residual, matrix, v: np.ndarray, where: str,
            t: float) -> tuple[int, int]:
    """Chord Newton on residual(v) = 0, updating v in place; returns
    (iterations, LU factorizations).

    The matrix at the start guess is factored before the first update
    and reused by later ones.  Where an update cut the residual inf-norm
    by less than CHORD_RHO, it is refactored at the current iterate.  A
    chord update costs a residual and a triangular solve, under half of
    a full one, but converges only linearly: at a contraction of 0.1 or
    better it reaches NEWTON_TOL from a close start in about as many
    updates as full Newton, and a slower one means the factors are
    stale.  Returns at the first residual whose inf-norm meets
    NEWTON_TOL, with no further update.  After NEWTON_MAXIT updates, a
    residual within NEWTON_ACCEPT is accepted and any other raises
    StepFailure.  Every return follows a residual evaluation at the
    returned v.
    """
    factors, factored, res_prev = None, 0, 0.0
    for it in range(NEWTON_MAXIT + 1):
        r = residual(v)
        res = np.abs(r).max()
        if res <= NEWTON_TOL:
            return it, factored
        if it == NEWTON_MAXIT or not np.isfinite(res):
            if res <= NEWTON_ACCEPT:
                return it, factored
            raise StepFailure(f"{where} at t={t:.6g} stalled: residual "
                              f"{res:.3e} after {it} iterations")
        if factors is None or res > CHORD_RHO * res_prev:
            try:
                factors = lu_factor(matrix(v), where, t)
            except StepFailure as exc:
                raise StepFailure(f"{exc} at residual {res:.3e} after {it} "
                                  "iterations") from None
            factored += 1
        res_prev = res
        v -= lu_solve(factors, r)


@functools.lru_cache(maxsize=16)
def _residual_weights(n_state: int, n_x: int, dt: float) -> np.ndarray:
    """w of the step residual: dt/2 on the differential rows, 1 below."""
    w = np.ones(n_state)
    w[:n_x] = 0.5 * dt
    w.flags.writeable = False
    return w


def step_trapezoidal(system, u_k: np.ndarray, t_k: float, dt: float,
                     m: np.ndarray, loads: np.ndarray, f_k: np.ndarray,
                     u_guess: np.ndarray | None = None):
    """One implicit step from (t_k, u_k) under the load-set matrix
    loads; returns (u_{k+1}, f_{k+1}, newton_iters,
    newton_factorizations).

    t_k only names the step in a StepFailure.  f_k is the caller's
    cached RHS at the departure state and u_guess the Newton start; with
    none, Newton starts from u_k and its first residual takes F there
    from f_k, with no rhs call.  The returned state satisfies the step
    equations with residual inf-norm below NEWTON_ACCEPT (typically near
    machine precision); f_{k+1} is the RHS there, from the final
    residual evaluation.

    The residual is built in one reused vector as
    M (v - u_k) - w (M f_k + f(v)): the trapezoidal rows, and -g(v)
    below.  M f_k is taken once per step, and w (dt/2 on the
    differential rows, 1 on the algebraic ones) once per state size and
    dt.  Each entry rounds as in the row-by-row formula.
    """
    t_next = t_k + dt
    mass = system.mass
    f_kx = mass * f_k
    w = _residual_weights(len(mass), system.n_x, dt)
    phi = np.empty_like(u_k)
    f_v = None
    held = f_k if u_guess is None else None    # F at the start, if known

    def residual(v):
        nonlocal f_v, held
        f_v = system.rhs(v, m, loads) if held is None else held
        held = None
        np.subtract(v, u_k, out=phi)
        np.multiply(phi, mass, out=phi)
        wf = f_kx + f_v
        wf *= w
        np.subtract(phi, wf, out=phi)
        return phi

    def matrix(v):
        return newton_matrix(system, system.jac_u(v, m, loads), dt)

    v = (u_k if u_guess is None else u_guess).copy()
    its, factored = _newton(residual, matrix, v, "Newton", t_next)
    return v, f_v, its, factored


def solve_algebraic(system, u: np.ndarray, t: float, m: np.ndarray,
                    loads: np.ndarray) -> np.ndarray:
    """Re-solve g(x, y) = 0 for y with the differential states frozen,
    under the load-set matrix loads.

    Used at load switches; Newton on the algebraic block from u, which
    t only names in a StepFailure.  Returns the consistent state, the
    RHS there, from the final residual evaluation, and the LU
    factorizations Newton made.
    """
    n_x = system.n_x
    v = u.copy()
    f_v = None

    # Newton updates y = v[n_x:] in place, so both read v
    def residual(_y):
        nonlocal f_v
        f_v = system.rhs(v, m, loads)
        return f_v[n_x:]

    _, factored = _newton(
        residual, lambda _y: system.jac_u(v, m, loads)[n_x:, n_x:],
        v[n_x:], "algebraic re-solve", t)
    return v, f_v, factored


@functools.lru_cache(maxsize=None)
def _extrapolation(order: int) -> np.ndarray:
    """c_j = (-1)^j C(p+1, j+1) of the order-p extrapolation
    u_k + sum_j c_j (u_{k-j} - u_k), j = 1..p, in node order (j = p
    first)."""
    c = np.array([(-1) ** j * comb(order + 1, j + 1)
                  for j in range(order, 0, -1)], dtype=float)
    c.flags.writeable = False
    return c


def simulate(system, m: np.ndarray, t_f: float, dt: float,
             events=()) -> Trajectory:
    """Forward solve from the stored equilibrium over [0, t_f].

    The initial state is the steady state, so the trajectory departs
    from equilibrium only through the events.  Cost: n_steps Newton
    solves plus one algebraic projection per load switch.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (system.n_param,):
        raise ValueError(f"expected {system.n_param} parameters, got {m.shape}")
    if np.any(m <= 0.0):
        raise ValueError("inertia parameters must be positive")
    if dt <= 0 or t_f <= 0:
        raise ValueError("dt and t_f must be positive")

    load_sets, step_loads = build_load_schedule(system, events, dt, t_f)
    n = len(step_loads)
    times = np.arange(n + 1) * dt
    states = np.empty((n + 1, len(system.mass)))
    states[0] = system.steady_state()
    pre_event: dict[int, np.ndarray] = {}
    total_newton = total_factored = restart = 0

    for k in range(n):
        li = step_loads[k]
        loads = load_sets[li]
        # the equilibrium belongs to load set 0, so an event active from
        # t=0 switches the manifold before the first step
        if li != (step_loads[k - 1] if k > 0 else 0):
            # load switch at node k: project onto the new manifold
            pre_event[k] = states[k].copy()
            states[k], f_k, factored = solve_algebraic(
                system, states[k], times[k], m, loads)
            total_factored += factored
            restart = k
        elif k == 0:
            f_k = system.rhs(states[k], m, loads)
        # f_k comes from the last step or projection, and Newton starts
        # from the extrapolated states, of an order that reaches back no
        # further than the last restart (y jumped at a projection node);
        # at order 0 from u_k itself
        order = min(EXTRAPOLATION_ORDER, k - restart)
        guess = None
        if order:
            u_k = states[k]
            guess = u_k + _extrapolation(order) @ (states[k - order:k] - u_k)
        states[k + 1], f_k, its, factored = step_trapezoidal(
            system, states[k], times[k], dt, m, loads, f_k, guess)
        total_newton += its
        total_factored += factored

    return Trajectory(times=times, states=states, dt=dt,
                      step_loads=step_loads, load_sets=load_sets,
                      pre_event=pre_event,
                      newton_iters=total_newton,
                      newton_factorizations=total_factored)
