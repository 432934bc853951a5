"""Discrete adjoint of the trapezoidal scheme.

Gradient of J(m) = 1/2 ||f(m) - d||^2_{Gn^-1} [+ prior term] where f
extracts bus voltages from the forward trajectory.  The sweep is the
exact transpose of the forward linearization: one backward linear
solve per step with the transposed Newton matrix evaluated at the
arrival state of that step, so

    A_k^T lam_k = a_{k+1},
    a_k = M^T lam_k + dt/2 h_u^T(u_k) lam_k + r_u^T(u_k),
    mu += dt/2 (F_m(u_k) + F_m(u_{k+1}))^T lam_k,

with a_N = r_u^T(u_N) and gradient mu [+ Gpr^-1 (m - mpr)].  Because
the misfit is a plain sum over observation instants, the data terms
r_u enter unweighted (no quadrature factor).  At load-switch nodes the
chain passes through the algebraic consistency projection: with g's
Jacobian blocks (g_x, g_y) at the post-switch state,

    a_pre = (a_x - g_x^T g_y^{-T} a_y, 0).

Cost: one gradient = one forward trajectory + one backward sweep with
the same number of linear solves as forward steps.
"""
from __future__ import annotations

import numpy as np

from .integrator import Trajectory, newton_matrix
from .ninebus import ix_vim, ix_vre
from .observation import NoiseModel, ObservationSet, POLAR, grid_indices, observe


def misfit(traj: Trajectory, obs: ObservationSet, noise: NoiseModel) -> float:
    """1/2 sum (f_i - d_i)^2 / var_i over all observation entries."""
    f = observe(traj, obs.times, obs.buses, obs.coords)
    r = f - obs.values
    return 0.5 * float(r @ (r / noise.var))


def misfit_state_gradients(traj: Trajectory, obs: ObservationSet,
                           noise: NoiseModel) -> dict[int, np.ndarray]:
    """Per-node gradient of the misfit w.r.t. the stored state.

    Returns {node index: dJ_misfit/du} with entries only in the voltage
    slots (possibly chain-ruled through magnitude/angle).
    """
    nodes = grid_indices(obs.times, traj.dt)
    f = observe(traj, obs.times, obs.buses, obs.coords)
    w = ((f - obs.values) / noise.var).reshape(len(nodes), len(obs.buses), 2)
    rv, iv = ix_vre(obs.buses), ix_vim(obs.buses)
    w0, w1 = w[:, :, 0], w[:, :, 1]
    if obs.coords == POLAR:
        vre = traj.states[nodes[:, None], rv]
        vim = traj.states[nodes[:, None], iv]
        v2 = vre * vre + vim * vim
        vm = np.sqrt(v2)
        w0, w1 = w0 * vre / vm - w1 * vim / v2, w0 * vim / vm + w1 * vre / v2

    out: dict[int, np.ndarray] = {}
    for node, g0, g1 in zip(nodes.tolist(), w0, w1):
        ru = out.setdefault(node, np.zeros(traj.states.shape[1]))
        ru[rv] += g0
        ru[iv] += g1
    return out


def _project_transpose(system, fu_post: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Pull a state gradient back through the algebraic re-solve."""
    n_x = int(system.mass.sum())
    g_x = fu_post[n_x:, :n_x]
    g_y = fu_post[n_x:, n_x:]
    w = np.linalg.solve(g_y.T, a[n_x:])
    out = np.zeros_like(a)
    out[:n_x] = a[:n_x] - g_x.T @ w
    return out


def backward_sweep(system, traj: Trajectory, m: np.ndarray,
                   obs: ObservationSet, noise: NoiseModel,
                   prior=None) -> np.ndarray:
    """Exact gradient of the discrete objective by one adjoint pass.

    `prior`, when given, must expose mean/var arrays; its quadratic
    penalty gradient Gpr^-1 (m - mean) is added to the data term.
    """
    n_x = int(system.mass.sum())
    n = traj.n_steps
    dt = traj.dt
    ru = misfit_state_gradients(traj, obs, noise)

    mu = np.zeros(system.n_param)
    a = ru.get(n, np.zeros_like(traj.states[0])).copy()
    # (fu, fm) at the arrival node of the step, carried from the later
    # step unless that node is a projection node (its loads differ)
    fu_next = None

    for k in range(n - 1, -1, -1):
        li = traj.step_loads[k]
        p, q = traj.p_loads[li], traj.q_loads[li]
        t_k, t_next = traj.times[k], traj.times[k + 1]
        u_next = traj.pre_event.get(k + 1, traj.states[k + 1])
        u_k = traj.states[k]

        if fu_next is None:
            fu_next = system.jac_u(t_next, u_next, m, p, q)
            fm_next = system.jac_m(t_next, u_next, m, p, q)
        lam = np.linalg.solve(newton_matrix(system, fu_next, dt).T, a)

        fu_k = system.jac_u(t_k, u_k, m, p, q)
        fm_k = system.jac_m(t_k, u_k, m, p, q)

        mu += 0.5 * dt * (fm_k[:n_x] + fm_next[:n_x]).T @ lam[:n_x]

        a = system.mass * lam
        a += 0.5 * dt * (fu_k[:n_x].T @ lam[:n_x])
        if k in ru:
            a += ru[k]
        if k in traj.pre_event:
            # fu_k is evaluated at the post-switch state under the new
            # loads, exactly the blocks the projection used
            a = _project_transpose(system, fu_k, a)
            fu_next = None
        else:
            fu_next, fm_next = fu_k, fm_k

    grad = mu
    if prior is not None:
        grad = grad + (m - np.asarray(prior.mean)) / np.asarray(prior.var)
    return grad
