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

Cost: one gradient = one forward trajectory + one backward sweep.  Each
step of the sweep, like each step of the tangent-linear pass below,
costs one LU of its Newton matrix (integrator.lu_factor, one dgetrf)
and one triangular solve on it (lu_solve, one dgetrs: transposed here,
3 columns there); a projection node adds one LU of g_y and one solve.
The Jacobians F_u and F_m are evaluated once per node, plus once at
each pre-switch arrival state, and carried from one step to the next.
A singular Newton matrix or g_y raises integrator.StepFailure naming
the pass and the time; so does a multiplier or a sensitivity that is
not finite (LU lets a NaN through), naming the first node it reaches.

The tangent-linear pass is the same linearization run forward and
untransposed.  It carries S_k = du_k/dm (S_0 = 0: the equilibrium does
not depend on the inertias) through

    A_{k+1} S_{k+1} = (M + dt/2 h_u(u_k)) S_k + dt/2 (F_m(u_k) + F_m(u_{k+1}))

on the differential rows, with F_m(u_{k+1}) on the algebraic rows and
A_{k+1} the Newton matrix at the (pre-switch) arrival state.  At a
load-switch node S_y = -g_y^{-1} (g_x S_x + g_m), with the blocks at the
post-switch state.  The voltage rows of S at the observation nodes,
times observation_partials (which the sweep applies transposed), give
the Jacobian J = df/dm (q x n_param); J^T Gn^-1 (f - d) is the gradient
above.  Its cost is that of one adjoint sweep (see above).
Tangent-linear and adjoint DAE sensitivities are derived together in
Cao, Li, Petzold & Serban (SIAM J. Sci. Comput. 24, 2003).

The pass keeps S at every node (post-switch, with the pre-switch S at
each projection node) in a Sensitivity.  It predicts the trajectory at
a nearby m as u_k + S_k (m - m_0), with an error of O(|m - m_0|^2).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .integrator import (StepFailure, Trajectory, lu_factor, lu_solve,
                         newton_matrix)
from .observation import NoiseModel, ObservationSet, observation_partials, observe


def residual(traj: Trajectory, obs: ObservationSet) -> np.ndarray:
    """f - d: the trajectory's observables minus the data."""
    return observe(traj, obs.times, obs.buses, obs.coords) - obs.values


def misfit(traj: Trajectory, obs: ObservationSet, noise: NoiseModel) -> float:
    """1/2 sum (f_i - d_i)^2 / var_i over all observation entries."""
    r = residual(traj, obs)
    return 0.5 * float(r @ (r / noise.var))


def misfit_state_gradients(traj: Trajectory, obs: ObservationSet,
                           noise: NoiseModel) -> dict[int, np.ndarray]:
    """Per-node gradient of the misfit w.r.t. the stored state.

    Returns {node index: dJ_misfit/du} with entries only in the voltage
    slots: the weighted residual times the observation partials.
    """
    nodes, (rv, iv), d = observation_partials(traj, obs)
    w = (residual(traj, obs) / noise.var).reshape(len(nodes), len(obs.buses), 2)
    g = w[..., 0, None] * d[..., 0, :] + w[..., 1, None] * d[..., 1, :]

    out: dict[int, np.ndarray] = {}
    for node, g_k in zip(nodes.tolist(), g):
        ru = out.setdefault(node, np.zeros(traj.states.shape[1]))
        ru[rv] += g_k[:, 0]
        ru[iv] += g_k[:, 1]
    return out


def _project_transpose(system, fu_post: np.ndarray, a: np.ndarray,
                       t: float) -> np.ndarray:
    """Pull a state gradient back through the algebraic re-solve."""
    n_x = system.n_x
    g_y_lu = lu_factor(fu_post[n_x:, n_x:], "adjoint projection", t)
    w = lu_solve(g_y_lu, a[n_x:], trans=1)
    out = np.zeros_like(a)
    out[:n_x] = a[:n_x] - fu_post[n_x:, :n_x].T @ w
    return out


def backward_sweep(system, traj: Trajectory, m: np.ndarray,
                   obs: ObservationSet, noise: NoiseModel,
                   prior=None) -> np.ndarray:
    """Exact gradient of the discrete objective by one adjoint pass.

    `prior`, when given, must expose mean/var arrays; its quadratic
    penalty gradient Gpr^-1 (m - mean) is added to the data term.
    """
    n_x = system.n_x
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
        lam = lu_solve(lu_factor(newton_matrix(system, fu_next, dt),
                                 "adjoint sweep", t_next), a, trans=1)
        if not np.isfinite(lam).all():
            raise StepFailure(f"adjoint sweep at t={t_next:.6g}: "
                              "multiplier not finite")

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
            a = _project_transpose(system, fu_k, a, t_k)
            fu_next = None
        else:
            fu_next, fm_next = fu_k, fm_k

    grad = mu
    if prior is not None:
        grad = grad + (m - np.asarray(prior.mean)) / np.asarray(prior.var)
    return grad


def _project(fu_post: np.ndarray, fm_post: np.ndarray, s: np.ndarray,
             n_x: int, t: float) -> np.ndarray:
    """Carry a sensitivity through the algebraic re-solve."""
    out = s.copy()
    g_y_lu = lu_factor(fu_post[n_x:, n_x:], "tangent-linear projection", t)
    out[n_x:] = -lu_solve(g_y_lu,
                          fu_post[n_x:, :n_x] @ s[:n_x] + fm_post[n_x:])
    return out


@dataclass(frozen=True)
class Sensitivity:
    """S_k = du_k/dm along the trajectory traj solved at m.

    states[k] (n_state x n_param) belongs to traj.states[k] and
    pre_event[k] to traj.pre_event[k].
    """
    m: np.ndarray
    traj: Trajectory
    states: np.ndarray
    pre_event: dict[int, np.ndarray]

    def predict(self, m: np.ndarray) -> Trajectory:
        """The first-order trajectory at m: u_k + S_k (m - self.m)."""
        dm = np.asarray(m, dtype=float) - self.m
        traj = self.traj
        return replace(traj, states=traj.states + self.states @ dm,
                       pre_event={k: u + self.pre_event[k] @ dm
                                  for k, u in traj.pre_event.items()},
                       newton_iters=0)


def tangent_linear(system, traj: Trajectory, m: np.ndarray,
                   obs: ObservationSet):
    """(J, Sensitivity): the Jacobian df/dm of the observables
    (q x n_param) and S at every node, by one forward sensitivity pass
    along the stored trajectory."""
    n_x = system.n_x
    dt = traj.dt
    sens = np.empty(traj.states.shape + (system.n_param,))
    pre_sens = {}
    s = np.zeros(sens.shape[1:])
    # (fu, fm) at the departure node of the step, carried from the earlier
    # step unless that node is a projection node (its loads differ)
    fu = None

    for k in range(traj.n_steps):
        li = traj.step_loads[k]
        p, q = traj.p_loads[li], traj.q_loads[li]
        if fu is None:
            fu = system.jac_u(traj.times[k], traj.states[k], m, p, q)
            fm = system.jac_m(traj.times[k], traj.states[k], m, p, q)
        if k in traj.pre_event:
            pre_sens[k] = s
            s = _project(fu, fm, s, n_x, traj.times[k])
        sens[k] = s

        t_next = traj.times[k + 1]
        u_next = traj.pre_event.get(k + 1, traj.states[k + 1])
        fu_next = system.jac_u(t_next, u_next, m, p, q)
        fm_next = system.jac_m(t_next, u_next, m, p, q)
        rhs = np.empty_like(s)
        rhs[:n_x] = s[:n_x] + 0.5 * dt * (fu[:n_x] @ s + fm[:n_x] + fm_next[:n_x])
        rhs[n_x:] = fm_next[n_x:]
        s = lu_solve(lu_factor(newton_matrix(system, fu_next, dt),
                               "tangent-linear pass", t_next), rhs)
        if k + 1 in traj.pre_event:
            fu = None
        else:
            fu, fm = fu_next, fm_next
    sens[traj.n_steps] = s
    # LU lets a NaN through: name the first node whose S is not finite
    bad = [k for k, s_k in pre_sens.items() if not np.isfinite(s_k).all()]
    bad += np.flatnonzero(~np.isfinite(sens).all(axis=(1, 2)))[:1].tolist()
    if bad:
        raise StepFailure(f"tangent-linear pass at t="
                          f"{traj.times[min(bad)]:.6g}: sensitivity not finite")

    nodes, (rv, iv), d = observation_partials(traj, obs)
    s_re, s_im = sens[nodes[:, None], rv], sens[nodes[:, None], iv]
    jac = d[..., 0, None] * s_re[:, :, None] + d[..., 1, None] * s_im[:, :, None]
    jac = jac.reshape(-1, system.n_param)
    return jac, Sensitivity(np.array(m, dtype=float), traj, sens, pre_sens)
