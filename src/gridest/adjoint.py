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
Both passes take their LUs and Jacobians from one walk over the steps:
F_u and F_m once per node, plus once per pre-switch arrival state.
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


def _linearized_steps(system, traj: Trajectory, m: np.ndarray,
                      names: tuple[str, str], reverse: bool = False):
    """The linearization of traj at m, step by step, in time order or
    reversed: for step k, under its load-set matrix
    traj.load_sets[traj.step_loads[k]], (k, (F_u, F_m) at node k's
    stored state, (F_u, F_m) at the arrival state, the Newton matrix's
    LU, g_y's LU at a projection node k or None).  The arrival state is
    pre-switch at a projection node; the stored one is post-switch.
    Each step first evaluates the node it shares with the step before
    it in walk order, so a one-entry memo evaluates a plain node once.
    names = (pass, projection) name a singular matrix's StepFailure.
    """
    n_x = system.n_x
    latest = None, None     # (node, (F_u, F_m)) evaluated last
    steps = range(traj.n_steps)
    for k in reversed(steps) if reverse else steps:
        loads = traj.load_sets[traj.step_loads[k]]
        jac = {}
        for node in (k + 1, k) if reverse else (k, k + 1):
            if latest[0] != node or node in traj.pre_event:
                u = (traj.states[k] if node == k
                     else traj.pre_event.get(node, traj.states[node]))
                latest = node, (system.jac_u(u, m, loads),
                                system.jac_m(u, m))
            jac[node] = latest[1]
        step_lu = lu_factor(newton_matrix(system, jac[k + 1][0], traj.dt),
                            names[0], traj.times[k + 1])
        g_y_lu = (lu_factor(jac[k][0][n_x:, n_x:], names[1], traj.times[k])
                  if k in traj.pre_event else None)
        yield k, jac[k], jac[k + 1], step_lu, g_y_lu


def backward_sweep(system, traj: Trajectory, m: np.ndarray,
                   obs: ObservationSet, noise: NoiseModel,
                   prior=None) -> np.ndarray:
    """Exact gradient of the discrete objective by one adjoint pass.

    `prior`, when given, must expose mean/var arrays; its quadratic
    penalty gradient Gpr^-1 (m - mean) is added to the data term.
    """
    n_x = system.n_x
    dt = traj.dt
    ru = misfit_state_gradients(traj, obs, noise)

    mu = np.zeros(system.n_param)
    a = ru.get(traj.n_steps, np.zeros_like(traj.states[0])).copy()
    for k, (fu_k, fm_k), (_, fm_next), step_lu, g_y_lu in _linearized_steps(
            system, traj, m, ("adjoint sweep", "adjoint projection"),
            reverse=True):
        lam = lu_solve(step_lu, a, trans=1)
        if not np.isfinite(lam).all():
            raise StepFailure(f"adjoint sweep at t={traj.times[k + 1]:.6g}: "
                              "multiplier not finite")

        mu += 0.5 * dt * (fm_k[:n_x] + fm_next[:n_x]).T @ lam[:n_x]

        a = system.mass * lam
        a += 0.5 * dt * (fu_k[:n_x].T @ lam[:n_x])
        if k in ru:
            a += ru[k]
        if g_y_lu is not None:
            # pull a back through the algebraic re-solve
            a[:n_x] -= fu_k[n_x:, :n_x].T @ lu_solve(g_y_lu, a[n_x:], trans=1)
            a[n_x:] = 0.0

    grad = mu
    if prior is not None:
        grad = grad + (m - np.asarray(prior.mean)) / np.asarray(prior.var)
    return grad


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
                       newton_iters=0, newton_factorizations=0)


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
    for k, (fu, fm), (_, fm_next), step_lu, g_y_lu in _linearized_steps(
            system, traj, m, ("tangent-linear pass", "tangent-linear projection")):
        if g_y_lu is not None:
            # carry s through the algebraic re-solve
            pre_sens[k] = s
            s = np.vstack((s[:n_x], -lu_solve(
                g_y_lu, fu[n_x:, :n_x] @ s[:n_x] + fm[n_x:])))
        sens[k] = s

        rhs = np.empty_like(s)
        rhs[:n_x] = s[:n_x] + 0.5 * dt * (fu[:n_x] @ s + fm[:n_x] + fm_next[:n_x])
        rhs[n_x:] = fm_next[n_x:]
        s = lu_solve(step_lu, rhs)
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
