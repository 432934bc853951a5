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

With B^x = [I 0] + dt/2 F_u^x(u_k) (the differential rows), a_k is
B^x^T lam_k^x + r_u^T(u_k).

Cost: one gradient = one forward trajectory + one backward sweep.  Each
step of the sweep, like each step of the tangent-linear pass below,
costs one LU of its Newton matrix (integrator.lu_factor, one dgetrf)
and one triangular solve on it (lu_solve, one dgetrs: transposed here,
3 columns there); a projection node adds one LU of g_y and one solve.
Both passes walk one linearization, forward or reversed
(_linearization), which evaluates F_u's state-dependent entries and F_m
in one stacked call each and builds each step's matrices from templates
made once per load set.  bench/layers.py times and counts each pass.
A singular Newton matrix or g_y raises integrator.StepFailure naming
the pass and the time; so does a multiplier or a sensitivity that is
not finite (LU lets a NaN through), naming the first node it reaches.

The tangent-linear pass is the same linearization run forward and
untransposed.  It carries S_k = du_k/dm (S_0 = 0: the equilibrium does
not depend on the inertias) through

    A_{k+1} S_{k+1} = B^x S_k + dt/2 (F_m(u_k) + F_m(u_{k+1}))

on the differential rows, with 0 on the algebraic rows (m enters the
swing equations only, so g_m = 0) and A_{k+1} the Newton matrix at the
(pre-switch) arrival state.  At a load-switch node
S_y = -g_y^{-1} g_x S_x, with the blocks at the post-switch state.  The
voltage rows of S at the observation nodes, times observation_partials
(which the sweep applies transposed), give the Jacobian J = df/dm
(q x n_param); J^T Gn^-1 (f - d) is the gradient above.  Its cost is
that of one adjoint sweep (see above).
Tangent-linear and adjoint DAE sensitivities are derived together in
Cao, Li, Petzold & Serban (SIAM J. Sci. Comput. 24, 2003).

The pass keeps S at every node (post-switch, with the pre-switch S at
each projection node) in a Sensitivity.  With W = (S, I), the Hessian of
J is W^T L'' W for the scheme's Lagrangian L (second-order adjoint:
Wang, Navon, Le Dimet & Zou, 1992; Ozyurt & Barton, SIAM J. Sci.
Comput. 26, 2005): J_f^T Gn^-1 J_f plus the Jacobian of
lagrangian_gradient.  Its multipliers nu are one sweep's lam_k times w
(dt/2 on the differential rows, 1 below) at step k's arrival, times
dt/2 on the differential rows at its departure, and -g_y^-T a_y on g's
rows at a projection node's post-switch state.
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


def _node_stack(values, pre_event):
    """(stack, depart): values at each step's arrival (pre_event's at a
    projection node), then at node 0 and each projection node; depart[k]
    is the row of node k's stored value.  States and S stack alike."""
    starts = [0] + sorted(k for k in pre_event if k > 0)
    arrivals = values[1:].copy()
    for k in starts[1:]:
        arrivals[k - 1] = pre_event[k]
    depart = np.arange(-1, len(arrivals) - 1)
    depart[starts] = len(arrivals) + np.arange(len(starts))
    return np.concatenate((arrivals, values[starts])), depart


def _linearization(system, traj: Trajectory, m: np.ndarray,
                   names: tuple[str, str], reverse: bool = False):
    """(stack, depart, entries, jm, steps): _node_stack of traj's
    states, F_u's state-dependent entries and F_m at each, and the
    linearization of traj at m, step by step, in time order or reversed:
    steps yields for step k under its load set traj.step_loads[k] (k,
    B^x, dt/2 (F_m(u_k) + F_m(u_{k+1})) on the differential rows, the
    Newton matrix's LU, and at a projection node k (g_x, g_y's LU), else
    None).

    B^x and g_x, g_y are taken at node k's stored (post-switch) state,
    the Newton matrix and F_m(u_{k+1}) at the arrival state, pre-switch
    at a projection node: F_u's entries and F_m are evaluated once at
    every state of the stack.  The Newton matrix and B^x of a load set
    are built once without the entries; a step copies them and writes
    its entries.  names = (pass, projection) name a singular matrix's
    StepFailure.
    """
    n_x, n, dt = system.n_x, traj.n_steps, traj.dt
    stack, depart = _node_stack(traj.states, traj.pre_event)
    entries = system.jac_u_entries(stack, m)
    jm = system.jac_m(stack, m)
    fm_steps = 0.5 * dt * (jm[depart, :n_x] + jm[:n, :n_x])

    n_state = stack.shape[1]
    rows, cols = np.divmod(system.jac_idx, n_state)
    in_x = rows < n_x
    diag = (rows == cols).astype(float)
    # the entries as the matrices hold them: M - dt/2 F_u on differential
    # rows and -F_u below in the Newton matrix, [I 0] + dt/2 F_u^x in B^x
    a_vals = entries[:n] * np.where(in_x, -0.5 * dt, -1.0) + diag
    b_vals = entries[depart][:, in_x] * (0.5 * dt) + diag[in_x]
    a_idx = cols * n_state + rows     # column-major: A is Fortran-ordered
    b_idx = system.jac_idx[in_x]
    a_tpl, b_tpl = [], []
    for loads in traj.load_sets:
        a_tpl.append(np.asfortranarray(newton_matrix(system, loads, dt)))
        b = 0.5 * dt * loads[:n_x]
        b.flat[::n_state + 1] += 1.0
        b_tpl.append(b)

    def steps():
        for k in reversed(range(n)) if reverse else range(n):
            li = traj.step_loads[k]
            a = a_tpl[li].copy(order="F")
            a.ravel(order="F")[a_idx] = a_vals[k]
            step_lu = lu_factor(a, names[0], traj.times[k + 1])
            b = b_tpl[li].copy()
            b.reshape(-1)[b_idx] = b_vals[k]
            projection = None
            if k in traj.pre_event:
                fu = traj.load_sets[li].copy()
                fu.reshape(-1)[system.jac_idx] = entries[depart[k]]
                projection = fu[n_x:, :n_x], lu_factor(
                    fu[n_x:, n_x:], names[1], traj.times[k])
            yield k, b, fm_steps[k], step_lu, projection
    return stack, depart, entries, jm, steps()


def _sweep(system, traj: Trajectory, m: np.ndarray, obs: ObservationSet,
           noise: NoiseModel):
    """The adjoint sweep: (mu, nu, (stack, entries, jm)), the misfit's
    gradient, the multipliers nu of F at each state of _node_stack (see
    the module docstring) and _linearization's stacked evaluation."""
    n_x = system.n_x
    ru = misfit_state_gradients(traj, obs, noise)
    stack, depart, entries, jm, steps = _linearization(
        system, traj, m, ("adjoint sweep", "adjoint projection"), reverse=True)
    mu = np.zeros(system.n_param)
    nu = np.zeros_like(stack)
    a = ru.get(traj.n_steps, np.zeros_like(traj.states[0])).copy()
    for k, b, fm, step_lu, projection in steps:
        lam = nu[k] = lu_solve(step_lu, a, trans=1)
        if not np.isfinite(lam).all():
            raise StepFailure(f"adjoint sweep at t={traj.times[k + 1]:.6g}: "
                              "multiplier not finite")

        mu += fm.T @ lam[:n_x]
        a = b.T @ lam[:n_x]
        if k in ru:
            a += ru[k]
        if projection is not None:
            # pull a back through the algebraic re-solve
            g_x, g_y_lu = projection
            beta = lu_solve(g_y_lu, a[n_x:], trans=1)
            a[:n_x] -= g_x.T @ beta
            a[n_x:] = 0.0
            nu[depart[k], n_x:] = -beta
    nu[depart, :n_x] += nu[:traj.n_steps, :n_x]
    # F enters the scheme times dt/2 on the differential rows, 1 below
    nu[:, :n_x] *= 0.5 * traj.dt
    return mu, nu, (stack, entries, jm)


def backward_sweep(system, traj: Trajectory, m: np.ndarray,
                   obs: ObservationSet, noise: NoiseModel,
                   prior=None) -> np.ndarray:
    """Exact gradient of the discrete objective by one adjoint pass.

    `prior`, when given, must expose mean/var arrays; its quadratic
    penalty gradient Gpr^-1 (m - mean) is added to the data term.
    """
    grad = _sweep(system, traj, m, obs, noise)[0]
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


def lagrangian_gradient(system, sens: Sensitivity, obs: ObservationSet,
                        noise: NoiseModel):
    """change(m'): the change from sens.m of W^T times the gradient in
    (u, m') of sum_u nu_u^T F(u, m') and of the observation map against
    the held weighted residual, at the states u + S (m' - m) predicted
    from sens.  Its Jacobian at sens.m is the misfit's Hessian less
    J_f^T Gn^-1 J_f; it solves none."""
    traj, m = sens.traj, sens.m
    _, nu, (stack, entries, jm) = _sweep(system, traj, m, obs, noise)
    s_stack = _node_stack(sens.states, sens.pre_event)[0]
    rows, cols = np.divmod(system.jac_idx, stack.shape[1])
    nu_s = nu[:, rows, None] * s_stack[:, cols]
    nodes, (rv, iv), d = observation_partials(traj, obs)
    wr = (residual(traj, obs) / noise.var).reshape(len(nodes), len(rv), 2)
    s_obs = sens.states[nodes[:, None, None], np.stack((rv, iv), axis=1)]

    def change(m_new):
        dm = m_new - m
        moved = stack + s_stack @ dm
        d_new = observation_partials(replace(
            traj, states=traj.states + sens.states @ dm), obs)[2]
        return np.einsum("ke,kei->i",
                         system.jac_u_entries(moved, m_new) - entries, nu_s) \
            + np.einsum("ksi,ks->i", system.jac_m(moved, m_new) - jm, nu) \
            + np.einsum("tbc,tbcv,tbvi->i", wr, d_new - d, s_obs)
    return change


def tangent_linear(system, traj: Trajectory, m: np.ndarray,
                   obs: ObservationSet):
    """(J, Sensitivity): the Jacobian df/dm of the observables
    (q x n_param) and S at every node, by one forward sensitivity pass
    along the stored trajectory."""
    n_x = system.n_x
    sens = np.empty(traj.states.shape + (system.n_param,))
    pre_sens = {}
    s = np.zeros(sens.shape[1:])
    rhs = np.zeros(s.shape, order="F")
    for k, b, fm, step_lu, projection in _linearization(
            system, traj, m, ("tangent-linear pass",
                              "tangent-linear projection"))[-1]:
        if projection is not None:
            # carry s through the algebraic re-solve
            g_x, g_y_lu = projection
            pre_sens[k] = s
            s = np.vstack((s[:n_x], -lu_solve(g_y_lu, g_x @ s[:n_x])))
        sens[k] = s

        np.add(b @ s, fm, out=rhs[:n_x])
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
