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
(_linearization).  The trajectory is stored, so every state it needs is
known before the first step: F_u's state-dependent entries and F_m are
evaluated in one stacked call each (system.jac_u_entries, system.jac_m)
at every node, plus every pre-switch arrival state.  Per load set the
Newton matrix and B^x are built once without those entries; a step
copies them and writes its entries, and a projection node writes its
entries into the load set's matrix.  On the 9-bus model (Xeon, one
BLAS thread, numpy 2.4, scipy 1.17) a 1 s pass of 100 steps takes
about 2.9 ms, 12.7 us of each step's 28 us in dgetrf.
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


def _linearization(system, traj: Trajectory, m: np.ndarray,
                   names: tuple[str, str], reverse: bool = False):
    """The linearization of traj at m, step by step, in time order or
    reversed: for step k under its load set traj.step_loads[k], (k, B^x,
    dt/2 (F_m(u_k) + F_m(u_{k+1})) on the differential rows, the Newton
    matrix's LU, and at a projection node k (g_x, g_y's LU), else None).

    B^x and g_x, g_y are taken at node k's stored (post-switch) state,
    the Newton matrix and F_m(u_{k+1}) at the arrival state, pre-switch
    at a projection node.  The stack of evaluated states is every
    arrival state plus the departures that are no step's arrival: node 0
    and each projection node.  names = (pass, projection) name a
    singular matrix's StepFailure.
    """
    n_x, n, dt = system.n_x, traj.n_steps, traj.dt
    starts = [0] + sorted(k for k in traj.pre_event if k > 0)
    arrivals = traj.states[1:].copy()
    for k in starts[1:]:
        arrivals[k - 1] = traj.pre_event[k]
    stack = np.vstack((arrivals, traj.states[starts]))
    # row of node k's stored state: the arrival of step k - 1, or a start
    depart = np.arange(-1, n - 1)
    depart[starts] = n + np.arange(len(starts))

    entries = system.jac_u_entries(stack, m)
    fm = system.jac_m(stack, m)[:, :n_x]
    fm_steps = 0.5 * dt * (fm[depart] + fm[:n])

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

    steps = range(n)
    for k in reversed(steps) if reverse else steps:
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
            projection = fu[n_x:, :n_x], lu_factor(fu[n_x:, n_x:], names[1],
                                                   traj.times[k])
        yield k, b, fm_steps[k], step_lu, projection


def backward_sweep(system, traj: Trajectory, m: np.ndarray,
                   obs: ObservationSet, noise: NoiseModel,
                   prior=None) -> np.ndarray:
    """Exact gradient of the discrete objective by one adjoint pass.

    `prior`, when given, must expose mean/var arrays; its quadratic
    penalty gradient Gpr^-1 (m - mean) is added to the data term.
    """
    n_x = system.n_x
    ru = misfit_state_gradients(traj, obs, noise)

    mu = np.zeros(system.n_param)
    a = ru.get(traj.n_steps, np.zeros_like(traj.states[0])).copy()
    for k, b, fm, step_lu, projection in _linearization(
            system, traj, m, ("adjoint sweep", "adjoint projection"),
            reverse=True):
        lam = lu_solve(step_lu, a, trans=1)
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
            a[:n_x] -= g_x.T @ lu_solve(g_y_lu, a[n_x:], trans=1)
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
    sens = np.empty(traj.states.shape + (system.n_param,))
    pre_sens = {}
    s = np.zeros(sens.shape[1:])
    rhs = np.zeros(s.shape, order="F")
    for k, b, fm, step_lu, projection in _linearization(
            system, traj, m, ("tangent-linear pass", "tangent-linear projection")):
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
