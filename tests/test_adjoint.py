"""Discrete-adjoint gradient against finite differences and hand oracles."""
import re
from collections import Counter

import numpy as np
import pytest
from conftest import M_TRUE

import gridest.adjoint
from gridest.adjoint import (backward_sweep, misfit, misfit_state_gradients,
                             residual, tangent_linear)
from gridest.bayes import (AdjointObjective, GaussianPrior, hessian_inverse,
                           laplace_covariance, map_estimate)
from gridest.integrator import StepFailure, simulate
from gridest.ninebus import (EDP, EQP, N_BUS, N_STATE, OMEGA, DisturbanceEvent,
                             ix_id, ix_iq, ix_vim, ix_vre)
from gridest.observation import (POLAR, RECT, NoiseModel, ObservationSet,
                                 observation_times, observe,
                                 synthesize_observations)

T_F, DT = 0.5, 0.01
EVENTS = (DisturbanceEvent(bus=5, start=0.1, duration=0.2, load=5.5),)


@pytest.fixture(scope="module")
def small_case(make_scenario):
    obs, noise, _ = make_scenario(T_F, dt_obs=0.1)
    return obs, noise


def _objective(system, m, obs, noise, prior=None, events=EVENTS):
    traj = simulate(system, m, T_F, DT, events=events)
    j = misfit(traj, obs, noise)
    if prior is not None:
        j += prior.neg_log(m)
    return j, traj


def _assert_gradient_matches_fd(system, m, obs, noise, events=EVENTS):
    traj = simulate(system, m, T_F, DT, events=events)
    grad = backward_sweep(system, traj, m, obs, noise)
    for j in range(3):
        h = 1e-6 * m[j]
        e = np.zeros(3)
        e[j] = h
        jp, _ = _objective(system, m + e, obs, noise, events=events)
        jm, _ = _objective(system, m - e, obs, noise, events=events)
        fd = (jp - jm) / (2 * h)
        assert abs(grad[j] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_misfit_hand_oracle(system, small_case):
    obs, noise = small_case
    traj = simulate(system, M_TRUE, T_F, DT, events=EVENTS)
    f = observe(traj, obs.times, obs.buses, obs.coords)
    expected = 0.5 * np.sum((f - obs.values) ** 2 / noise.var)
    assert misfit(traj, obs, noise) == pytest.approx(expected, rel=1e-14)


def test_gradient_matches_finite_differences(system, small_case):
    obs, noise = small_case
    for m in (np.array([24.0, 6.0, 3.1]), np.array([20.0, 7.0, 2.5])):
        _assert_gradient_matches_fd(system, m, obs, noise)


# paths where the forward solve starts Newton from u_k instead of the
# extrapolated state: a projection at node 0, several projection nodes
BRANCH_CASES = {
    "polar": (POLAR, EVENTS),
    "event-at-t0": (RECT, (DisturbanceEvent(bus=5, start=0.0, duration=0.2,
                                            load=5.5),)),
    "two-events": (RECT, (DisturbanceEvent(bus=5, start=0.1, duration=0.1,
                                           load=5.5),
                          DisturbanceEvent(bus=8, start=0.3, duration=0.1,
                                           load=3.0))),
}


@pytest.mark.parametrize("coords, events", BRANCH_CASES.values(),
                         ids=BRANCH_CASES.keys())
def test_gradient_matches_finite_differences_on_branch_paths(system, coords,
                                                             events):
    traj = simulate(system, M_TRUE, T_F, DT, events=events)
    times = observation_times(T_F, 0.1)
    noise = NoiseModel.iid(1e-4, 2 * N_BUS * len(times))
    obs = synthesize_observations(traj, times, noise, seed=1234,
                                  coords=coords)
    _assert_gradient_matches_fd(system, np.array([24.0, 6.0, 3.1]), obs,
                                noise, events)


def test_prior_term_is_exactly_additive(system, small_case):
    obs, noise = small_case
    prior = GaussianPrior(mean=np.array([24.0, 6.0, 3.1]),
                          var=np.array([5.76, 0.36, 0.09]))
    m = np.array([22.0, 6.5, 2.9])
    traj = simulate(system, m, T_F, DT, events=EVENTS)
    g0 = backward_sweep(system, traj, m, obs, noise)
    g1 = backward_sweep(system, traj, m, obs, noise, prior=prior)
    assert np.allclose(g1 - g0, (m - prior.mean) / prior.var, atol=1e-14)


def test_gradient_vanishes_on_noiseless_data_at_truth(system):
    m_true = M_TRUE
    traj = simulate(system, m_true, T_F, DT, events=EVENTS)
    times = observation_times(T_F, 0.1)
    noise = NoiseModel.iid(1e-4, 2 * N_BUS * len(times))
    from gridest.observation import ObservationSet
    obs = ObservationSet(times=times, buses=np.arange(N_BUS),
                         values=observe(traj, times))
    assert misfit(traj, obs, noise) == 0.0
    grad = backward_sweep(system, traj, m_true, obs, noise)
    assert np.max(np.abs(grad)) < 1e-14


def test_misfit_state_gradients_placement(system, small_case):
    obs, noise = small_case
    traj = simulate(system, M_TRUE, T_F, DT, events=EVENTS)
    ru = misfit_state_gradients(traj, obs, noise)
    # entries exactly at the observation nodes
    assert set(ru) == {10, 20, 30, 40, 50}
    g = ru[30]
    # gradient lives in the voltage slots only
    assert np.max(np.abs(g[:27])) == 0.0
    # finite-difference check by perturbing the stored state directly
    h = 1e-7
    for col in (27, 28, 35, 44):
        states = traj.states.copy()
        base = misfit(traj, obs, noise)
        traj2 = simulate(system, M_TRUE, T_F, DT, events=EVENTS)
        traj2.states[30, col] += h
        up = misfit(traj2, obs, noise)
        traj2.states[30, col] -= 2 * h
        dn = misfit(traj2, obs, noise)
        fd = (up - dn) / (2 * h)
        assert g[col] == pytest.approx(fd, rel=1e-6, abs=1e-6)
        traj.states[:] = states
    # two observation times that fall on one node add their rows
    q = 2 * N_BUS
    one = ObservationSet([0.3], obs.buses, obs.values[2 * q:3 * q])
    twin = ObservationSet([0.3, 0.3 + 1e-10], obs.buses,
                          np.tile(one.values, 2))
    ru_one = misfit_state_gradients(traj, one, NoiseModel.iid(1e-4, q))
    ru_twin = misfit_state_gradients(traj, twin, NoiseModel.iid(1e-4, 2 * q))
    assert set(ru_twin) == {30}
    assert np.array_equal(ru_twin[30], 2.0 * ru_one[30])
    assert np.array_equal(ru_one[30], g)


def test_misfit_state_gradients_polar(system):
    traj = simulate(system, M_TRUE, T_F, DT, events=EVENTS)
    times = observation_times(T_F, 0.25)
    noise = NoiseModel.iid(1e-4, 2 * N_BUS * len(times))
    obs = synthesize_observations(traj, times, noise, seed=7, coords="polar")
    ru = misfit_state_gradients(traj, obs, noise)
    node = 25
    g = ru[node]
    h = 1e-7
    for col in (27, 30, 41):
        traj2 = simulate(system, M_TRUE, T_F, DT, events=EVENTS)
        traj2.states[node, col] += h
        up = misfit(traj2, obs, noise)
        traj2.states[node, col] -= 2 * h
        dn = misfit(traj2, obs, noise)
        fd = (up - dn) / (2 * h)
        assert g[col] == pytest.approx(fd, rel=1e-5, abs=1e-6)


PRIOR = GaussianPrior(mean=np.array([24.0, 6.0, 3.1]),
                      var=np.array([5.76, 0.36, 0.09]))


def _observed_case(system, coords, events):
    traj = simulate(system, M_TRUE, T_F, DT, events=events)
    times = observation_times(T_F, 0.1)
    noise = NoiseModel.iid(1e-4, 2 * N_BUS * len(times))
    obs = synthesize_observations(traj, times, noise, seed=1234,
                                  coords=coords)
    return obs, noise


TANGENT_CASES = {"rect": (RECT, EVENTS), **BRANCH_CASES}


@pytest.mark.parametrize("coords, events", TANGENT_CASES.values(),
                         ids=TANGENT_CASES.keys())
def test_tangent_linear_gradient_matches_adjoint(system, coords, events):
    # J^T Gn^-1 r + Gpr^-1 (m - m_pr) is the adjoint gradient to roundoff
    obs, noise = _observed_case(system, coords, events)
    rng = np.random.default_rng(11)
    points = [PRIOR.mean] + [PRIOR.mean * (1.0 + 0.2 * rng.uniform(-1, 1, 3))
                             for _ in range(2)]
    for m in points:
        traj = simulate(system, m, T_F, DT, events=events)
        jac, _ = tangent_linear(system, traj, m, obs)
        assert jac.shape == (obs.size, 3)
        g_tl = jac.T @ (residual(traj, obs) / noise.var) \
            + (m - PRIOR.mean) / PRIOR.var
        g_adj = backward_sweep(system, traj, m, obs, noise, prior=PRIOR)
        assert np.max(np.abs(g_tl - g_adj)) <= 1e-10 * np.max(np.abs(g_adj))


@pytest.mark.parametrize("coords, events", TANGENT_CASES.values(),
                         ids=TANGENT_CASES.keys())
def test_tangent_linear_matches_finite_differences(system, coords, events):
    obs, _ = _observed_case(system, coords, events)
    m = np.array([22.0, 6.5, 2.9])

    def f(x):
        traj = simulate(system, x, T_F, DT, events=events)
        return observe(traj, obs.times, obs.buses, obs.coords)
    fd = np.empty((obs.size, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1e-6 * m[j]
        fd[:, j] = (f(m + e) - f(m - e)) / (2.0 * e[j])
    jac, _ = tangent_linear(
        system, simulate(system, m, T_F, DT, events=events), m, obs)
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_tangent_linear_vanishes_without_disturbance(system):
    # the trajectory stays at the equilibrium, which no inertia moves
    obs, _ = _observed_case(system, RECT, ())
    m = np.array([22.0, 6.5, 2.9])
    jac, _ = tangent_linear(system, simulate(system, m, T_F, DT), m, obs)
    assert jac.shape == (obs.size, 3)
    assert np.max(np.abs(jac)) <= 1e-14


def test_observation_past_the_horizon_is_named(system, small_case):
    # data to 0.5 s on a 0.3 s trajectory: both passes name the first
    # time past the end instead of indexing past the stored states
    obs, noise = small_case
    m = M_TRUE
    traj = simulate(system, m, 0.3, DT, events=EVENTS)
    with pytest.raises(ValueError, match="observation time 0.4 is past the "
                                         "end of the trajectory at t=0.3"):
        tangent_linear(system, traj, m, obs)
    with pytest.raises(ValueError, match="observation time 0.4 is past"):
        backward_sweep(system, traj, m, obs, noise)


def _map_objective(system, coords, events):
    """An AdjointObjective on the case's data, linearized at its MAP."""
    obs, noise = _observed_case(system, coords, events)
    objective = AdjointObjective(system, obs, noise, PRIOR, T_F, DT, events)
    res = map_estimate(objective, PRIOR.mean.copy())
    assert np.array_equal(objective.anchor.m, res.x)
    return objective, res.x


def _central_hessian(m, grad_fn, rel_step=1e-4):
    """The Laplace Hessian of the central-difference scheme, at steps
    rel_step |m_j|: the reference for the one-sided one."""
    cols = []
    for j in range(m.size):
        e = np.zeros(m.size)
        e[j] = rel_step * abs(m[j])
        cols.append((grad_fn(m + e) - grad_fn(m - e)) / (2.0 * e[j]))
    hess = np.column_stack(cols)
    return 0.5 * (hess + hess.T)


@pytest.mark.parametrize("coords, events", TANGENT_CASES.values(),
                         ids=TANGENT_CASES.keys())
def test_predicted_laplace_hessian_matches_adjoint_fd(system, coords, events):
    # one-sided differences of the gradient on the predicted trajectory,
    # from the gradient of the MAP driver's last linearization, against
    # central differences of the adjoint gradient of full solves
    objective, m_map = _map_objective(system, coords, events)
    n_fwd, n_tan = objective.n_forward, objective.n_tangent
    _, hess = laplace_covariance(m_map, objective.predicted_gradient,
                                 objective.anchor_gradient)
    # every gradient call solves forward, so no adjoint sweep ran either
    assert objective.n_forward == n_fwd
    assert objective.n_tangent == n_tan + 3
    hess_adj = _central_hessian(m_map, objective.gradient)
    assert np.max(np.abs(hess - hess_adj)) <= 1e-6 * np.max(np.abs(hess_adj))


def test_anchor_gradient_is_the_predicted_gradient_at_the_map(system):
    # the prediction at dm = 0 is the anchor's own trajectory, so handing
    # in the driver's gradient saves a pass and changes no bit
    objective, m_map = _map_objective(system, RECT, EVENTS)
    assert np.array_equal(objective.predicted_gradient(m_map),
                          objective.anchor_gradient)


@pytest.mark.parametrize("coords, events", TANGENT_CASES.values(),
                         ids=TANGENT_CASES.keys())
def test_one_sided_laplace_variances_match_central_reference(system, coords,
                                                             events):
    """The one-sided Laplace step agrees with the central one it replaced.

    The inertias enter the swing equations as 1/m_j, whose log-derivatives
    m_j d_j and m_j^2 d_j^2 are -1 and 2 relative; take 2 as the scale of
    m_j d_j on the Hessian.

    The reference takes central differences of the predicted gradient at
    h_c = 1e-4 |m_j|.  The prediction error 1/2 T''[dm, dm] is even in dm
    and cancels, so the reference is off by (h_c^2 / 6) d_j^2 g, about
    1e-8 * 4 / 6 < 1e-8 of a Hessian column.

    The one-sided column at h = FD_REL_STEP |m_j| = 1e-7 |m_j| is off by
    its truncation error (h / 2) d_j H[:, j] and by the prediction error
    at m + h e_j over h, which is of the same O(h) size: each about
    1e-7 / 2 * 2 = 1e-7 of the column.  Roundoff adds eps |g| / h, about
    1e-9.  So the Hessians differ by delta = 2e-7 of a column.

    With H = D C D and D^2 = diag(H), Gpost_ii = (C^-1)_ii / H_ii, and a
    relative perturbation delta of C moves (C^-1)_ii by at most
    kappa(C) delta relative.  The three inertias are seen through the
    same bus voltages, so C is far from diagonal, but it stays far from
    singular: kappa(C) is 23 to 40 on these cases.  Taking kappa <= 50,
    the variances agree within 50 * 2e-7 = 1e-5 relative.
    """
    objective, m_map = _map_objective(system, coords, events)
    gpost, _ = laplace_covariance(m_map, objective.predicted_gradient,
                                  objective.anchor_gradient)
    ref = hessian_inverse(_central_hessian(m_map,
                                           objective.predicted_gradient))
    rel = np.abs(np.diag(gpost) / np.diag(ref) - 1.0)
    assert np.max(rel) <= 1e-5


def test_predicted_laplace_hessian_without_disturbance(system):
    # the trajectory does not depend on m: only the prior curves J
    objective, m_map = _map_objective(system, RECT, ())
    _, hess = laplace_covariance(m_map, objective.predicted_gradient,
                                 objective.predicted_gradient(m_map))
    assert np.allclose(hess, np.diag(1.0 / PRIOR.var), rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("coords, events", BRANCH_CASES.values(),
                         ids=BRANCH_CASES.keys())
def test_prediction_error_is_second_order(system, coords, events):
    m0 = np.array([22.0, 6.5, 2.9])
    obs, _ = _observed_case(system, coords, events)
    _, sens = tangent_linear(system, simulate(system, m0, T_F, DT, events),
                             m0, obs)
    dm = 0.02 * m0 * np.array([1.0, -1.0, 1.0])
    errs = []
    for scale in (1.0, 0.5):
        m = m0 + scale * dm
        exact = simulate(system, m, T_F, DT, events)
        predicted = sens.predict(m)
        assert set(predicted.pre_event) == set(exact.pre_event)
        errs.append(max([np.max(np.abs(predicted.states - exact.states))]
                        + [np.max(np.abs(predicted.pre_event[k] - u))
                           for k, u in exact.pre_event.items()]))
    assert 3.5 < errs[0] / errs[1] < 4.5


class JacobianCounter:
    """The system, with the states its Jacobian evaluations take counted:
    one per jac_u call, the rows of the stack per jac_u_entries or jac_m
    call; `stacks` counts the stacked calls."""

    def __init__(self, system):
        self._system = system
        self.calls = Counter()
        self.stacks = 0

    def __getattr__(self, name):
        return getattr(self._system, name)

    def jac_u(self, *args):
        self.calls["jac_u"] += 1
        return self._system.jac_u(*args)

    def jac_u_entries(self, states, m):
        self.calls["jac_u_entries"] += len(states)
        self.stacks += 1
        return self._system.jac_u_entries(states, m)

    def jac_m(self, states, m):
        self.calls["jac_m"] += len(states)
        self.stacks += 1
        return self._system.jac_m(states, m)


CARRY_CASES = {"one-event": EVENTS,
               "event-at-t0": BRANCH_CASES["event-at-t0"][1],
               "two-events": BRANCH_CASES["two-events"][1]}


@pytest.mark.parametrize("events", CARRY_CASES.values(),
                         ids=CARRY_CASES.keys())
def test_sensitivity_passes_carry_their_jacobians(system, events,
                                                  monkeypatch):
    # F_u's entries and F_m at each node, and again at each pre-switch
    # arrival state, in one stacked call each; one LU per step and per
    # projection, none by solve
    obs, noise = _observed_case(system, RECT, events)
    m = PRIOR.mean
    traj = simulate(system, m, T_F, DT, events=events)
    factor = gridest.adjoint.lu_factor
    n_lu = Counter()

    def counted(*args):
        n_lu["lu"] += 1
        return factor(*args)

    def no_solve(*args):
        raise AssertionError("np.linalg.solve in a sensitivity pass")

    monkeypatch.setattr(gridest.adjoint, "lu_factor", counted)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    arrivals = len([k for k in traj.pre_event if k > 0])
    for run in (lambda s: tangent_linear(s, traj, m, obs),
                lambda s: backward_sweep(s, traj, m, obs, noise)):
        counter = JacobianCounter(system)
        n_lu.clear()
        run(counter)
        assert counter.calls == {"jac_u_entries": traj.n_steps + 1 + arrivals,
                                 "jac_m": traj.n_steps + 1 + arrivals}
        assert counter.stacks == 2
        assert n_lu["lu"] == traj.n_steps + len(traj.pre_event)


def _entry(system, row, col):
    """The column of F_u's entry (row, col) in jac_u_entries."""
    return int(np.flatnonzero(system.jac_idx == row * N_STATE + col)[0])


class JacobianFault:
    """The system, with F_u's entries spoiled at the state u.

    A pass takes F_u's constant part from the trajectory's load sets, so
    a fault reaches its matrices only through jac_u_entries.  "nan" sets
    one entry, machine 1's current injection into bus 1 (row Vre_1,
    column Id_1), to NaN: it is in the Newton matrix and in g_y.
    "singular" makes both matrices singular through machine 1's entries:
    - the Newton matrix's swing row holds entries only, 1 - dt/2 F_u on
      the diagonal, so it vanishes when the diagonal entry is 2/dt and
      the other four are 0;
    - no row or column of g_y holds entries only.  An infinite current
      injection in Id_1, g_y's first column, is LU's first pivot, which
      drops its row and column (every multiplier x/inf is 0).  With the
      stator resistance 0 and the stator-voltage entries 0, the q-axis
      stator row is then empty.
    """

    def __init__(self, system, u, fault):
        self._system = system
        self.u, self.fault = u, fault

    def __getattr__(self, name):
        return getattr(self._system, name)

    def jac_u_entries(self, states, m):
        entries = self._system.jac_u_entries(states, m)
        system, om = self._system, OMEGA
        inject = _entry(system, ix_vre(0), ix_id(0))
        for k in np.flatnonzero((states == self.u).all(axis=1)):
            if self.fault == "nan":
                entries[k, inject] = np.nan
                continue
            for col in (EQP, EDP, ix_id(0), ix_iq(0)):
                entries[k, _entry(system, om, col)] = 0.0
            entries[k, _entry(system, om, om)] = 2.0 / DT
            entries[k, inject] = np.inf
            for col in (ix_vre(0), ix_vim(0)):
                entries[k, _entry(system, ix_iq(0), col)] = 0.0
        return entries


# (node, where a singular Jacobian stops the tangent pass, and the sweep):
# a plain step node, and the post-switch state of a projection node
FAULT_NODES = {
    "step": (20, "tangent-linear pass", "adjoint sweep"),
    "projection": (10, "tangent-linear projection", "adjoint projection"),
}


def _faulty_passes(system, small_case, node, fault):
    """The two passes on a clean trajectory, with F_u's entries spoiled
    at node's stored state."""
    obs, noise = small_case
    m = PRIOR.mean
    traj = simulate(system, m, T_F, DT, events=EVENTS)
    bad = JacobianFault(system, traj.states[node], fault)
    return (lambda: tangent_linear(bad, traj, m, obs),
            lambda: backward_sweep(bad, traj, m, obs, noise)), traj.times[node]


@pytest.mark.parametrize("node, tangent_where, sweep_where",
                         FAULT_NODES.values(), ids=FAULT_NODES.keys())
def test_singular_jacobian_stops_both_passes(system, small_case, node,
                                             tangent_where, sweep_where):
    (tangent, sweep), t = _faulty_passes(system, small_case, node, "singular")
    for run, where in ((tangent, tangent_where), (sweep, sweep_where)):
        with pytest.raises(StepFailure, match="^" + re.escape(
                f"{where} at t={t:.6g}: singular matrix")):
            run()


@pytest.mark.parametrize("node", [v[0] for v in FAULT_NODES.values()],
                         ids=FAULT_NODES.keys())
def test_nan_jacobian_stops_both_passes(system, small_case, node):
    # LU lets the NaN through; the pass names the first node it reaches
    (tangent, sweep), t = _faulty_passes(system, small_case, node, "nan")
    for run, message in (
            (tangent, f"tangent-linear pass at t={t:.6g}: sensitivity"),
            (sweep, f"adjoint sweep at t={t:.6g}: multiplier")):
        with pytest.raises(StepFailure,
                           match="^" + re.escape(message + " not finite")):
            run()
