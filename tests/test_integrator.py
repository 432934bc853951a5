"""Trapezoidal DAE stepper: exact linear recurrence, order, events."""
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import M_TRUE

from gridest import integrator
from gridest.integrator import (CHORD_RHO, EXTRAPOLATION_ORDER,
                                NEWTON_ACCEPT, NEWTON_MAXIT, NEWTON_TOL,
                                StepFailure, Trajectory, _newton,
                                build_load_schedule, simulate,
                                solve_algebraic, step_trapezoidal)
from gridest.ninebus import DisturbanceEvent


class ToyDAE:
    """Scalar linear test problem: x' = m*y, 0 = c*x - y, so x' = m*c*x.

    The algebraic coupling c plays the role of the switchable load
    (stored as p_load[0]); its load-set matrix is the constant part of
    F_u.  The exact trapezoidal update is the scalar recurrence
    x+ = x * (1 + a) / (1 - a) with a = m*c*dt/2.
    """

    def __init__(self, c=-0.5, x0=1.0):
        self.n_param = 1
        self.n_x = 1
        self.mass = np.array([1.0, 0.0])
        self.network = SimpleNamespace(p_load=np.array([c]),
                                       q_load=np.zeros(1))
        self._u0 = np.array([x0, c * x0])

    def steady_state(self):
        return self._u0.copy()

    def loads_at(self, t, events=()):
        p = self.network.p_load.copy()
        q = self.network.q_load.copy()
        for ev in events:
            if ev.start <= t < ev.end:
                p[ev.bus - 1] = ev.load
        return p, q

    def load_set(self, p, q):
        return np.array([[0.0, 0.0], [p[0], -1.0]])

    def rhs(self, u, m, loads):
        return loads @ u + np.array([m[0] * u[1], 0.0])

    def jac_u(self, u, m, loads):
        return loads + np.array([[0.0, m[0]], [0.0, 0.0]])


def test_toy_exact_recurrence():
    sys = ToyDAE(c=-0.5)
    m = np.array([1.0])
    dt = 0.05
    traj = simulate(sys, m, 1.0, dt)
    a = m[0] * (-0.5) * dt / 2
    r = (1 + a) / (1 - a)
    expected = r ** np.arange(traj.n_steps + 1)
    assert np.max(np.abs(traj.states[:, 0] - expected)) < 1e-12
    # algebraic constraint holds at every stored node
    assert np.max(np.abs(traj.states[:, 1] + 0.5 * traj.states[:, 0])) < 1e-12
    assert np.allclose(traj.times, np.arange(21) * dt)


def test_toy_second_order_convergence():
    m = np.array([1.0])
    exact = np.exp(-0.5)
    errs = []
    for dt in (0.1, 0.05, 0.025):
        traj = simulate(ToyDAE(c=-0.5), m, 1.0, dt)
        errs.append(abs(traj.states[-1, 0] - exact))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_toy_event_projection():
    # switch the algebraic coupling on [0.25, 0.5): x stays continuous,
    # y jumps, and the per-interval growth factors multiply exactly
    sys = ToyDAE(c=-0.5)
    m = np.array([2.0])
    dt = 0.05
    ev = DisturbanceEvent(bus=1, start=0.25, duration=0.25, load=-1.5)
    traj = simulate(sys, m, 0.75, dt, events=(ev,))

    def factor(c):
        a = m[0] * c * dt / 2
        return (1 + a) / (1 - a)

    k_on, k_off = 5, 10
    assert set(traj.pre_event) == {k_on, k_off}
    x = 1.0
    for k in range(traj.n_steps):
        c = -1.5 if k_on <= k < k_off else -0.5
        assert abs(traj.states[k + 1, 0] - x * factor(c)) < 1e-12 * abs(x)
        x *= factor(c)
    # pre-switch state kept for the adjoint; x-component continuous
    assert traj.pre_event[k_on][0] == traj.states[k_on, 0]
    assert traj.pre_event[k_on][1] == pytest.approx(-0.5 * traj.states[k_on, 0])
    assert traj.states[k_on, 1] == pytest.approx(-1.5 * traj.states[k_on, 0])


def test_load_schedule_dedupes_sets():
    sys = ToyDAE(c=-0.5)
    ev = DisturbanceEvent(bus=1, start=0.25, duration=0.25, load=-1.5)
    load_sets, step_loads = build_load_schedule(sys, (ev,), 0.25, 1.0)
    assert len(load_sets) == 2  # nominal set reused after the event
    assert step_loads.tolist() == [0, 1, 0, 0]
    assert np.array_equal(load_sets[1], sys.load_set(np.array([-1.5]),
                                                     np.zeros(1)))


def test_nominal_load_set_comes_first():
    # set 0 holds the equilibrium, so a switch is a change of set, node 0
    # included, and an event at the nominal load switches nothing
    sys = ToyDAE(c=-0.5)
    m = np.array([1.0])
    ev = DisturbanceEvent(bus=1, start=0.0, duration=0.25, load=-1.5)
    traj = simulate(sys, m, 0.5, 0.05, events=(ev,))
    assert traj.step_loads[0] != 0
    assert set(traj.pre_event) == {0, 5}
    assert traj.states[0, 1] == pytest.approx(-1.5 * traj.states[0, 0])
    assert simulate(sys, m, 0.5, 0.05).pre_event == {}
    ev = DisturbanceEvent(bus=1, start=0.25, duration=0.25, load=-0.5)
    traj = simulate(sys, m, 0.75, 0.05, events=(ev,))
    assert traj.pre_event == {}
    assert len(traj.load_sets) == 1


def test_event_must_align_with_grid():
    sys = ToyDAE()
    ev = DisturbanceEvent(bus=1, start=0.013, duration=0.2, load=-1.0)
    with pytest.raises(ValueError, match="event bound 0.013 is not a "
                                         "multiple of dt=0.05"):
        simulate(sys, np.array([1.0]), 1.0, 0.05, events=(ev,))
    ev = DisturbanceEvent(bus=1, start=0.25, duration=1.0, load=-1.0)
    with pytest.raises(ValueError, match="event bound 1.25 is past the end "
                                         "of the trajectory at t=0.5"):
        simulate(sys, np.array([1.0]), 0.5, 0.05, events=(ev,))


def test_simulate_argument_validation():
    sys = ToyDAE()
    with pytest.raises(ValueError):
        simulate(sys, np.array([1.0, 2.0]), 1.0, 0.05)
    with pytest.raises(ValueError):
        simulate(sys, np.array([-1.0]), 1.0, 0.05)
    with pytest.raises(ValueError):
        simulate(sys, np.array([1.0]), 1.0, -0.05)
    with pytest.raises(ValueError):
        simulate(sys, np.array([1.0]), 0.0, 0.05)
    with pytest.raises(ValueError, match="multiple"):
        simulate(sys, np.array([1.0]), 0.52, 0.05)


def test_nine_bus_stays_on_equilibrium_without_events(system):
    traj = simulate(system, M_TRUE, 0.5, 0.01)
    u0 = system.steady_state()
    assert np.max(np.abs(traj.states - u0)) < 1e-12
    assert traj.newton_iters == 0  # start is exact, no correction needed


def test_nine_bus_event_run_shapes(system):
    ev = DisturbanceEvent(bus=5, start=0.1, duration=0.2, load=5.5)
    traj = simulate(system, M_TRUE, 0.5, 0.01, events=(ev,))
    assert isinstance(traj, Trajectory)
    assert traj.states.shape == (51, 45)
    assert np.all(np.isfinite(traj.states))
    assert set(traj.pre_event) == {10, 30}
    assert traj.newton_iters > 0
    # the disturbance actually moves the rotor angles
    u0 = system.steady_state()
    assert np.max(np.abs(traj.states[-1, :21] - u0[:21])) > 1e-3
    # algebraic consistency of the final stored state
    loads = system.load_set(*system.loads_at(0.49, (ev,)))
    f = system.rhs(traj.states[-1], M_TRUE, loads)
    assert np.max(np.abs(f[21:])) < 1e-9


def test_solve_algebraic_restores_consistency(system):
    u = system.steady_state()
    loads = system.load_set(*system.loads_at(0.15, (DisturbanceEvent(
        bus=5, start=0.1, duration=0.2, load=5.5),)))
    v, f_v, _ = solve_algebraic(system, u, 0.15, M_TRUE, loads)
    assert np.array_equal(v[:21], u[:21])
    f = system.rhs(v, M_TRUE, loads)
    assert np.max(np.abs(f[21:])) < 1e-10
    assert np.array_equal(f_v, f)


def test_newton_failure_is_reported():
    # algebraic constraint y^2 + 1 = 0 has no real solution: Newton
    # must stall and the stepper must say so instead of looping forever
    class Bad(ToyDAE):
        def rhs(self, u, m, loads):
            return np.array([0.0, -(u[1] ** 2 + 1.0)])

        def jac_u(self, u, m, loads):
            return np.array([[0.0, 0.0], [0.0, -2.0 * u[1]]])

    bad = Bad(c=-0.5)
    bad._u0 = np.array([1.0, 2.0])
    with pytest.raises(StepFailure):
        simulate(bad, np.array([1.0]), 1.0, 0.5)


class NewtonRecorder:
    """A recording proxy for _newton's residual and matrix callables.

    It records the residual inf-norm of each residual call and counts
    the LU factorizations and solves that _newton makes through the
    integrator's lu_factor and lu_solve."""

    def __init__(self, monkeypatch, residual, matrix):
        self._residual = residual
        self._matrix = matrix
        self.norms = []
        self.residual_points = []
        self.matrix_points = []
        self.factorizations = 0
        self.solves = 0
        factor, solve = integrator.lu_factor, integrator.lu_solve

        def counted_factor(*args):
            self.factorizations += 1
            return factor(*args)

        def counted_solve(*args):
            self.solves += 1
            return solve(*args)

        monkeypatch.setattr(integrator, "lu_factor", counted_factor)
        monkeypatch.setattr(integrator, "lu_solve", counted_solve)

    def residual(self, v):
        r = self._residual(v)
        self.norms.append(np.abs(r).max())
        self.residual_points.append(v.copy())
        return r

    def matrix(self, v):
        self.matrix_points.append(v.copy())
        return self._matrix(v)

    def expected_factorizations(self, its):
        """The updates the chord rule factors before: the first, and each
        one after an update that cut the residual by less than CHORD_RHO."""
        return [i for i in range(its)
                if i == 0 or self.norms[i] > CHORD_RHO * self.norms[i - 1]]


@pytest.mark.parametrize("start, exact", [([3.0, 1.5], False),
                                          ([2.0, 2.0], True)],
                         ids=["far", "exact"])
def test_newton_makes_no_update_once_the_tolerance_is_met(monkeypatch, start,
                                                          exact):
    # v^3 = 8 elementwise: one solve per update, one factorization for
    # the solve plus one per refactor the CHORD_RHO rule calls for, an
    # update only after a residual above NEWTON_TOL, and a return at the
    # first residual that meets it
    rec = NewtonRecorder(monkeypatch, lambda v: v ** 3 - 8.0,
                         lambda v: np.diag(3.0 * v ** 2))
    its, factored = _newton(rec.residual, rec.matrix, np.array(start),
                            "Newton", 0.0)
    assert rec.solves == its == len(rec.norms) - 1
    assert rec.factorizations == factored == len(
        rec.expected_factorizations(its))
    assert all(r > NEWTON_TOL for r in rec.norms[:-1])
    assert rec.norms[-1] <= NEWTON_TOL
    assert (its == 0) == exact
    assert (factored == 0) == exact


def test_chord_refactors_where_the_residual_falls_slower_than_rho(
        monkeypatch):
    # on v - 1 = 0 the matrix 1 + |v - 1| is exact only at the root: the
    # chord cuts the residual by |v_f - 1| / (1 + |v_f - 1|) per update,
    # with v_f the iterate it was factored at.  From v = 2 that is 1/2,
    # 1/3 and 1/7, slower than CHORD_RHO, so the first three updates
    # refactor at the current iterate; the fourth factors cut it by
    # 0.023, so the chord keeps them to the end
    rec = NewtonRecorder(monkeypatch, lambda v: v - 1.0,
                         lambda v: np.diag(1.0 + np.abs(v - 1.0)))
    its, factored = _newton(rec.residual, rec.matrix, np.array([2.0]),
                            "Newton", 0.0)
    at = rec.expected_factorizations(its)
    assert at == [0, 1, 2, 3]
    assert its > len(at) + 1
    assert rec.factorizations == factored == len(at)
    assert rec.solves == its
    for point, i in zip(rec.matrix_points, at):
        assert np.array_equal(point, rec.residual_points[i])
    assert rec.norms[-1] <= NEWTON_TOL


def test_newton_stalls_after_newton_maxit_updates(monkeypatch):
    # on v - 1 = 0, a matrix 1000 times too steep cuts the residual by
    # only 0.1% per update
    rec = NewtonRecorder(monkeypatch, lambda v: v - 1.0,
                         lambda v: np.array([[1000.0]]))
    with pytest.raises(StepFailure, match="stalled"):
        _newton(rec.residual, rec.matrix, np.array([2.0]), "Newton", 0.0)
    assert rec.factorizations == rec.solves == NEWTON_MAXIT
    assert len(rec.norms) == NEWTON_MAXIT + 1


class SingularToy(ToyDAE):
    """jac_u with a zero algebraic row: every Newton matrix is singular."""

    def jac_u(self, u, m, loads):
        return np.array([[0.0, m[0]], [0.0, 0.0]])


def test_singular_newton_matrix_is_a_step_failure():
    with pytest.raises(StepFailure,
                       match=r"t=0\.05: singular matrix at residual \d"):
        simulate(SingularToy(c=-0.5), np.array([1.0]), 1.0, 0.05)


def test_singular_algebraic_jacobian_is_a_step_failure():
    toy = SingularToy(c=-0.5)
    with pytest.raises(StepFailure,
                       match=r"t=0\.25: singular matrix at residual \d"):
        solve_algebraic(toy, toy.steady_state(), 0.25, np.array([1.0]),
                        toy.load_set(np.array([-1.5]), np.zeros(1)))


class NanJacobianToy(ToyDAE):
    """jac_u with a NaN entry: LU may factor it without complaint."""

    def jac_u(self, u, m, loads):
        jac = super().jac_u(u, m, loads)
        jac[1, 1] = np.nan
        return jac


def test_nan_jacobian_is_a_step_failure():
    toy = NanJacobianToy(c=-0.5)
    with pytest.raises(StepFailure, match=r"Newton at t=0\.05"):
        simulate(toy, np.array([1.0]), 1.0, 0.05)
    with pytest.raises(StepFailure, match=r"re-solve at t=0\.25"):
        solve_algebraic(toy, toy.steady_state(), 0.25, np.array([1.0]),
                        toy.load_set(np.array([-1.5]), np.zeros(1)))


def test_step_hands_back_the_arrival_rhs(system):
    ev = DisturbanceEvent(bus=5, start=0.1, duration=0.2, load=5.5)
    m = M_TRUE
    traj = simulate(system, m, 0.5, 0.01, events=(ev,))
    for k in (0, 10, 11, 30, 45):
        loads = traj.load_sets[traj.step_loads[k]]
        u_k = traj.states[k]
        f_k = system.rhs(u_k, m, loads)
        u_next, f_next, _, _ = step_trapezoidal(system, u_k, traj.times[k],
                                                traj.dt, m, loads, f_k, u_k)
        assert np.array_equal(f_next, system.rhs(u_next, m, loads))


class RhsRecorder:
    """The system, with every rhs call's arguments recorded."""

    def __init__(self, system):
        self._system = system
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._system, name)

    def rhs(self, u, m, loads):
        self.calls.append((u.copy(), m.copy(), loads.copy()))
        return self._system.rhs(u, m, loads)


def _same_call(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def test_simulate_never_repeats_an_rhs_call(system):
    # each step and each projection hands back the rhs of its final
    # residual evaluation, and a step of extrapolation order 0 (node 0
    # and each projection node) takes F at its start from f_k, so
    # nothing evaluates it twice in a row, but for the one repeat rhs
    # cannot tell from its arguments: a step whose extrapolated start
    # equals its departure state evaluates F there once more.  That is
    # each of the nine steps k = 1..9 resting at the equilibrium before
    # the event
    recorder = RhsRecorder(system)
    ev = DisturbanceEvent(bus=5, start=0.1, duration=0.2, load=5.5)
    traj = simulate(recorder, M_TRUE, 0.5, 0.01, events=(ev,))
    assert set(traj.pre_event) == {10, 30}
    calls = recorder.calls
    assert len(calls) > traj.n_steps
    repeats = [a[0] for a, b in zip(calls, calls[1:]) if _same_call(a, b)]
    starts = [traj.states[k] for k in range(1, 10)]
    assert len(repeats) == len(starts)
    assert all(np.array_equal(u, v) for u, v in zip(repeats, starts))


def test_newton_factorizations_are_the_lu_calls_of_a_solve(monkeypatch,
                                                           system):
    rec = NewtonRecorder(monkeypatch, None, None)    # counts the LUs only
    ev = DisturbanceEvent(bus=5, start=0.1, duration=0.2, load=5.5)
    traj = simulate(system, M_TRUE, 0.5, 0.01, events=(ev,))
    assert set(traj.pre_event) == {10, 30}
    assert traj.newton_factorizations == rec.factorizations > 0


def test_nine_bus_newton_iteration_count(system):
    # one LU per step and one per projection at most: each solve factors
    # once at its start, and the extrapolated start leaves the chord
    # close enough that refactors are rare.  The iteration bound, fixed
    # before the first run, is 240 for 200 steps: about one update per
    # step.  The quadratic start made 442, 2.2 per step
    ev = DisturbanceEvent(bus=5, start=0.1, duration=0.2, load=5.5)
    traj = simulate(system, M_TRUE, 2.0, 0.01, events=(ev,))
    assert set(traj.pre_event) == {10, 30}
    assert traj.newton_factorizations <= traj.n_steps + len(traj.pre_event)
    assert traj.newton_iters <= 240


# Two solves of one step that stop at residuals within NEWTON_TOL differ
# by the inverse Newton matrix applied to the difference of their final
# residuals, at most 2 NEWTON_TOL; the bound allows that matrix an
# inf-norm of 5.  A Newton that stopped at NEWTON_ACCEPT would leave
# 100 times more room.
STATE_GAP = 10.0 * NEWTON_TOL


def _order(k, pre_event):
    """The order of simulate's extrapolation at node k: k less the last
    restart (node 0 or a projection node at or before k), at most
    EXTRAPOLATION_ORDER."""
    restart = max([0] + [r for r in pre_event if r <= k])
    return min(EXTRAPOLATION_ORDER, k - restart)


def _start(states, k, pre_event):
    """simulate's Newton start for step k:
    u_k + sum_j c_j (u_{k-j} - u_k), j = 1..p, c_j = (-1)^j C(p+1, j+1),
    the sum taken as one dot product in node order."""
    u, p = states[k], _order(k, pre_event)
    if p == 0:
        return u
    c = np.array([(-1) ** j * comb(p + 1, j + 1) for j in range(p, 0, -1)],
                 dtype=float)
    return u + c @ (states[k - p:k] - u)


def _resolved_steps(system, traj, m, start=lambda states, k, pre: states[k]):
    """Each step k of traj re-solved from the departure state by default,
    or from start(states, k, pre_event): (k, step_trapezoidal's result,
    traj's arrival state), the arrival pre-switch at a projection node."""
    for k in range(traj.n_steps):
        loads = traj.load_sets[traj.step_loads[k]]
        u_k = traj.states[k]
        f_k = system.rhs(u_k, m, loads)
        guess = start(traj.states, k, traj.pre_event)
        yield k, step_trapezoidal(system, u_k, traj.times[k], traj.dt, m,
                                  loads, f_k, guess), traj.pre_event.get(
                                      k + 1, traj.states[k + 1])


def _start_gap(resolved, pre_event):
    """Max over the resolved steps that leave no projection node of the
    gap between the re-solved state and the arrival state."""
    return max(np.max(np.abs(step[0] - arrival))
               for k, step, arrival in resolved if k not in pre_event)


ONE_EVENT = (DisturbanceEvent(bus=5, start=0.1, duration=0.2, load=5.5),)


def test_extrapolated_start_reaches_the_same_state(system):
    # every step of a 2 s run away from the projections: the state from
    # the extrapolated start matches a re-solve from u_k within
    # STATE_GAP, and re-solving from the start simulate uses reproduces
    # it bit for bit in no more Newton iterations than from u_k, and in
    # fewer where the start is of order 2 or more and u_k is not already
    # a root
    m = M_TRUE
    traj = simulate(system, m, 2.0, 0.01, events=ONE_EVENT)
    pre = traj.pre_event
    cold = list(_resolved_steps(system, traj, m))
    assert _start_gap(cold, pre) <= STATE_GAP
    for (k, step, arrival), (_, cold_step, _) in zip(
            _resolved_steps(system, traj, m, _start), cold):
        assert np.array_equal(step[0], arrival)
        if k in pre:
            continue
        assert step[2] <= cold_step[2]
        if _order(k, pre) >= 2 and cold_step[2] > 0:
            assert step[2] < cold_step[2]


def test_state_gap_catches_a_newton_that_stops_at_accept(monkeypatch, system):
    monkeypatch.setattr(integrator, "NEWTON_TOL", NEWTON_ACCEPT)
    traj = simulate(system, M_TRUE, 2.0, 0.01, events=ONE_EVENT)
    resolved = _resolved_steps(system, traj, M_TRUE)
    assert _start_gap(resolved, traj.pre_event) > STATE_GAP


EVENT_CASES = {
    "one-event": (DisturbanceEvent(bus=5, start=0.1, duration=0.2, load=5.5),),
    "event-at-t0": (DisturbanceEvent(bus=5, start=0.0, duration=0.2,
                                     load=5.5),),
    "two-events": (DisturbanceEvent(bus=5, start=0.1, duration=0.1, load=5.5),
                   DisturbanceEvent(bus=8, start=0.3, duration=0.1, load=3.0)),
}
M0 = np.array([24.0, 6.0, 3.1])


@pytest.mark.parametrize("case", ["event-at-t0", "two-events"])
def test_extrapolation_restarts_at_projections(monkeypatch, system, case):
    # simulate starts each step as _start says, so the extrapolation
    # reaches back to no node before node 0 or the last projection, and
    # reaches its full order between projections; the states,
    # projections included, match full Newton (a refactor at every
    # update) re-solved from each departure state
    events = EVENT_CASES[case]
    guesses = []

    def recorded(*args):
        guesses.append(None if args[-1] is None else args[-1].copy())
        return step_trapezoidal(*args)

    monkeypatch.setattr(integrator, "step_trapezoidal", recorded)
    traj = simulate(system, M0, 0.5, 0.01, events=events)
    monkeypatch.undo()
    pre = traj.pre_event
    assert set(pre) == ({0, 20} if case == "event-at-t0" else {10, 20, 30, 40})
    assert len(guesses) == traj.n_steps
    assert max(_order(k, pre) for k in range(traj.n_steps)) \
        == EXTRAPOLATION_ORDER
    for k, guess in enumerate(guesses):
        # an order-0 step starts from u_k, whose F it already holds
        if _order(k, pre) == 0:
            assert guess is None
        else:
            assert np.array_equal(guess, _start(traj.states, k, pre))

    monkeypatch.setattr(integrator, "CHORD_RHO", 0.0)
    for _, step, arrival in _resolved_steps(system, traj, M0):
        assert np.max(np.abs(step[0] - arrival)) <= STATE_GAP
    for k, u in pre.items():
        ref = solve_algebraic(system, u, traj.times[k], M0,
                              traj.load_sets[traj.step_loads[k]])[0]
        assert np.max(np.abs(ref - traj.states[k])) <= STATE_GAP
