"""Nine-bus DAE model: equilibrium, Jacobians, indexing, data loading."""
import numpy as np
import pytest
import yaml
from conftest import M_TRUE

from gridest.integrator import simulate
from gridest.ninebus import (DELTA, EQP, N_BUS, N_MACH, N_STATE, N_X,
                             N_Y, OMEGA, DisturbanceEvent, GeneratorParams,
                             ix_id, ix_iq, ix_vre, ix_vim, load_system,
                             state_names)


def test_dimensions_and_index_helpers():
    assert (N_X, N_Y, N_STATE) == (21, 24, 45)
    # differential state comp of machine mach sits at 7 * mach + comp
    names = state_names()
    assert names[7 * 0 + DELTA] == "delta_1"
    assert names[7 * 1 + OMEGA] == "omega_2"
    assert names[7 * 2 + EQP] == "eqp_3"
    assert ix_id(0) == 21
    assert ix_iq(2) == 26
    assert ix_vre(0) == 27
    assert ix_vim(8) == 44
    assert len(names) == N_STATE
    assert names[0] == "delta_1"
    assert names[ix_id(0)] == "id_1"
    assert names[ix_vre(0)] == "vre_1"
    assert names[ix_vim(8)] == "vim_9"


def test_mass_is_semi_explicit(system):
    assert np.array_equal(system.mass[:N_X], np.ones(N_X))
    assert np.array_equal(system.mass[N_X:], np.zeros(N_Y))
    assert system.n_param == N_MACH
    assert system.omega_s == pytest.approx(2 * np.pi * 60)


def test_steady_state_is_equilibrium_for_any_inertia(system):
    u0 = system.steady_state()
    loads = system.load_set(system.network.p_load, system.network.q_load)
    for m in (M_TRUE, 2.0 * M_TRUE, np.array([5.0, 3.0, 1.0])):
        f = system.rhs(u0, m, loads)
        assert np.max(np.abs(f)) < 1e-9


def test_ybus_structure(system):
    y = system.network.ybus
    assert y.shape == (N_BUS, N_BUS)
    assert np.allclose(y, y.T)
    assert np.all(y.diagonal().real >= 0)
    # transmission lines are inductive: negative off-diagonal susceptance
    off = y[~np.eye(N_BUS, dtype=bool)]
    assert np.all(off[np.abs(off) > 0].imag > 0)


# nominal loads, and the event set with 5.5 pu at bus 5
LOAD_SETS = {
    "nominal": lambda system: system.loads_at(0.0),
    "event": lambda system: system.loads_at(0.15, (DisturbanceEvent(
        bus=5, start=0.1, duration=0.2, load=5.5),)),
}


def _reference_rhs(system, u, m, p_load, q_load):
    """F(u; m) written term by term from the model equations."""
    gens = system.gens
    ws = system.omega_s
    delta = u[0:N_X:7]
    omega = u[1:N_X:7]
    eqp = u[2:N_X:7]
    edp = u[3:N_X:7]
    efd = u[4:N_X:7]
    rf = u[5:N_X:7]
    vr = u[6:N_X:7]
    cur_d = u[N_X:N_X + 2 * N_MACH:2]
    cur_q = u[N_X + 1:N_X + 2 * N_MACH:2]
    vre = u[N_X + 2 * N_MACH::2]
    vim = u[N_X + 2 * N_MACH + 1::2]

    sd, cd = np.sin(delta), np.cos(delta)
    vre_g, vim_g = vre[gens.bus], vim[gens.bus]
    vd = vre_g * sd - vim_g * cd
    vq = vre_g * cd + vim_g * sd
    vmag = np.hypot(vre_g, vim_g)

    te = edp * cur_d + eqp * cur_q + (gens.xqp - gens.xdp) * cur_d * cur_q
    se = gens.sat_a * np.exp(gens.sat_b * efd)

    f = np.empty(N_STATE)
    f[0:N_X:7] = omega - ws
    f[1:N_X:7] = ws / (2.0 * m) * (system.tm - te - gens.d * (omega - ws) / ws)
    f[2:N_X:7] = (-eqp - (gens.xd - gens.xdp) * cur_d + efd) / gens.td0p
    f[3:N_X:7] = (-edp + (gens.xq - gens.xqp) * cur_q) / gens.tq0p
    f[4:N_X:7] = (-(gens.ke + se) * efd + vr) / gens.te
    f[5:N_X:7] = (-rf + gens.kf / gens.tf * efd) / gens.tf
    f[6:N_X:7] = (-vr + gens.ka * rf - gens.ka * gens.kf / gens.tf * efd
                  + gens.ka * (system.vref - vmag)) / gens.ta

    f[N_X:N_X + 2 * N_MACH:2] = edp - vd - gens.rs * cur_d + gens.xqp * cur_q
    f[N_X + 1:N_X + 2 * N_MACH:2] = eqp - vq - gens.rs * cur_q - gens.xdp * cur_d

    ybus = system.network.ybus
    v = vre + 1j * vim
    y_load = (p_load - 1j * q_load) / np.abs(system.pf_voltages) ** 2
    i_net = -ybus @ v - y_load * v
    for i, b in enumerate(gens.bus):
        i_net[b] += (cur_d[i] * sd[i] + cur_q[i] * cd[i]) \
            + 1j * (-cur_d[i] * cd[i] + cur_q[i] * sd[i])
    f[N_X + 2 * N_MACH::2] = i_net.real
    f[N_X + 2 * N_MACH + 1::2] = i_net.imag
    return f


@pytest.mark.parametrize("loads", LOAD_SETS.values(), ids=LOAD_SETS.keys())
def test_rhs_matches_reference(system, loads):
    rng = np.random.default_rng(13)
    p, q = loads(system)
    for _ in range(5):
        u = system.steady_state() + 1e-2 * rng.standard_normal(N_STATE)
        m = rng.uniform(1.0, 30.0, N_MACH)
        ref = _reference_rhs(system, u, m, p, q)
        f = system.rhs(u, m, system.load_set(p, q))
        assert np.max(np.abs(f - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_jac_u_matches_finite_differences(system):
    rng = np.random.default_rng(11)
    u = system.steady_state() + 1e-2 * rng.standard_normal(N_STATE)
    m = M_TRUE
    for loads in LOAD_SETS.values():
        load_set = system.load_set(*loads(system))
        jac = system.jac_u(u, m, load_set)
        h = 1e-7
        cols = rng.choice(N_STATE, size=12, replace=False)
        for j in cols:
            e = np.zeros(N_STATE)
            e[j] = h
            fd = (system.rhs(u + e, m, load_set)
                  - system.rhs(u - e, m, load_set)) / (2 * h)
            assert np.max(np.abs(jac[:, j] - fd)) < 1e-5


def _reference_jac_u(system, u, m, p_load, q_load, h=1e-7):
    """Central differences of _reference_rhs, column by column."""
    jac = np.empty((N_STATE, N_STATE))
    for j in range(N_STATE):
        e = np.zeros(N_STATE)
        e[j] = h
        jac[:, j] = (_reference_rhs(system, u + e, m, p_load, q_load)
                     - _reference_rhs(system, u - e, m, p_load, q_load)) / (2 * h)
    return jac


def test_load_set_follows_the_load_values():
    # nominal, event, nominal again, then the event loads written into
    # the nominal array in place: each matrix is built from the values
    # the arrays hold when load_set is called, so rhs and jac_u under it
    # match the reference at those values
    system = load_system()
    rng = np.random.default_rng(14)
    u = system.steady_state() + 1e-2 * rng.standard_normal(N_STATE)
    m = M_TRUE
    p_nom, q = LOAD_SETS["nominal"](system)
    p_ev, _ = LOAD_SETS["event"](system)
    assert not np.array_equal(p_nom, p_ev)

    def check(p):
        loads = system.load_set(p, q)
        ref = _reference_rhs(system, u, m, p, q)
        f = system.rhs(u, m, loads)
        assert np.max(np.abs(f - ref)) <= 1e-12 * np.max(np.abs(ref))
        jac = system.jac_u(u, m, loads)
        assert np.max(np.abs(jac - _reference_jac_u(system, u, m, p, q))) < 1e-5

    check(p_nom)
    check(p_ev)
    check(p_nom)
    p_nom[:] = p_ev
    check(p_nom)


def test_jac_m_matches_finite_differences(system):
    rng = np.random.default_rng(12)
    u = system.steady_state() + 1e-2 * rng.standard_normal(N_STATE)
    m = np.array([20.0, 5.0, 2.5])
    loads = system.load_set(system.network.p_load, system.network.q_load)
    jac = system.jac_m(u[None], m)[0]
    assert jac.shape == (N_STATE, N_MACH)
    h = 1e-6
    for j in range(N_MACH):
        e = np.zeros(N_MACH)
        e[j] = h
        fd = (system.rhs(u, m + e, loads)
              - system.rhs(u, m - e, loads)) / (2 * h)
        assert np.max(np.abs(jac[:, j] - fd)) < 1e-6
    # inertia enters the speed equations only
    rows = np.max(np.abs(jac), axis=1)
    nonzero = np.flatnonzero(rows > 0)
    assert set(nonzero) <= {7 * i + OMEGA for i in range(N_MACH)}


def _reference_jac_m(system, u, m, p_load, q_load):
    """dF/dm from the reference F under the loads: m enters only the
    swing rows, as ws / (2 m_i) times the accelerating torque, so row i
    has the derivative -F_i / m_i."""
    f = _reference_rhs(system, u, m, p_load, q_load)
    jac = np.zeros((N_STATE, N_MACH))
    jac[OMEGA:N_X:7, :] = np.diag(-f[OMEGA:N_X:7] / m)
    return jac


@pytest.mark.parametrize("loads", LOAD_SETS.values(), ids=LOAD_SETS.keys())
def test_jac_m_matches_reference(system, loads):
    # jac_m takes no load set: it is dF/dm under every one
    rng = np.random.default_rng(15)
    p, q = loads(system)
    for _ in range(5):
        u = system.steady_state() + 1e-2 * rng.standard_normal(N_STATE)
        m = rng.uniform(1.0, 30.0, N_MACH)
        ref = _reference_jac_m(system, u, m, p, q)
        jac = system.jac_m(u[None], m)[0]
        assert jac.shape == ref.shape
        assert np.max(np.abs(jac - ref)) <= 1e-15 * np.max(np.abs(ref))


# disturbed trajectories whose projection nodes include node 0 and two
# separate switches
STACK_CASES = {
    "one-event": (DisturbanceEvent(bus=5, start=0.1, duration=0.2, load=5.5),),
    "event-at-t0": (DisturbanceEvent(bus=5, start=0.0, duration=0.2,
                                     load=5.5),),
    "two-events": (DisturbanceEvent(bus=5, start=0.1, duration=0.1, load=5.5),
                   DisturbanceEvent(bus=8, start=0.3, duration=0.1, load=3.0)),
}


@pytest.mark.parametrize("events", STACK_CASES.values(), ids=STACK_CASES.keys())
def test_stacked_jacobians_match_the_single_state_ones(system, events):
    # at every node and every pre-switch state: jac_u_entries against
    # jac_u's entries, jac_m against the swing rows of rhs, -F_i / m_i
    m = np.array([22.0, 6.5, 2.9])
    traj = simulate(system, m, 0.5, 0.01, events)
    assert len(traj.pre_event) == 2 * len(events)
    states = np.vstack((traj.states, *traj.pre_event.values()))
    entries = system.jac_u_entries(states, m)
    fm = system.jac_m(states, m)
    assert entries.shape == (len(states), len(system.jac_idx))
    assert fm.shape == (len(states), N_STATE, N_MACH)
    loads = traj.load_sets[0]
    swing = OMEGA + 7 * np.arange(N_MACH)
    for u, e, f in zip(states, entries, fm):
        single = system.jac_u(u, m, loads).reshape(-1)[system.jac_idx]
        assert np.all(np.abs(e - single) <= 1e-15 * np.abs(single))
        ref = np.zeros((N_STATE, N_MACH))
        ref[swing, np.arange(N_MACH)] = -system.rhs(u, m, loads)[swing] / m
        assert np.all(np.abs(f - ref) <= 1e-15 * np.abs(ref))


def test_event_validation():
    with pytest.raises(ValueError):
        DisturbanceEvent(bus=0, start=0.1, duration=0.2, load=5.5)
    with pytest.raises(ValueError):
        DisturbanceEvent(bus=10, start=0.1, duration=0.2, load=5.5)
    with pytest.raises(ValueError):
        DisturbanceEvent(bus=5, start=-0.1, duration=0.2, load=5.5)
    with pytest.raises(ValueError):
        DisturbanceEvent(bus=5, start=0.1, duration=0.0, load=5.5)
    for field in ("start", "duration", "load"):
        for bad in (np.nan, np.inf):
            kwargs = dict(bus=5, start=0.1, duration=0.2, load=5.5)
            kwargs[field] = bad
            with pytest.raises(ValueError, match=f"event {field} .* is not "
                                                 "finite"):
                DisturbanceEvent(**kwargs)
    ev = DisturbanceEvent(bus=5, start=0.1, duration=0.2, load=5.5)
    assert ev.end == pytest.approx(0.3)


def test_loads_at_half_open_window(system):
    # exactly representable endpoints so the [start, end) test is crisp
    ev = DisturbanceEvent(bus=5, start=0.25, duration=0.25, load=5.5)
    base = system.network.p_load[4]
    p, _ = system.loads_at(0.25, (ev,))
    assert p[4] == 5.5
    p, _ = system.loads_at(0.4999999, (ev,))
    assert p[4] == 5.5
    p, _ = system.loads_at(0.5, (ev,))
    assert p[4] == base
    p, _ = system.loads_at(0.05, (ev,))
    assert p[4] == base
    # other buses untouched
    p, q = system.loads_at(0.3, (ev,))
    mask = np.ones(N_BUS, dtype=bool)
    mask[4] = False
    assert np.array_equal(p[mask], system.network.p_load[mask])
    assert np.array_equal(q, system.network.q_load)


def test_generator_params_validation(system):
    g = system.gens
    kw = {f: getattr(g, f).copy() for f in (
        "bus", "d", "rs", "xd", "xdp", "xq", "xqp", "td0p",
        "tq0p", "ka", "ta", "ke", "te", "kf", "tf", "sat_a", "sat_b")}
    bad = dict(kw)
    bad["xdp"] = kw["xd"] * 2
    with pytest.raises(ValueError):
        GeneratorParams(**bad)
    bad = dict(kw)
    bad["te"] = np.zeros(N_MACH)
    with pytest.raises(ValueError):
        GeneratorParams(**bad)


def test_load_system_rejects_unknown_version(tmp_path):
    f = tmp_path / "bad.yaml"
    f.write_text(yaml.safe_dump({"version": 2}))
    with pytest.raises(ValueError):
        load_system(f)
