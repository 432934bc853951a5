"""Two-axis dynamic model of the WSCC 9-bus system.

Each of the three generators carries seven differential states
(rotor angle delta, speed omega, transient EMFs E'q and E'd, and the
IEEE Type-I exciter states Efd, RF, VR) and two algebraic stator
currents (Id, Iq); the network contributes rectangular bus voltages
(Vre, Vim) at all nine buses.  The full state vector is

    u = (x, y),  x in R^21,  y in R^24,

ordered machine-major in the x block (7 states per machine) and
(Id_1, Iq_1, ..., Id_3, Iq_3, Vre_1, Vim_1, ..., Vre_9, Vim_9) in the
y block.  The semi-explicit DAE reads

    dx/dt = h(x, y; m),   0 = g(x, y),

written throughout as M du/dt = F(u; m) with M = diag(I, 0) and
F = (h, g).  The model is autonomous: F does not read the time.  The
estimated parameter vector m holds the three inertia constants H_i
(seconds); all other constants come from the data file.

Loads are constant-admittance injections: a bus consuming (P, Q) at
the initial power-flow voltage V0 is modeled by the fixed admittance
Y_L = (P - jQ)/|V0|^2, so its actual consumption scales with
(|V|/|V0|)^2 during transients.  A disturbance temporarily replaces
the active-power value P used to form that admittance at one bus; it
enters F only through that bus's current-balance rows.  rhs and jac_u
take the load set as its matrix, load_set(p_load, q_load): the constant
part of F_u with the load admittances folded in.  (A true
constant-power load would make the large disturbances studied here
statically infeasible: the network cannot deliver 5.5 pu behind the
transient reactances at any voltage.)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from numbers import Integral, Real
from pathlib import Path

import numpy as np
import yaml

from .powerflow import PQ, PV, SLACK, solve_power_flow

N_BUS = 9
N_MACH = 3
N_X = 7 * N_MACH          # differential states
N_Y = 2 * N_MACH + 2 * N_BUS   # stator currents + bus voltages
N_STATE = N_X + N_Y

# per-machine offsets inside a 7-state block
DELTA, OMEGA, EQP, EDP, EFD, RF, VR = range(7)

_X_LABELS = ("delta", "omega", "eqp", "edp", "efd", "rf", "vr")


def ix_id(mach: int) -> int:
    return N_X + 2 * mach


def ix_iq(mach: int) -> int:
    return N_X + 2 * mach + 1


def ix_vre(bus: int) -> int:
    """Flat index of the real voltage at 0-based bus index."""
    return N_X + 2 * N_MACH + 2 * bus


def ix_vim(bus: int) -> int:
    return N_X + 2 * N_MACH + 2 * bus + 1


def state_names() -> list[str]:
    names = [f"{lbl}_{i + 1}" for i in range(N_MACH) for lbl in _X_LABELS]
    names += [f"{lbl}_{i + 1}" for i in range(N_MACH) for lbl in ("id", "iq")]
    names += [f"{lbl}_{b + 1}" for b in range(N_BUS) for lbl in ("vre", "vim")]
    return names


def is_number(x, kind=Real) -> bool:
    """x is a kind of number (Real unless named), and not a bool."""
    return isinstance(x, kind) and not isinstance(x, bool)


@dataclass(frozen=True)
class DisturbanceEvent:
    """Temporary replacement of the active-power load at one bus.

    Active on [start, start + duration); `load` is the replacement
    active power in pu.  Bus numbering is 1-based as in the data file.
    """
    bus: int
    start: float
    duration: float
    load: float

    def __post_init__(self):
        if not is_number(self.bus, Integral):
            raise ValueError(f"event bus {self.bus!r} is not an integer")
        if not 1 <= self.bus <= N_BUS:
            raise ValueError(f"event bus {self.bus} outside 1..{N_BUS}")
        for name in ("start", "duration", "load"):
            value = getattr(self, name)
            if not is_number(value):
                raise ValueError(f"event {name} {value!r} is not a number")
            if not math.isfinite(value):
                raise ValueError(f"event {name} {value!r} is not finite")
        if self.start < 0:
            raise ValueError("event start must be >= 0")
        if self.duration <= 0:
            raise ValueError("event duration must be positive")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class GeneratorParams:
    """Constants of the three machines and their exciters (arrays over machines)."""
    bus: np.ndarray       # 0-based bus index of each machine
    d: np.ndarray         # damping torque coefficient (pu torque / pu speed)
    rs: np.ndarray
    xd: np.ndarray
    xdp: np.ndarray
    xq: np.ndarray
    xqp: np.ndarray
    td0p: np.ndarray
    tq0p: np.ndarray
    ka: np.ndarray
    ta: np.ndarray
    ke: np.ndarray
    te: np.ndarray
    kf: np.ndarray
    tf: np.ndarray
    sat_a: np.ndarray
    sat_b: np.ndarray

    def __post_init__(self):
        if not (np.all(self.xd >= self.xdp) and np.all(self.xdp > 0)):
            raise ValueError("require xd >= xdp > 0")
        if not (np.all(self.xq >= self.xqp) and np.all(self.xqp > 0)):
            raise ValueError("require xq >= xqp > 0")
        for name in ("td0p", "tq0p", "ta", "te", "tf"):
            if not np.all(getattr(self, name) > 0):
                raise ValueError(f"time constant {name} must be positive")


@dataclass(frozen=True)
class NetworkData:
    ybus: np.ndarray      # complex (9, 9) admittance matrix
    bus_type: np.ndarray  # SLACK / PV / PQ per bus
    v_set: np.ndarray     # regulated magnitudes (slack + PV; 1.0 elsewhere)
    p_gen_set: np.ndarray  # scheduled active generation per bus
    p_load: np.ndarray    # nominal constant-power loads
    q_load: np.ndarray


def _build_ybus(branches) -> np.ndarray:
    y = np.zeros((N_BUS, N_BUS), dtype=complex)
    for br in branches:
        f, t = br["from"] - 1, br["to"] - 1
        ys = 1.0 / complex(br["r"], br["x"])
        ysh = 0.5j * br.get("b", 0.0)
        y[f, f] += ys + ysh
        y[t, t] += ys + ysh
        y[f, t] -= ys
        y[t, f] -= ys
    return y


def _jac_entries(xp, uu, consts, m_i: float, ws: float) -> tuple:
    """One machine's 20 state-dependent entries of dF/du, in jac_idx
    order.  uu[i] is state component i: a float with xp = math (jac_u),
    or an array over a stack of states with xp = numpy (jac_u_entries).
    consts is the machine's row of NineBusSystem._mach_consts."""
    xo, s0, s1, rv, iv, d, xqd, ke, te, sat_a, sat_b, ka_ta = consts
    delta, efd = uu[xo + DELTA], uu[xo + EFD]
    cur_d, cur_q = uu[s0], uu[s1]
    vre_g, vim_g = uu[rv], uu[iv]
    sd, cd = xp.sin(delta), xp.cos(delta)
    vmag = xp.hypot(vre_g, vim_g)
    c = ws / (2.0 * m_i)
    se_slope = sat_a * xp.exp(sat_b * efd) * (1.0 + sat_b * efd)
    return (
        # swing row (depends on m)
        -c * d / ws, -c * cur_q, -c * cur_d,
        -c * (uu[xo + EDP] + xqd * cur_q),
        -c * (uu[xo + EQP] + xqd * cur_d),
        # exciter saturation, terminal-voltage feedback
        -(ke + se_slope) / te, -ka_ta * vre_g / vmag,
        -ka_ta * vim_g / vmag,
        # stator rows: -d(v_d, v_q)/d(delta, Vre, Vim)
        -(vre_g * cd + vim_g * sd), -sd, cd,
        vre_g * sd - vim_g * cd, -cd, -sd,
        # generator current injection into the network rows
        sd, cd, cur_d * cd - cur_q * sd,
        -cd, sd, cur_d * sd + cur_q * cd)


class NineBusSystem:
    """Model object, built at its equilibrium in one step.

    The constructor solves the initial power flow and sets the
    mechanical torques, exciter references and load admittances, so the
    object is ready on return and never changes afterwards.  load_set
    and the evaluation methods are pure functions of their arguments, so
    a single instance can be shared across threads/processes.  rhs and
    jac_u take one state, on Python floats, for the forward Newton;
    jac_u_entries (F_u's state-dependent entries) and jac_m take a stack
    of states, on numpy arrays, for a sensitivity pass along a stored
    trajectory.  Both F_u evaluations write the same formulas,
    _jac_entries, at the same positions, jac_idx.
    """

    def __init__(self, network: NetworkData, gens: GeneratorParams,
                 omega_s: float):
        self.network = network
        self.gens = gens
        self.omega_s = omega_s
        self.n_param = N_MACH
        self.n_x = N_X

        # mass "matrix": diagonal 1 on differential rows, 0 on algebraic
        self.mass = np.zeros(N_STATE)
        self.mass[:N_X] = 1.0

        self._build_template()
        self._build_equilibrium()

    # ------------------------------------------------------------------
    # construction helpers

    def _build_template(self):
        """Constant part of F_u, and the positions rhs and the F_u
        entries are written at.

        rhs_rows and entries follow the order in which rhs and
        _jac_entries compute their per-machine terms.
        """
        gens = self.gens
        j0 = np.zeros((N_STATE, N_STATE))
        rhs_rows, entries = [], []
        # per machine, the indices and constants rhs and _jac_entries read
        self._mach_consts = []
        for i in range(N_MACH):
            xo = 7 * i
            s0, s1 = ix_id(i), ix_iq(i)
            bus = int(gens.bus[i])
            rv, iv, om = ix_vre(bus), ix_vim(bus), xo + OMEGA
            self._mach_consts.append((xo, s0, s1, rv, iv) + tuple(
                float(c[i]) for c in (gens.d, gens.xqp - gens.xdp, gens.ke,
                                      gens.te, gens.sat_a, gens.sat_b,
                                      gens.ka / gens.ta)))
            rhs_rows += [xo + DELTA, om, xo + EFD, xo + VR, s0, s1, rv, iv]
            entries += [(om, om), (om, xo + EQP), (om, xo + EDP), (om, s0),
                        (om, s1), (xo + EFD, xo + EFD), (xo + VR, rv),
                        (xo + VR, iv), (s0, xo + DELTA), (s0, rv), (s0, iv),
                        (s1, xo + DELTA), (s1, rv), (s1, iv), (rv, s0),
                        (rv, s1), (rv, xo + DELTA), (iv, s0), (iv, s1),
                        (iv, xo + DELTA)]
            j0[xo + DELTA, xo + OMEGA] = 1.0
            j0[xo + EQP, xo + EQP] = -1.0 / gens.td0p[i]
            j0[xo + EQP, s0] = -(gens.xd[i] - gens.xdp[i]) / gens.td0p[i]
            j0[xo + EQP, xo + EFD] = 1.0 / gens.td0p[i]
            j0[xo + EDP, xo + EDP] = -1.0 / gens.tq0p[i]
            j0[xo + EDP, s1] = (gens.xq[i] - gens.xqp[i]) / gens.tq0p[i]
            j0[xo + EFD, xo + VR] = 1.0 / gens.te[i]
            j0[xo + RF, xo + RF] = -1.0 / gens.tf[i]
            j0[xo + RF, xo + EFD] = gens.kf[i] / gens.tf[i] ** 2
            j0[xo + VR, xo + VR] = -1.0 / gens.ta[i]
            j0[xo + VR, xo + RF] = gens.ka[i] / gens.ta[i]
            j0[xo + VR, xo + EFD] = -gens.ka[i] * gens.kf[i] / (gens.tf[i] * gens.ta[i])
            # stator rows: E'd - Vd - Rs Id + X'q Iq ; E'q - Vq - Rs Iq - X'd Id
            j0[s0, xo + EDP] = 1.0
            j0[s0, s0] = -gens.rs[i]
            j0[s0, s1] = gens.xqp[i]
            j0[s1, xo + EQP] = 1.0
            j0[s1, s0] = -gens.xdp[i]
            j0[s1, s1] = -gens.rs[i]
        # network rows: -Ybus V in real form, acting on (Vre_1, Vim_1, ...)
        g, b = self.network.ybus.real, self.network.ybus.imag
        j0[N_X + 2 * N_MACH::2, N_X + 2 * N_MACH::2] = -g
        j0[N_X + 2 * N_MACH::2, N_X + 2 * N_MACH + 1::2] = b
        j0[N_X + 2 * N_MACH + 1::2, N_X + 2 * N_MACH::2] = -b
        j0[N_X + 2 * N_MACH + 1::2, N_X + 2 * N_MACH + 1::2] = -g
        self._jtemplate = j0
        rv, iv = ix_vre(np.arange(N_BUS)), ix_vim(np.arange(N_BUS))
        self._rhs_idx = np.array(rhs_rows)
        self.jac_idx = np.ravel_multi_index(np.array(entries).T, j0.shape)
        self._load_idx = np.ravel_multi_index(
            (np.concatenate((rv, rv, iv, iv)), np.concatenate((rv, iv, rv, iv))),
            j0.shape)

    def _build_equilibrium(self):
        """Solve the power flow and build the consistent equilibrium state.

        Sets the mechanical torques and exciter references so that the
        stored state is a fixed point of the DAE for any inertia vector
        (the equilibrium does not involve H).
        """
        nw = self.network
        gens = self.gens
        p_spec = nw.p_gen_set - nw.p_load
        q_spec = -nw.q_load
        vc, s_inj, _ = solve_power_flow(nw.ybus, nw.bus_type, p_spec,
                                        q_spec, nw.v_set, tol=1e-13)
        self.pf_voltages = vc
        # load admittances are anchored at the initial voltages
        self._inv_v0_sq = 1.0 / np.abs(vc) ** 2

        gb = gens.bus
        s_gen = s_inj[gb] + nw.p_load[gb] + 1j * nw.q_load[gb]
        v_g = vc[gb]
        i_g = np.conj(s_gen / v_g)
        e = v_g + (gens.rs + 1j * gens.xq) * i_g
        delta0 = np.angle(e)
        sd, cd = np.sin(delta0), np.cos(delta0)
        vd = v_g.real * sd - v_g.imag * cd
        vq = v_g.real * cd + v_g.imag * sd
        id0 = i_g.real * sd - i_g.imag * cd
        iq0 = i_g.real * cd + i_g.imag * sd

        edp0 = vd + gens.rs * id0 - gens.xqp * iq0
        eqp0 = vq + gens.rs * iq0 + gens.xdp * id0
        efd0 = eqp0 + (gens.xd - gens.xdp) * id0
        te0 = edp0 * id0 + eqp0 * iq0 + (gens.xqp - gens.xdp) * id0 * iq0
        se0 = gens.sat_a * np.exp(gens.sat_b * efd0)
        vr0 = (gens.ke + se0) * efd0
        rf0 = gens.kf / gens.tf * efd0

        self.tm = te0
        self.vref = np.abs(v_g) + vr0 / gens.ka

        u0 = np.zeros(N_STATE)
        for i in range(N_MACH):
            xo = 7 * i
            u0[xo + DELTA] = delta0[i]
            u0[xo + OMEGA] = self.omega_s
            u0[xo + EQP] = eqp0[i]
            u0[xo + EDP] = edp0[i]
            u0[xo + EFD] = efd0[i]
            u0[xo + RF] = rf0[i]
            u0[xo + VR] = vr0[i]
            u0[ix_id(i)] = id0[i]
            u0[ix_iq(i)] = iq0[i]
        u0[ix_vre(0)::2][:N_BUS] = vc.real
        u0[ix_vim(0)::2][:N_BUS] = vc.imag
        self._u0 = u0

    def steady_state(self) -> np.ndarray:
        return self._u0.copy()

    # ------------------------------------------------------------------
    # load schedule

    def loads_at(self, t: float, events=()) -> tuple[np.ndarray, np.ndarray]:
        """Constant-power loads active at time t ([start, end) convention)."""
        p = self.network.p_load.copy()
        q = self.network.q_load.copy()
        for ev in events:
            if ev.start <= t < ev.end:
                p[ev.bus - 1] = ev.load
        return p, q

    def load_set(self, p_load: np.ndarray, q_load: np.ndarray) -> np.ndarray:
        """The matrix of one load set: the constant part of F_u minus the
        load admittances Y_L = (P - jQ) / |V0|^2 in the network rows."""
        gl = p_load * self._inv_v0_sq
        bl = q_load * self._inv_v0_sq
        jl = self._jtemplate.copy()
        # a zero load subtracts 0
        jl.reshape(-1)[self._load_idx] -= np.concatenate((gl, bl, -bl, gl))
        return jl

    # ------------------------------------------------------------------
    # DAE right-hand side and Jacobians (F convention: M du/dt = F)

    def rhs(self, u: np.ndarray, m: np.ndarray,
            loads: np.ndarray) -> np.ndarray:
        """F(u; m) = (h, g) under the load-set matrix loads: differential
        RHS rows plus algebraic residuals.

        loads holds every constant-coefficient term of F, the load
        currents included.  F is that matrix times u plus, per machine on
        Python floats, -omega_s in the angle row, the swing row, exciter
        saturation, the terminal-voltage feedback, -v_d and -v_q in the
        stator rows and the generator injection.
        """
        ws = self.omega_s
        f = loads @ u
        uu = u.tolist()
        vals = []
        for (xo, s0, s1, rv, iv, d, xqd, ke, te, sat_a, sat_b, ka_ta), m_i, \
                tm, vref in zip(self._mach_consts, m.tolist(),
                                self.tm.tolist(), self.vref.tolist()):
            sd, cd = math.sin(uu[xo + DELTA]), math.cos(uu[xo + DELTA])
            efd = uu[xo + EFD]
            cur_d, cur_q = uu[s0], uu[s1]
            vre_g, vim_g = uu[rv], uu[iv]
            torque = uu[xo + EDP] * cur_d + uu[xo + EQP] * cur_q \
                + xqd * cur_d * cur_q
            vals += (
                -ws,
                ws / (2.0 * m_i) * (tm - torque - d * (uu[xo + OMEGA] - ws) / ws),
                -(ke + sat_a * math.exp(sat_b * efd)) * efd / te,
                ka_ta * (vref - math.hypot(vre_g, vim_g)),
                -(vre_g * sd - vim_g * cd), -(vre_g * cd + vim_g * sd),
                cur_d * sd + cur_q * cd, cur_q * sd - cur_d * cd)
        f[self._rhs_idx] += vals
        return f

    def jac_u(self, u: np.ndarray, m: np.ndarray,
              loads: np.ndarray) -> np.ndarray:
        """dF/du under the load-set matrix loads, as a dense (45, 45)
        array: a copy of loads with the state-dependent entries of
        _jac_entries, on Python floats, written at jac_idx."""
        ws = self.omega_s
        uu = u.tolist()
        vals = []
        for consts, m_i in zip(self._mach_consts, m.tolist()):
            vals += _jac_entries(math, uu, consts, m_i, ws)
        jac = loads.copy()
        jac.reshape(-1)[self.jac_idx] = vals
        return jac

    def jac_u_entries(self, states: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The state-dependent entries of dF/du at each row of the stack
        states (n, 45), as an (n, 60) array in jac_idx order: the
        formulas of jac_u, evaluated on node arrays.  F_u at state k
        under a load set is that set's matrix with row k written at
        jac_idx."""
        ws = self.omega_s
        vals = []
        for consts, m_i in zip(self._mach_consts, m.tolist()):
            vals += _jac_entries(np, states.T, consts, m_i, ws)
        return np.stack(np.broadcast_arrays(*vals), axis=1)

    def jac_m(self, states: np.ndarray, m: np.ndarray) -> np.ndarray:
        """dF/dm at each row of the stack states (n, 45), as a dense
        (n, 45, 3) array, nonzero only in the three swing rows:
        -ws / (2 m_i^2) times machine i's accelerating torque.  The
        loads do not enter it."""
        ws = self.omega_s
        uu = states.T
        jac = np.zeros((len(states), N_STATE, self.n_param))
        for i, ((xo, s0, s1, _, _, d, xqd, *_), m_i, tm) in enumerate(zip(
                self._mach_consts, m.tolist(), self.tm.tolist())):
            cur_d, cur_q = uu[s0], uu[s1]
            torque = uu[xo + EDP] * cur_d + uu[xo + EQP] * cur_q \
                + xqd * cur_d * cur_q
            jac[:, xo + OMEGA, i] = -ws / (2.0 * m_i * m_i) * (
                tm - torque - d * (uu[xo + OMEGA] - ws) / ws)
        return jac


def load_system(path: str | Path | None = None) -> NineBusSystem:
    """Load the data file and return the model built at its equilibrium.

    With no argument the packaged WSCC 9-bus data set is used.
    """
    src = resources.files("gridest.data").joinpath("wscc9.yaml") \
        if path is None else Path(path)
    raw = yaml.safe_load(src.read_text())
    if raw.get("version") != 1:
        raise ValueError("unsupported data file version")

    buses = raw["buses"]
    if len(buses) != N_BUS:
        raise ValueError(f"expected {N_BUS} buses, got {len(buses)}")
    type_map = {"slack": SLACK, "pv": PV, "pq": PQ}
    bus_type = np.empty(N_BUS, dtype=int)
    v_set = np.ones(N_BUS)
    p_load = np.zeros(N_BUS)
    q_load = np.zeros(N_BUS)
    for entry in buses:
        b = entry["id"] - 1
        bus_type[b] = type_map[entry["type"]]
        v_set[b] = entry.get("v_set", 1.0)
        p_load[b] = entry.get("p_load", 0.0)
        q_load[b] = entry.get("q_load", 0.0)

    gens_raw = raw["generators"]
    if len(gens_raw) != N_MACH:
        raise ValueError(f"expected {N_MACH} generators, got {len(gens_raw)}")

    p_gen_set = np.zeros(N_BUS)
    for g in gens_raw:
        p_gen_set[g["bus"] - 1] = g["p_set"]

    # machine constants per generator, exciter constants shared by all three
    gens = GeneratorParams(
        bus=np.array([g["bus"] - 1 for g in gens_raw]),
        **{key: np.array([g[key] for g in gens_raw], dtype=float)
           for key in ("d", "rs", "xd", "xdp", "xq", "xqp", "td0p", "tq0p")},
        **{key: np.full(N_MACH, float(raw["exciters"][key]))
           for key in ("ka", "ta", "ke", "te", "kf", "tf", "sat_a", "sat_b")})

    network = NetworkData(
        ybus=_build_ybus(raw["branches"]),
        bus_type=bus_type, v_set=v_set,
        p_gen_set=p_gen_set, p_load=p_load, q_load=q_load,
    )
    omega_s = 2.0 * np.pi * raw["system"]["f_hz"]
    return NineBusSystem(network, gens, omega_s)
