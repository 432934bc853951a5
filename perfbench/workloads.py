"""The benchmark's workloads: inputs, one round of estimates, checks.

Every workload drives the library through its public API.  Inputs are
made from the run's seed; a round is a fixed list of estimates on those
inputs, so every round of a run does identical work.  The checks test
properties the method must have, or compare with a computation made
apart from the estimator; none compares with stored output.

The data carry the acceptance battery's pinned noise realization,
seed 1234.  The checks hold fixed bounds on
quantities that are random over realizations (Err, tau, CNS), which an
honest posterior leaves on a few per cent of them, and the adjoint MAP
stops short of convergence on some drawn realizations.  The seed draws
the gradient-check point, the multi-start points and the held-out
points.

A check needs a result for every estimate it names.  The one exception
is an estimate listed in a workload's `expected_failures`: it fails in
every run because of a known fault in the library, counts in `failed`,
and the checks speak of the estimates that did not fail.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import comb

import numpy as np

PINNED_NOISE_SEED = 1234      # realization of acceptance criteria 4 and 9
ORDER = 2                     # PCE order throughout
RULES = ("stochastic-testing", "tensor", "sparse")

# acceptance criterion 4
ERR_MAX = 0.02
TAU_RANGE = (0.005, 0.10)
CNS_RANGE = (0.005, 0.995)

GRAD_TOL = 1e-5           # adjoint vs central differences (criterion 1)
SURROGATE_TOL = 0.05      # ||f_hat - f|| / ||f|| at held-out draws
HELD_OUT_BOX = 1.5        # held-out draws lie within 1.5 prior std


@dataclass(frozen=True)
class Scenario:
    name: str
    t_f: float
    dt_obs: float
    load: float
    noise_var: float


# adjoint-study: points on the four study axes.  The regime points are
# acceptance criterion 4's; the load axis sits at one horizon so that
# tau can be compared along it.
ADJOINT_SCENARIOS = {
    "full": (
        Scenario("regime-1s", 1.0, 0.05, 5.5, 1e-4),
        Scenario("regime-2s", 2.0, 0.1, 5.5, 1e-4),
        Scenario("load-4.25", 1.0, 0.1, 4.25, 1e-4),
        Scenario("load-5.5", 1.0, 0.1, 5.5, 1e-4),
        Scenario("load-6.25", 1.0, 0.1, 6.25, 1e-4),
        Scenario("load-7.0", 1.0, 0.1, 7.0, 1e-4),
        Scenario("noise-1e-3", 1.0, 0.1, 5.5, 1e-3),
    ),
    "small": (
        Scenario("regime-1s", 1.0, 0.05, 5.5, 1e-4),
        Scenario("load-4.25", 1.0, 0.1, 4.25, 1e-4),
        Scenario("load-5.5", 1.0, 0.1, 5.5, 1e-4),
    ),
}
# Criterion 4 bounds tau and CNS on every noise-1e-4 scenario, and Err on
# its own regime points.  With half regime-1s's observations, load-4.25's
# Err is 0.0212 on the pinned data, inside its own posterior spread
# (tau 0.036, CNS 0.19-0.86).
CRITERION4_NOISE_VAR = 1e-4
ERR_SCENARIOS = ("regime-1s", "regime-2s")
LOAD_AXIS_PREFIX = "load-"
GRADIENT_CHECK_SCENARIO = "load-4.25"
# The adjoint MAP of load-7.0 stops with converged=False on the pinned
# data in every run (lbfgs stagnation above the noise floor).
ADJOINT_EXPECTED_FAILURES = frozenset({"load-7.0"})

PCE_SCENARIO = {
    "full": Scenario("pce-2s", 2.0, 0.05, 5.5, 1e-4),
    "small": Scenario("pce-1s", 1.0, 0.05, 5.5, 1e-4),
}
HELD_OUT_DRAWS = 2


def derived_seed(seed: int, *key: int) -> int:
    """An independent 32-bit seed for stream `key` of the run seed."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key)
               .generate_state(1)[0])


@dataclass
class Check:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        self.passed = bool(self.passed)


class Context:
    """What every workload gets: the library, the model, the run's seed and
    the constants of the baseline study (prior, truth, step size)."""

    def __init__(self, gridest, system, seed: int, profile: str):
        self.gridest = gridest
        self.system = system
        self.seed = seed
        self.profile = profile
        cfg = gridest.ScenarioConfig()
        self.prior = cfg.prior()
        self.m_true = np.asarray(cfg.m_true)
        self.dt = cfg.dt
        self._truth = {}

    def config(self, sc: Scenario):
        gridest = self.gridest
        event = gridest.DisturbanceEvent(bus=5, start=0.1, duration=0.2,
                                         load=sc.load)
        return gridest.ScenarioConfig(t_f=sc.t_f, dt_obs=sc.dt_obs,
                                      noise_var=sc.noise_var,
                                      disturbance=event)

    def truth(self, sc: Scenario):
        """Trajectory of the true inertias, shared by scenarios alike in it."""
        key = (sc.t_f, sc.load)
        if key not in self._truth:
            cfg = self.config(sc)
            self._truth[key] = self.gridest.simulate(
                self.system, self.m_true, cfg.t_f, cfg.dt, events=cfg.events())
        return self._truth[key]

    def data(self, sc: Scenario, noise_seed: int):
        """(obs, noise, events) for one noisy realization of a scenario."""
        gridest = self.gridest
        cfg = self.config(sc)
        times = cfg.times()
        noise = cfg.noise(2 * gridest.ninebus.N_BUS * len(times))
        obs = gridest.synthesize_observations(self.truth(sc), times, noise,
                                              seed=noise_seed)
        return obs, noise, cfg.events()


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def central_gradient(fun, m, rel_step):
    g = np.empty(m.size)
    for j in range(m.size):
        h = rel_step * abs(m[j])
        e = np.zeros(m.size)
        e[j] = h
        g[j] = (fun(m + e) - fun(m - e)) / (2.0 * h)
    return g


def central_hessian(fun, m, rel_step):
    n = m.size
    hess = np.empty((n, n))
    steps = rel_step * np.abs(m)
    for a in range(n):
        for b in range(n):
            ea = np.zeros(n)
            eb = np.zeros(n)
            ea[a] = steps[a]
            eb[b] = steps[b]
            hess[a, b] = (fun(m + ea + eb) - fun(m + ea - eb)
                          - fun(m - ea + eb) + fun(m - ea - eb)) \
                / (4.0 * steps[a] * steps[b])
    return 0.5 * (hess + hess.T)


def _spd_below_prior(summary, prior_var):
    g = summary.gamma_post
    sym = np.max(np.abs(g - g.T)) <= 1e-10 * np.max(np.abs(g))
    return sym and np.linalg.eigvalsh(g).min() > 0 \
        and bool(np.all(np.diag(g) < prior_var))


class Workload:
    """A workload builds its inputs in __init__ (part of the set-up) and
    returns one round as a list of (label, estimate) from operations()."""

    expected_failures = frozenset()

    def failure(self, result) -> str | None:
        """Why a returned result counts as a failed estimate, if it does."""
        return None

    def missing(self, named, labels):
        """Labels without a result that were not expected to fail."""
        return [k for k in labels
                if named[k] is None and k not in self.expected_failures]


class AdjointStudy(Workload):
    """Adjoint + L-BFGS estimates over points of the study axes."""

    name = "adjoint-study"
    expected_failures = ADJOINT_EXPECTED_FAILURES

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.scenarios = ADJOINT_SCENARIOS[ctx.profile]
        self.data = [ctx.data(sc, PINNED_NOISE_SEED) for sc in self.scenarios]
        self.digest = digest(*(obs.values for obs, _, _ in self.data))

    def operations(self):
        ctx = self.ctx
        ops = []
        for sc, (obs, noise, events) in zip(self.scenarios, self.data):
            def op(sc=sc, obs=obs, noise=noise, events=events):
                return ctx.gridest.estimate_adjoint(
                    ctx.system, obs, noise, ctx.prior, sc.t_f, ctx.dt,
                    events=events, m_true=ctx.m_true)
            ops.append((sc.name, op))
        return ops

    def key(self, summary):
        return summary.m_map

    def failure(self, summary):
        """A MAP that does not converge counts as a failed estimate."""
        if not summary.stats["converged"]:
            return f"MAP not converged: {summary.stats['message']}"
        return None

    def checks(self, results):
        ctx = self.ctx
        names = [sc.name for sc in self.scenarios]
        named = dict(zip(names, results))
        out = []

        lost = self.missing(named, names)
        bad = [n for n, s in named.items() if s is not None
               and not _spd_below_prior(s, ctx.prior.var)]
        out.append(Check("adjoint.covariance_spd_below_prior",
                         not bad and not lost,
                         f"failed: {bad}, no result: {lost}" if bad or lost
                         else "all SPD, below prior"))
        out.append(self._gradient_check())

        for sc in self.scenarios:
            if sc.noise_var != CRITERION4_NOISE_VAR:
                continue
            s = named[sc.name]
            if s is None:
                if self.missing(named, [sc.name]):
                    out.append(Check(f"adjoint.criterion4.{sc.name}", False,
                                     "no result"))
                continue
            ok = (TAU_RANGE[0] <= s.tau <= TAU_RANGE[1]
                  and bool(np.all((s.cns > CNS_RANGE[0])
                                  & (s.cns < CNS_RANGE[1]))))
            if sc.name in ERR_SCENARIOS:
                ok = ok and s.err <= ERR_MAX
            out.append(Check(f"adjoint.criterion4.{sc.name}", ok,
                             f"Err={s.err:.4f}"
                             f"{f' (max {ERR_MAX})' if sc.name in ERR_SCENARIOS else ''}"
                             f" tau={s.tau:.4f} "
                             f"CNS={np.round(s.cns, 4).tolist()}"))

        axis = [sc for sc in self.scenarios
                if sc.name.startswith(LOAD_AXIS_PREFIX)]
        lost = self.missing(named, [sc.name for sc in axis])
        loads = sorted((sc.load, named[sc.name].tau) for sc in axis
                       if named[sc.name] is not None)
        taus = [t for _, t in loads]
        out.append(Check("adjoint.tau_nonincreasing_in_load",
                         len(taus) >= 2 and not lost
                         and all(a >= b for a, b in zip(taus, taus[1:])),
                         f"tau by load {[(l, round(t, 5)) for l, t in loads]}"
                         f", no result: {lost}"))
        return out

    def _gradient_check(self):
        """Adjoint gradient vs central differences of J at a seeded point
        within +-20% of the prior mean (acceptance criterion 1).  The
        error of m_j dJ/dm_j is taken relative to the largest such
        component, so a component that happens to be near zero does not
        turn finite-difference roundoff into a failure."""
        ctx = self.ctx
        gridest = ctx.gridest
        i = [sc.name for sc in self.scenarios].index(GRADIENT_CHECK_SCENARIO)
        sc, (obs, noise, events) = self.scenarios[i], self.data[i]
        rng = np.random.default_rng(derived_seed(ctx.seed, 1))
        m = ctx.prior.mean * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, 3))
        traj = gridest.simulate(ctx.system, m, sc.t_f, ctx.dt, events=events)
        g_adj = gridest.adjoint.backward_sweep(ctx.system, traj, m, obs,
                                               noise, prior=ctx.prior)

        def j(x):
            return gridest.neg_log_posterior(ctx.system, x, obs, noise,
                                             ctx.prior, sc.t_f, ctx.dt,
                                             events)
        g_fd = central_gradient(j, m, 1e-6)
        rel = np.max(np.abs(m * (g_adj - g_fd))) / np.max(np.abs(m * g_fd))
        return Check("adjoint.gradient_matches_fd", rel <= GRAD_TOL,
                     f"rel error {rel:.2e} at m={np.round(m, 3).tolist()} "
                     f"(tol {GRAD_TOL:.0e})")


class PceBuild(Workload):
    """Order-2 surrogates with each rule on one scenario, then their MAPs."""

    name = "pce-build"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.sc = PCE_SCENARIO[ctx.profile]
        self.obs, self.noise, self.events = ctx.data(self.sc, PINNED_NOISE_SEED)
        self.digest = digest(self.obs.values)
        # forward solves made while building each surrogate, counted per estimate
        self.solves = []
        pce = ctx.gridest.pce
        simulate = pce.simulate

        def counted(*args, **kwargs):
            self.solves[-1] += 1
            return simulate(*args, **kwargs)
        pce.simulate = counted

    def operations(self):
        ctx = self.ctx
        ops = []
        for k, rule in enumerate(RULES):
            def op(rule=rule, k=k):
                self.solves.append(0)
                summary, surrogate = ctx.gridest.estimate_pce(
                    ctx.system, self.obs, self.noise, ctx.prior, self.sc.t_f,
                    ctx.dt, events=self.events, order=ORDER, rule=rule,
                    m_true=ctx.m_true, seed=derived_seed(ctx.seed, 2, k))
                return summary, surrogate, self.solves[-1]
            ops.append((rule, op))
        return ops

    def key(self, result):
        return result[0].m_map

    def failure(self, result):
        """A surrogate MAP none of whose starts converged fails."""
        stats = result[0].stats
        if stats["n_converged_starts"] == 0:
            return f"no start of {stats['n_starts']} converged"
        return None

    def checks(self, results):
        ctx = self.ctx
        n = ctx.prior.mean.size
        nodes = {"stochastic-testing": comb(n + ORDER, ORDER),
                 "tensor": (ORDER + 1) ** n,
                 # Smolyak level p+1 on nested 1/3-point rules: the centre,
                 # two points per axis and four per coordinate plane
                 "sparse": 1 + 2 * n + 4 * comb(n, 2)}
        named = dict(zip(RULES, results))
        lost = self.missing(named, RULES)
        done = [(rule, r) for rule, r in named.items() if r is not None]
        out = [Check("pce.every_rule_estimated", not lost,
                     f"no result: {lost}" if lost else "all rules")]
        counts = {rule: (r[2], r[1].n_forward) for rule, r in done}
        ok = all(c == (nodes[rule], nodes[rule]) for rule, c in counts.items())
        out.append(Check("pce.forward_solves_equal_nodes", ok and not lost,
                         f"(counted, recorded) {counts} vs nodes {nodes}"))

        rng = np.random.default_rng(derived_seed(ctx.seed, 3))
        draws = []
        while len(draws) < HELD_OUT_DRAWS:
            xi = rng.standard_normal(n)
            if np.max(np.abs(xi)) <= HELD_OUT_BOX:
                draws.append(ctx.prior.mean + np.sqrt(ctx.prior.var) * xi)
        truth = [ctx.gridest.observe(
            ctx.gridest.simulate(ctx.system, m, self.sc.t_f, ctx.dt,
                                 events=self.events), self.obs.times)
                 for m in draws]
        worst = {rule: max(np.linalg.norm(r[1].evaluate(m) - f)
                           / np.linalg.norm(f) for m, f in zip(draws, truth))
                 for rule, r in done}
        out.append(Check("pce.surrogate_matches_simulation",
                         not lost and all(w <= SURROGATE_TOL
                                          for w in worst.values()),
                         "worst ||f_hat - f||/||f|| "
                         f"{ {k: round(float(v), 4) for k, v in worst.items()} } "
                         f"(tol {SURROGATE_TOL})"))

        for rule, (summary, surrogate, _) in done:
            j = self._objective(surrogate)
            eig = np.linalg.eigvalsh(central_hessian(j, summary.m_map, 1e-4))
            out.append(Check(f"pce.map_quality.{rule}",
                             summary.err <= ERR_MAX and eig.min() > 0,
                             f"Err={summary.err:.4f} (max {ERR_MAX}), "
                             f"FD Hessian eigenvalues "
                             f"{np.array2string(eig, precision=3)}"))
        return out

    def _objective(self, surrogate):
        """J(m) computed apart from the library's surrogate objective:
        Surrogate.evaluate and numpy only."""
        mean, var = self.ctx.prior.mean, self.ctx.prior.var

        def j(m):
            r = surrogate.evaluate(m) - self.obs.values
            return 0.5 * float(r @ (r / self.noise.var)) \
                + 0.5 * float((m - mean) @ ((m - mean) / var))
        return j


WORKLOADS = {w.name: w for w in (AdjointStudy, PceBuild)}
