"""Command-line interface: simulate, synthesize, estimate, sweep, check.

Every output file records the package version and resolved config and
is written by observation.write_csv or write_json at repr precision, so
a rerun with the same config and seed is byte-identical.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .bayes import AdjointObjective, PosteriorSummary, estimate_adjoint
from .integrator import grid_nodes
from .ninebus import N_BUS, N_MACH, load_system, state_names
from .observation import (ObservationSet, observe, read_observations,
                          write_csv, write_json, write_observation_csv,
                          write_observations, write_trajectory_csv)
from .pce import PCE_RULES, estimate_pce
from .scenario import DEFAULT_DISTURBANCE, METHODS, ScenarioConfig

def _header_lines(cfg: ScenarioConfig) -> list[str]:
    return [f"gridest {__version__}",
            "config " + json.dumps(cfg.to_dict(), sort_keys=True)]


_EVENT_FLAGS = {"bus": "--bus", "start": "--event-start",
                "duration": "--event-duration", "load": "--load"}


def _load_config(args) -> ScenarioConfig:
    """The scenario of the config file and flags.  A scenario that
    ScenarioConfig or DisturbanceEvent rejects ends the command with
    its message."""
    try:
        cfg = (ScenarioConfig.from_file(args.config) if args.config
               else ScenarioConfig())
        over = {k: getattr(args, k) for k in (
            "t_f", "dt", "dt_obs", "noise_var", "seed", "method",
            "pce_order", "pce_rule") if getattr(args, k) is not None}
        event = {"bus": args.bus, "start": args.event_start,
                 "duration": args.event_duration, "load": args.load}
        event = {k: v for k, v in event.items() if v is not None}
        if args.no_disturbance:
            if event:
                raise SystemExit("--no-disturbance conflicts with "
                                 + ", ".join(_EVENT_FLAGS[k] for k in event))
            over["disturbance"] = None
        elif event:
            over["disturbance"] = replace(
                cfg.disturbance or DEFAULT_DISTURBANCE, **event)
        # one replace: the grid checks see the new dt and disturbance together
        return replace(cfg, **over) if over else cfg
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


# -- subcommands ---------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    traj = cfg.truth(load_system())
    hdr = _header_lines(cfg)
    prefix = Path(args.out_prefix)
    traj_path = prefix.with_name(prefix.name + "_trajectory.csv")
    obs_path = prefix.with_name(prefix.name + "_observables.csv")
    write_trajectory_csv(traj, traj_path, state_names(), header_lines=hdr)
    times = cfg.times()
    clean = ObservationSet(times, np.arange(N_BUS), observe(traj, times))
    write_observation_csv(clean, obs_path, header_lines=hdr)
    print(f"simulated {len(traj.times)} steps to t={cfg.t_f} s")
    print(f"wrote {traj_path} and {obs_path}")
    return 0


def cmd_synth_data(args) -> int:
    cfg = _load_config(args)
    obs, noise = cfg.observations(cfg.truth(load_system()))
    write_observations(obs, noise, args.out, header_lines=_header_lines(cfg))
    print(f"wrote {obs.size} noisy observations to {args.out}")
    return 0


def run_estimate(cfg: ScenarioConfig, system, obs, noise) -> PosteriorSummary:
    """MAP point and Laplace posterior with the back end cfg.method names."""
    if cfg.method == "adjoint":
        return estimate_adjoint(system, obs, noise, cfg.prior(), cfg.t_f,
                                cfg.dt, cfg.events(), m_true=cfg.m_true)
    summary, _ = estimate_pce(system, obs, noise, cfg.prior(), cfg.t_f, cfg.dt,
                              cfg.events(), order=cfg.pce_order,
                              rule=cfg.pce_rule, m_true=cfg.m_true)
    return summary


def _report(summary) -> str:
    std = np.sqrt(np.diag(summary.gamma_post))
    lines = [f"method: {summary.method}",
             "  param        map        std        cns"]
    for i, (m, s, p) in enumerate(zip(summary.m_map, std, summary.cns)):
        lines.append(f"  m_{i + 1}    {m:10.4f} {s:10.4f}     {p:6.4f}")
    lines.append(f"  Err = {summary.err:.4e}   tau = {summary.tau:.4e}")
    st = summary.stats
    lines.append(f"  cost: {st['iterations']} iterations, "
                 f"{st['forward_solves']} forward solves, "
                 f"{st['tangent_solves']} tangent-linear solves, "
                 f"{st['adjoint_solves']} adjoint sweep"
                 f"{'' if st['adjoint_solves'] == 1 else 's'}, "
                 f"converged: {st['converged']}")
    return "\n".join(lines)


def cmd_estimate(args) -> int:
    cfg = _load_config(args)
    system = load_system()
    obs, noise = read_observations(args.data)
    try:    # the data's times on the integrator's grid, before any solve
        grid_nodes(obs.times, cfg.dt, cfg.t_f, "observation time")
    except ValueError as exc:
        raise SystemExit(f"--data {args.data} does not fit the scenario "
                         f"(dt={cfg.dt}, t_f={cfg.t_f}): {exc}") from None
    summary = run_estimate(cfg, system, obs, noise)
    write_json(args.out, {**summary.to_dict(), "config": cfg.to_dict(),
                          "version": __version__})
    print(_report(summary))
    print(f"wrote {args.out}")
    return 0


_SWEEP_COSTS = ("iterations", "forward_solves", "tangent_solves")
_SWEEP_FIELDS = ["index", "t_f", "dt", "dt_obs", "load", "noise_var", "seed",
                 "method", *(f"m_map_{i + 1}" for i in range(N_MACH)),
                 "trace_gamma_post", "err", "tau",
                 *(f"cns_{i + 1}" for i in range(N_MACH)),
                 *_SWEEP_COSTS, "converged"]


def _derived_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=master,
                                      spawn_key=(index,)).generate_state(1)[0])


def _sweep_one(packed):
    index, cfg = packed
    system = load_system()
    obs, noise = cfg.observations(cfg.truth(system))
    s = run_estimate(cfg, system, obs, noise)
    load = cfg.disturbance.load if cfg.disturbance is not None else 0.0
    return [index, cfg.t_f, cfg.dt, cfg.dt_obs, load, cfg.noise_var, cfg.seed,
            cfg.method, *s.m_map, np.trace(s.gamma_post), s.err, s.tau,
            *s.cns, *(s.stats[k] for k in _SWEEP_COSTS),
            int(s.stats["converged"])]


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    axes = {"t_f": args.t_f_list, "dt_obs": args.dt_obs_list,
            "load": args.load_list, "noise_var": args.noise_var_list}
    for name, vals in axes.items():
        if vals is not None and len(vals) == 0:
            raise SystemExit(f"sweep axis {name} is empty")
    grid = list(product(
        axes["t_f"] or [cfg.t_f], axes["dt_obs"] or [cfg.dt_obs],
        axes["load"] or [None], axes["noise_var"] or [cfg.noise_var]))
    # every row is built, and so checked, before the first solve: a value
    # that ScenarioConfig or DisturbanceEvent rejects ends the command
    # with its message and no file
    scenarios = []
    try:
        for i, (t_f, dt_obs, load, nv) in enumerate(grid):
            dist = cfg.disturbance
            if load is not None:
                if dist is None:
                    raise SystemExit("--load-list requires a disturbance")
                dist = replace(dist, load=load)
            scenarios.append((i, replace(
                cfg, t_f=t_f, dt_obs=dt_obs, noise_var=nv, disturbance=dist,
                seed=_derived_seed(cfg.seed, i))))
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_one, scenarios))
    else:
        rows = [_sweep_one(s) for s in scenarios]
    write_csv(args.out, _SWEEP_FIELDS, rows, _header_lines(cfg))
    print(f"wrote {len(rows)} scenario rows to {args.out}")
    return 0


def cmd_gradient_check(args) -> int:
    cfg = _load_config(args)
    system = load_system()
    obs, noise = cfg.observations(cfg.truth(system))
    rng = np.random.default_rng(cfg.seed)
    m0 = np.array(cfg.prior_mean)
    points = [m0] + [m0 * (1.0 + 0.2 * rng.uniform(-1, 1, m0.size))
                     for _ in range(args.n_random)]
    worst = np.zeros(2)
    print("  point                        adjoint    tangent-linear"
          "  (max rel err)")
    objective = AdjointObjective(system, obs, noise, cfg.prior(), cfg.t_f,
                                 cfg.dt, cfg.events())
    for m in points:
        g_adj = objective.gradient(m)
        g_fd = np.empty_like(g_adj)
        for i in range(m.size):
            h = args.fd_step * abs(m[i])
            e = np.zeros_like(m)
            e[i] = h
            g_fd[i] = (objective.value(m + e) - objective.value(m - e)) / (2 * h)
        g_tl = objective.linearize(m)[1]
        rel = [np.max(np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1e-30))
               for g in (g_adj, g_tl)]
        worst = np.maximum(worst, rel)     # keeps a NaN, which fails
        print(f"  [{''.join(f'{x:8.4f}' for x in m)}]   {rel[0]:.3e}  {rel[1]:.3e}")
    ok = bool(np.all(worst <= args.tol))
    print(f"worst relative error {worst[0]:.3e} adjoint, {worst[1]:.3e} "
          f"tangent-linear ({'<=' if ok else '>'} tol {args.tol:.1e})")
    return 0 if ok else 1


# -- parser ---------------------------------------------------------------

def _positive(text: str) -> float:
    x = float(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return x


def _at_least(low: int):
    """argparse type: an integer no smaller than low."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return integer


def _scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="scenario YAML file")
    p.add_argument("--t-f", dest="t_f", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--dt-obs", dest="dt_obs", type=float)
    p.add_argument("--noise-var", dest="noise_var", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--pce-order", dest="pce_order", type=int)
    p.add_argument("--pce-rule", dest="pce_rule", choices=PCE_RULES)
    p.add_argument("--bus", type=int, help="disturbance bus (1-based)")
    p.add_argument("--event-start", dest="event_start", type=float)
    p.add_argument("--event-duration", dest="event_duration", type=float)
    p.add_argument("--load", type=float, help="disturbance load in pu")
    p.add_argument("--no-disturbance", dest="no_disturbance",
                   action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gridest",
        description="Estimate generator inertias from transient voltages")
    ap.add_argument("--version", action="version",
                    version=f"gridest {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="forward-simulate the truth scenario")
    _scenario_flags(p)
    p.add_argument("--out-prefix", default="scenario")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synth-data", help="write noisy synthetic observations")
    _scenario_flags(p)
    p.add_argument("--out", default="observations.csv")
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("estimate", help="MAP + Laplace posterior from data")
    _scenario_flags(p)
    p.add_argument("--data", required=True, help="observations CSV")
    p.add_argument("--out", default="posterior.json")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="grid of scenarios, long-format CSV")
    _scenario_flags(p)
    p.add_argument("--t-f-list", dest="t_f_list", type=float, nargs="*")
    p.add_argument("--dt-obs-list", dest="dt_obs_list", type=float, nargs="*")
    p.add_argument("--load-list", dest="load_list", type=float, nargs="*")
    p.add_argument("--noise-var-list", dest="noise_var_list", type=float,
                   nargs="*")
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradient-check",
                       help="both sensitivity gradients vs central differences")
    _scenario_flags(p)
    p.add_argument("--n-random", dest="n_random", type=_at_least(0), default=0)
    p.add_argument("--fd-step", dest="fd_step", type=_positive, default=1e-6)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_gradient_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
