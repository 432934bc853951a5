"""Layer timings of gridest, written to BENCH_layers.json, run from the
repository root:

    python3 bench/layers.py
    python3 bench/layers.py --src parent=../parent/src --src change=src

Each --src LABEL=DIR names a source tree to import gridest from (default:
this checkout's src/, labelled "this").  Every repeat runs each case once
per tree, in a fresh interpreter, alternating which tree goes first, so
trees compared in one run share the machine's drift.  For each case and
tree the file holds the median, quartiles and sample count of every
figure, next to the environment.  The tests run two repeats, check the
keys, compare the work counts with the committed file's and gate no
time.

Cases:
  import_gridest  `import gridest` in a fresh interpreter: its wall time
                  (import_s) and the process's peak RSS after it
                  (peak_rss_mib).
  tangent_linear  one tangent-linear pass along the trajectory at the
                  prior mean of ScenarioConfig's seed-1234 scenario,
                  cut to 1 s and 5 s.
  backward_sweep  one adjoint sweep (backward_sweep) along the same
                  trajectories.
  laplace_step    the adjoint estimate's work from the MAP driver's result
                  to gamma_post, on the same scenarios: the inverse of
                  AdjointObjective.hessian, or on a tree without it (one
                  from before the adjoint Hessian, kept to re-measure
                  such trees), laplace_covariance over
                  predicted_gradient.
For the last three, each horizon T (1s, 5s) gives the median time of
one call over 20 (1 s) or 5 (5 s) calls in the interpreter (call_s_T),
and the work of one call, which does not depend on the machine: LU
factorizations (calls of gridest.adjoint.lu_factor, lu_factors_T),
tangent-linear passes (tangent_passes_T) and adjoint sweeps
(adjoint_sweeps_T), the walks of gridest.adjoint._linearization in time
order and reversed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_IMPORT_GRIDEST = """if True:
    import json, resource, time
    t0 = time.perf_counter()
    import gridest
    import_s = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"import_s": import_s, "peak_rss_mib": rss}))
"""

_SENSITIVITY_CASE = """if True:
    import json, statistics, time
    from dataclasses import replace
    import gridest.adjoint as adjoint
    from gridest.bayes import (AdjointObjective, hessian_inverse,
                               laplace_covariance, map_estimate)
    from gridest.integrator import simulate
    from gridest.ninebus import load_system
    from gridest.scenario import ScenarioConfig

    work = dict(lu_factors=0, tangent_passes=0, adjoint_sweeps=0)
    factor, walk = adjoint.lu_factor, adjoint._linearization

    def counted_factor(*args):
        work["lu_factors"] += 1
        return factor(*args)

    def counted_walk(*args, reverse=False):
        work["adjoint_sweeps" if reverse else "tangent_passes"] += 1
        return walk(*args, reverse=reverse)

    adjoint.lu_factor, adjoint._linearization = counted_factor, counted_walk

    def tangent_linear(cfg, obs, noise, prior):
        traj = simulate(system, prior.mean, cfg.t_f, cfg.dt, cfg.events())
        return lambda: adjoint.tangent_linear(system, traj, prior.mean, obs)

    def backward_sweep(cfg, obs, noise, prior):
        traj = simulate(system, prior.mean, cfg.t_f, cfg.dt, cfg.events())
        return lambda: adjoint.backward_sweep(system, traj, prior.mean, obs,
                                              noise, prior=prior)

    def laplace_step(cfg, obs, noise, prior):
        objective = AdjointObjective(system, obs, noise, prior, cfg.t_f,
                                     cfg.dt, cfg.events())
        res = map_estimate(objective, prior.mean.copy())
        if hasattr(objective, "hessian"):
            return lambda: hessian_inverse(objective.hessian(res.x))
        return lambda: laplace_covariance(res.x, objective.predicted_gradient,
                                          objective.anchor_gradient)[0]

    system = load_system()
    out = {}
    for tag, t_f, calls in (("1s", 1.0, 20), ("5s", 5.0, 5)):
        cfg = replace(ScenarioConfig(), t_f=t_f)
        obs, noise = cfg.observations(cfg.truth(system))
        call = CASE(cfg, obs, noise, cfg.prior())
        work.update(dict.fromkeys(work, 0))
        call()
        out.update({f"{key}_{tag}": n for key, n in work.items()})
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[f"call_s_{tag}"] = statistics.median(times)
    print(json.dumps(out))
"""

CASES = {"import_gridest": _IMPORT_GRIDEST,
         **{case: _SENSITIVITY_CASE.replace("CASE", case) for case in
            ("tangent_linear", "backward_sweep", "laplace_step")}}


def run_case(code: str, src: Path) -> dict:
    """One sample: the figures that code prints as JSON, run in a fresh
    interpreter that imports gridest from src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def summarize(values: list) -> dict:
    """Median, quartiles (statistics.quantiles, inclusive) and count."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpus": os.cpu_count(), "system": platform.system()}


def measure(trees: dict, repeats: int) -> dict:
    """{case: {label: {figure: summary}}} over repeats alternating rounds."""
    samples = {case: {label: [] for label in trees} for case in CASES}
    for r in range(repeats):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for case, code in CASES.items():
            for label in order:
                samples[case][label].append(run_case(code, trees[label]))
    return {case: {label: {key: summarize([s[key] for s in runs])
                           for key in runs[0]}
                   for label, runs in by_tree.items()}
            for case, by_tree in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", metavar="LABEL=DIR",
                        help="a source tree to measure (repeatable)")
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args(argv)
    trees = dict(s.split("=", 1) for s in args.src or [f"this={ROOT / 'src'}"])
    trees = {label: Path(d).resolve() for label, d in trees.items()}
    if args.repeats < 2:
        parser.error("--repeats must be at least 2")
    doc = {"harness": "bench/layers.py", "repeats": args.repeats,
           "environment": environment(),
           "cases": measure(trees, args.repeats)}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
