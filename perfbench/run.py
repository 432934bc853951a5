"""Benchmark of the gridest estimators, run from the repository root:

    python3 perfbench/run.py --workload adjoint-study --seed 1 --seconds 20 --trace 0

A run sets up its workload (import gridest, load the system, build the
inputs from --seed), then repeats whole rounds of the workload's
estimates until --seconds have passed and at least MIN_ROUNDS rounds
are done, checks the outputs and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are end to end: setup_s (median over this
process and SETUP_PROBES fresh processes, half of them before the rounds
and half after), study_s (median round time), estimate_s (median time of
one estimate) and peak_rss_mb.  With --trace 1 wrappers record spans
around the library's layers and the metrics are per layer.  Metric names
and units come from BENCHMARK.json.  Details and spans go to
perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# Every matrix is 45x45: extra BLAS threads only add jitter.  Set before
# numpy is imported, here and in the set-up probes that inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 6
MIN_ROUNDS = 2
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def import_gridest():
    """Import the library from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gridest
    except ImportError as exc:
        raise SystemExit(f"cannot import gridest from {src}: {exc}")
    if Path(gridest.__file__).resolve().parent != src / "gridest":
        raise SystemExit(f"gridest imported from {gridest.__file__}, "
                         f"not from {src}")
    return gridest


def set_up(args, tracer=None):
    """What a fresh process pays before its first estimate: importing
    gridest, load_system with its power flow, and the workload's inputs."""
    t0 = time.perf_counter()
    gridest = import_gridest()
    import workloads
    with tracer.span("setup") if tracer else nullcontext():
        if tracer:
            from tracing import install_module_hooks, install_system_hooks
            install_module_hooks(tracer)
        system = gridest.load_system()
        if tracer:
            install_system_hooks(tracer, system)
        ctx = workloads.Context(gridest, system, args.seed,
                                "small" if args.small else "full")
        workload = workloads.WORKLOADS[args.workload](ctx)
    return workload, time.perf_counter() - t0


def probe_setup(args):
    """Set up once in a fresh process; returns (seconds, input digest)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    if args.small:
        cmd.append("--small")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{done.stderr}")
    probe = json.loads(done.stdout.splitlines()[-1])
    return probe["setup_s"], probe["digest"]


def run_rounds(workload, seconds, tracer):
    """Whole rounds until `seconds` have passed, and at least MIN_ROUNDS."""
    errors = (RuntimeError, ValueError, ArithmeticError)  # LinAlgError too
    ops = workload.operations()
    rounds = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with tracer.span("round") if tracer else nullcontext():
            times, results, failures = [], [], {}
            for label, op in ops:
                t = time.perf_counter()
                try:
                    with tracer.span("estimate") if tracer else nullcontext():
                        result = op()
                    reason = workload.failure(result)
                except errors as exc:
                    result, reason = None, repr(exc)
                if reason is not None:
                    result = None
                    failures[label] = reason
                times.append(time.perf_counter() - t)
                results.append(result)
        t1 = time.perf_counter()
        rounds.append({"round_s": t1 - t0, "estimate_s": times,
                       "results": results, "failures": failures})
        if len(rounds) >= MIN_ROUNDS and t1 - begin >= seconds:
            return rounds


def common_checks(workload, rounds, digests):
    import numpy as np
    from workloads import Check

    def points(rnd):
        return [None if r is None else workload.key(r) for r in rnd["results"]]

    def same(a, b):
        return a is b or (a is not None and b is not None
                          and np.array_equal(a, b))
    first = points(rounds[0])
    differ = [k for k, rnd in enumerate(rounds[1:], start=2)
              if not all(map(same, first, points(rnd)))]
    unexpected = sorted({label for rnd in rounds for label in rnd["failures"]}
                        - workload.expected_failures)
    return [
        Check("inputs.same_for_seed", len(set(digests)) == 1,
              f"input digests of {len(digests)} set-ups: "
              f"{sorted(set(digests))}"),
        Check("rounds.identical", len(rounds) >= 2 and not differ,
              f"rounds differing from the first: {differ}" if differ
              else f"{len(rounds)} rounds, same MAP points"),
        Check("estimates.only_expected_failures", not unexpected,
              f"unexpected failures: {unexpected}; expected: "
              f"{sorted(workload.expected_failures)}"),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shortened inputs, for the benchmark's own test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)

    if args.setup_probe:
        workload, setup_s = set_up(args)
        print(json.dumps({"setup_s": setup_s, "digest": workload.digest}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    workload, setup_s = set_up(args, tracer)
    samples, digests = [setup_s], [workload.digest]

    def probes(n):
        for _ in range(0 if args.trace else n):
            s, d = probe_setup(args)
            samples.append(s)
            digests.append(d)

    probes(SETUP_PROBES // 2)
    rounds = run_rounds(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes(SETUP_PROBES - SETUP_PROBES // 2)

    if tracer:
        tracer.active = False
    checks = common_checks(workload, rounds, digests)
    checks += workload.checks(rounds[0]["results"])

    attempted = sum(len(r["results"]) for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    estimate_times = [t for r in rounds for t in r["estimate_s"]]
    study_s = statistics.median(r["round_s"] for r in rounds)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        from tracing import layer_figures
        from workloads import Check
        values, mismatched = layer_figures(tracer)
        checks.append(Check("trace.counts_repeat", not mismatched,
                            f"rounds whose counts differ: {mismatched}"))
        tracer.save(OUT / f"{tag}-spans.npz")
    else:
        values = {"setup_s": statistics.median(samples), "study_s": study_s,
                  "estimate_s": statistics.median(estimate_times),
                  "peak_rss_mb": peak_rss_mb}
    specs = SPEC["per_layer" if tracer else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    correct = all(c.passed for c in checks)

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "small": args.small, "seconds": args.seconds,
        "setup_samples_s": samples, "rounds": len(rounds),
        "round_s": [r["round_s"] for r in rounds],
        "estimate_s": estimate_times, "study_s": study_s,
        "failures": [f"{label}: {reason}" for r in rounds
                     for label, reason in r["failures"].items()],
        "checks": [vars(c) for c in checks], "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")

    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    for f in detail["failures"]:
        print(f"FAILED {f}")
    print(f"{args.workload}: {len(rounds)} rounds, study_s {study_s:.4f} "
          f"({'traced' if tracer else 'untraced'})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
