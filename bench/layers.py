"""Layer timings of gridest, written to BENCH_layers.json, run from the
repository root:

    python3 bench/layers.py
    python3 bench/layers.py --src parent=../parent/src --src change=src

Each --src LABEL=DIR names a source tree to import gridest from (default:
this checkout's src/, labelled "this").  Every repeat runs each case once
per tree, in a fresh interpreter, alternating which tree goes first, so
trees compared in one run share the machine's drift.  For each case and
tree the file holds the median, quartiles and sample count of every
figure, next to the environment.  The tests run two repeats and check
the file's keys; they gate no time.

Cases:
  import_gridest  `import gridest` in a fresh interpreter: its wall time
                  (import_s) and the process's peak RSS after it
                  (peak_rss_mib).
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

CASES = {"import_gridest": _IMPORT_GRIDEST}


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
