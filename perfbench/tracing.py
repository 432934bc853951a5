"""Spans around the library's public functions, and the per-layer figures.

Each layer is measured from outside.  A wrapper is installed at the name
a caller looks the function up by (a module global, or a method of the
system instance), so the library itself is not edited.  Every call made
while the tracer is active records a span: name, start, end and the span
that was open when it began.  Spans stay in memory until the run ends.

A layer's self time is its span time minus the time of its child spans.
The benchmark opens its own top-level spans ("setup", "round") and one
"estimate" span per estimate, so every library span belongs to exactly
one set-up or one round.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Flat, append-only span store with a stack for the parent link."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, tuple] = {}   # span index -> counts it returned
        self._stack: list[int] = []
        self.active = True

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        self.name_id.append(nid)
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else i)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace owner.attr by a wrapper that records a span per call.

        note(result) may return a tuple of counts kept with the span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if note is not None:
                self.notes[i] = note(out)
            return out

        setattr(owner, attr, traced)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end))


def _trajectory_note(traj):
    return traj.newton_iters, traj.n_steps


def _optimizer_note(res):
    return res.iterations, res.n_evals


def _surrogate_map_note(summary):
    return summary.stats["n_converged_starts"], summary.stats["n_starts"]


# (module, attribute, span name, note).  One row per name a caller looks
# the function up by; several rows can share a span name.
MODULE_HOOKS = (
    ("gridest.ninebus", "solve_power_flow", "powerflow.solve", None),
    ("gridest", "simulate", "integrator.simulate", _trajectory_note),
    ("gridest.bayes", "simulate", "integrator.simulate", _trajectory_note),
    ("gridest.pce", "simulate", "integrator.simulate", _trajectory_note),
    ("gridest.integrator", "solve_algebraic", "integrator.projection", None),
    ("gridest.observation", "observe", "observation.observe", None),
    ("gridest.adjoint", "observe", "observation.observe", None),
    ("gridest.pce", "observe", "observation.observe", None),
    ("gridest", "synthesize_observations", "observation.synthesize", None),
    ("gridest.bayes", "backward_sweep", "adjoint.backward_sweep", None),
    ("gridest.lbfgs", "minimize", "lbfgs.minimize", _optimizer_note),
    ("gridest.pce", "minimize", "lbfgs.minimize", _optimizer_note),
    ("gridest.bayes", "map_estimate", "bayes.map", None),
    ("gridest.bayes", "laplace_covariance", "bayes.laplace", None),
    ("gridest.pce", "basis_derivatives", "hermite.basis_derivatives", None),
    ("gridest.pce", "basis_matrix", "hermite.basis_matrix", None),
    ("gridest.pce", "build_surrogate", "pce.build_surrogate", None),
    ("gridest.pce", "surrogate_map", "pce.surrogate_map", _surrogate_map_note),
    ("gridest.pce.SurrogateObjective", "value_grad", "pce.objective", None),
)

SYSTEM_HOOKS = (("rhs", "ninebus.rhs"), ("jac_u", "ninebus.jac_u"),
                ("jac_m", "ninebus.jac_m"))


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def install_module_hooks(tracer: Tracer) -> None:
    for owner, attr, name, note in MODULE_HOOKS:
        tracer.wrap(_resolve(owner), attr, name, note)


def install_system_hooks(tracer: Tracer, system) -> None:
    for attr, name in SYSTEM_HOOKS:
        tracer.wrap(system, attr, name)


# per-layer metric -> (span name, figure).  A figure is a span's calls,
# its time, its self time, or a count its note returned; None marks a
# ratio computed in layer_figures.  Units are in BENCHMARK.json.
LAYER_METRICS = {
    "ninebus.rhs_calls": ("ninebus.rhs", "calls"),
    "ninebus.rhs_s": ("ninebus.rhs", "time"),
    "ninebus.jac_u_calls": ("ninebus.jac_u", "calls"),
    "ninebus.jac_u_s": ("ninebus.jac_u", "time"),
    "ninebus.jac_m_s": ("ninebus.jac_m", "time"),
    "powerflow.solve_s": ("powerflow.solve", "time"),
    "integrator.forward_solves": ("integrator.simulate", "calls"),
    "integrator.simulate_s": ("integrator.simulate", "time"),
    "integrator.simulate_self_s": ("integrator.simulate", "self"),
    "integrator.newton_iters": ("integrator.simulate", "note0"),
    "integrator.newton_iters_per_step": (None, None),
    "integrator.projections": ("integrator.projection", "calls"),
    "observation.observe_s": ("observation.observe", "time"),
    "observation.synthesize_s": ("observation.synthesize", "time"),
    "adjoint.adjoint_solves": ("adjoint.backward_sweep", "calls"),
    "adjoint.backward_sweep_s": ("adjoint.backward_sweep", "time"),
    "adjoint.backward_sweep_self_s": ("adjoint.backward_sweep", "self"),
    "lbfgs.iterations": ("lbfgs.minimize", "note0"),
    "lbfgs.evals": ("lbfgs.minimize", "note1"),
    "lbfgs.evals_per_iteration": (None, None),
    "lbfgs.self_s": ("lbfgs.minimize", "self"),
    "bayes.map_s": ("bayes.map", "time"),
    "bayes.laplace_s": ("bayes.laplace", "time"),
    "bayes.forward_solves_per_estimate": (None, None),
    "hermite.basis_derivatives_calls": ("hermite.basis_derivatives", "calls"),
    "hermite.basis_derivatives_s": ("hermite.basis_derivatives", "time"),
    "hermite.basis_matrix_s": ("hermite.basis_matrix", "time"),
    "pce.build_surrogate_s": ("pce.build_surrogate", "time"),
    "pce.surrogate_map_s": ("pce.surrogate_map", "time"),
    "pce.surrogate_map_self_s": ("pce.surrogate_map", "self"),
    "pce.objective_s": ("pce.objective", "time"),
    "pce.converged_starts_ratio": (None, None),
}
_FIGURES = ("calls", "time", "self", "note0", "note1")


def _per_root(tracer: Tracer) -> dict[int, tuple[str, dict]]:
    """For each top-level span: its name and {(span name, figure): sum}
    over every span beneath it."""
    n = len(tracer.start)
    n_names = len(tracer.names)
    name_id = np.asarray(tracer.name_id)
    parent = np.asarray(tracer.parent)
    root = np.asarray(tracer.root)
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    nested = parent >= 0
    self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
    note0, note1 = np.zeros(n), np.zeros(n)
    for i, (a, b) in tracer.notes.items():
        note0[i], note1[i] = a, b

    roots = np.flatnonzero(root == np.arange(n))
    group = np.searchsorted(roots, root) * n_names + name_id
    size = len(roots) * n_names
    sums = {"calls": np.bincount(group, minlength=size)}
    for key, w in (("time", dur), ("self", self_t), ("note0", note0),
                   ("note1", note1)):
        sums[key] = np.bincount(group, weights=w, minlength=size)

    out = {}
    for pos, r in enumerate(roots):
        figs = {(name, f): float(sums[f][pos * n_names + k])
                for k, name in enumerate(tracer.names) for f in _FIGURES}
        out[int(r)] = (tracer.names[name_id[r]], figs)
    return out


def layer_figures(tracer: Tracer):
    """Per-layer metrics over the set-up plus one round.

    Counts are the set-up's plus the first round's; times are the
    set-up's plus the median over rounds.  Returns (metrics, rounds
    whose counts differ from the first round's).
    """
    roots = list(_per_root(tracer).values())
    setup = next(figs for kind, figs in roots if kind == "setup")
    rounds = [figs for kind, figs in roots if kind == "round"]
    first = rounds[0]
    counted = [k for k in first if k[1] in ("calls", "note0", "note1")]
    mismatched = [i for i, figs in enumerate(rounds, start=1)
                  if any(figs[k] != first[k] for k in counted)]

    def fig(name, f):
        if (name, f) not in first:       # a layer this workload never calls
            return 0.0
        if f in ("time", "self"):
            return setup[name, f] + float(np.median([r[name, f] for r in rounds]))
        return setup[name, f] + first[name, f]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for metric, (name, f) in LAYER_METRICS.items():
        if name is not None:
            value = fig(name, f)
            metrics[metric] = int(value) if f in ("calls", "note0", "note1") else value
    metrics["integrator.newton_iters_per_step"] = ratio(
        fig("integrator.simulate", "note0"), fig("integrator.simulate", "note1"))
    metrics["lbfgs.evals_per_iteration"] = ratio(
        fig("lbfgs.minimize", "note1"), fig("lbfgs.minimize", "note0"))
    metrics["pce.converged_starts_ratio"] = ratio(
        fig("pce.surrogate_map", "note0"), fig("pce.surrogate_map", "note1"))
    metrics["bayes.forward_solves_per_estimate"] = ratio(
        first[("integrator.simulate", "calls")],
        first[("estimate", "calls")])
    return {m: metrics[m] for m in LAYER_METRICS}, mismatched
