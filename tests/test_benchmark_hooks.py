"""The benchmark's tracer and workloads use library names that must keep
existing.

perfbench/tracing.py installs its spans at the names the library looks
functions up by, and perfbench/workloads.py and run.py call the library
through its attributes.  A rename in src/ breaks only benchmark runs,
which the test suite does not collect, so these tests load the tracer
and the workloads by path and read run.py without running it.
"""
import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import gridest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MISSING = object()


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_module_hooks_resolve_to_callables():
    tracing = _load("tracing")
    missing = [(owner, attr) for owner, attr, _, _ in tracing.MODULE_HOOKS
               if not callable(getattr(tracing._resolve(owner), attr, None))]
    assert not missing


def test_system_hooks_exist_on_the_system(system):
    tracing = _load("tracing")
    missing = [attr for attr, _ in tracing.SYSTEM_HOOKS
               if not callable(getattr(system, attr, None))]
    assert not missing


def _gridest_path(node, aliases):
    """The attribute names after gridest in node's chain (ctx.gridest.pce
    gives ("pce",)), through local aliases, or None if not rooted there."""
    if isinstance(node, ast.Attribute):
        if node.attr == "gridest":
            return ()
        base = _gridest_path(node.value, aliases)
        return None if base is None else base + (node.attr,)
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    return None


def _library_uses():
    """(file, line, path, call) for every attribute chain rooted at gridest
    in the benchmark's run.py and workloads.py; call is the ast.Call when
    the chain is called."""
    uses = []
    for name in ("run.py", "workloads.py"):
        tree = ast.parse((PERFBENCH / name).read_text())
        aliases = {"gridest": ()}
        for node in ast.walk(tree):        # gridest = ctx.gridest, pce = ...
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                path = _gridest_path(node.value, aliases)
                if path is not None:
                    aliases[node.targets[0].id] = path
        calls = {id(node.func): node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)}
        uses += [(name, node.lineno, path, calls.get(id(node)))
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Attribute, ast.Name))
                 and (path := _gridest_path(node, aliases))]
    return uses


def _lookup(path):
    obj = gridest
    for attr in path:
        obj = getattr(obj, attr, MISSING)
    return obj


def test_workload_names_resolve():
    uses = _library_uses()
    # the walk sees through ctx.gridest and local aliases such as pce
    assert {("estimate_pce",), ("pce", "simulate")} <= {p for *_, p, _ in uses}
    missing = [(f, line, ".".join(p)) for f, line, p, _ in uses
               if _lookup(p) is MISSING]
    assert not missing


def test_workload_calls_bind():
    # every keyword the benchmark passes is a parameter, e.g. estimate_pce's seed
    bad = []
    for f, line, path, call in _library_uses():
        if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
                or any(kw.arg is None for kw in call.keywords):
            continue
        try:
            inspect.signature(_lookup(path)).bind_partial(
                *call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            bad.append((f, line, ".".join(path), str(exc)))
    assert not bad


def test_workload_scenarios_are_valid_configs():
    # ScenarioConfig checks the time grid at construction, and the
    # benchmark builds every scenario's inputs through it
    workloads = _load("workloads")
    for profile in workloads.ADJOINT_SCENARIOS:
        ctx = workloads.Context(gridest, None, 1, profile)
        for sc in (*workloads.ADJOINT_SCENARIOS[profile],
                   workloads.PCE_SCENARIO[profile]):
            assert ctx.config(sc).t_f == sc.t_f


# the back end whose stats each reader sees, by the top-level class or
# function around the read: a workload, or the tracer's note on
# pce.surrogate_map
STATS_READERS = {"AdjointStudy": "adjoint", "PceBuild": "pce",
                 "_surrogate_map_note": "pce"}


def _stats_reads():
    """(file, line, scope, key) for every stats["key"] subscript in the
    benchmark's workloads.py and tracing.py; scope names the top-level
    definition around it."""
    reads = []
    for name in ("workloads.py", "tracing.py"):
        tree = ast.parse((PERFBENCH / name).read_text())
        for top in tree.body:
            reads += [(name, node.lineno, getattr(top, "name", None),
                       node.slice.value)
                      for node in ast.walk(top)
                      if isinstance(node, ast.Subscript)
                      and isinstance(node.slice, ast.Constant)
                      and "stats" in (getattr(node.value, "id", None),
                                      getattr(node.value, "attr", None))]
    return reads


def test_benchmark_stats_keys_exist(system, prior, make_scenario):
    # run_rounds counts only RuntimeError, ValueError and ArithmeticError
    # as a failed estimate: a missing key would stop the whole run
    reads = _stats_reads()
    assert {("AdjointStudy", "converged"), ("PceBuild", "n_starts"),
            ("_surrogate_map_note", "n_converged_starts")} \
        <= {(scope, key) for _, _, scope, key in reads}
    assert not [r for r in reads if r[2] not in STATS_READERS]
    obs, noise, events = make_scenario(0.5, dt_obs=0.1)
    args = (system, obs, noise, prior, 0.5, 0.01, events)
    stats = {"adjoint": gridest.estimate_adjoint(*args).stats,
             "pce": gridest.estimate_pce(*args)[0].stats}
    missing = [(f, line, key) for f, line, scope, key in reads
               if key not in stats[STATS_READERS[scope]]]
    assert not missing
