"""The benchmark's tracer wraps library names that must keep existing.

perfbench/tracing.py installs its spans at the names the library looks
functions up by.  A rename in src/ breaks only traced benchmark runs,
which the test suite does not collect, so this test loads the tracer by
path and resolves every name it hooks.
"""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_module_hooks_resolve_to_callables():
    tracing = _load_tracing()
    missing = [(owner, attr) for owner, attr, _, _ in tracing.MODULE_HOOKS
               if not callable(getattr(tracing._resolve(owner), attr, None))]
    assert not missing


def test_system_hooks_exist_on_the_system(system):
    tracing = _load_tracing()
    missing = [attr for attr, _ in tracing.SYSTEM_HOOKS
               if not callable(getattr(system, attr, None))]
    assert not missing
