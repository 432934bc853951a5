"""No def or lambda in src/gridest takes a parameter its body never reads.

A parameter that a protocol binds but the body has no use for is named
with a leading underscore; self and cls are exempt.
"""
import ast
from pathlib import Path

import gridest

# (module, function, parameter) left unread on purpose: estimate_pce's
# seed, which the benchmark's pce-build workload passes, stays until the
# next change to that benchmark
KNOWN_UNREAD = {("pce", "estimate_pce", "seed")}


def _parameters(args: ast.arguments):
    every = args.posonlyargs + args.args + args.kwonlyargs
    every += [a for a in (args.vararg, args.kwarg) if a is not None]
    return [a.arg for a in every]


def _unread(tree, module):
    """(module, function, parameter, line) of every parameter its body
    does not read; a nested function that reads it counts."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        read = {n.id for part in body for n in ast.walk(part)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name in _parameters(node.args):
            if name in ("self", "cls") or name.startswith("_"):
                continue
            if name not in read:
                yield (module, getattr(node, "name", "<lambda>"), name,
                       node.lineno)


def test_every_parameter_is_read():
    found = []
    for path in sorted(Path(gridest.__file__).parent.glob("*.py")):
        found += _unread(ast.parse(path.read_text()), path.stem)
    dead = [f"{mod}.{fn}({name}) at line {line}"
            for mod, fn, name, line in found
            if (mod, fn, name) not in KNOWN_UNREAD]
    assert not dead, f"parameters never read: {dead}"
    # the walk sees the known exception, so it would see another
    assert {(mod, fn, name) for mod, fn, name, _ in found} == KNOWN_UNREAD
