"""The Cephes ports of ndtri and ndtr: bit-identical to scipy.special, and
the reason scipy.special stays out of every gridest process."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import special

import gridest
from gridest.normal import ndtr, ndtri

SQRT2 = math.sqrt(2.0)


def _around(x, n=64):
    """Each x with its n nearest doubles on either side."""
    out = [np.atleast_1d(np.asarray(x, dtype=float))]
    for toward in (-np.inf, np.inf):
        y = out[0]
        for _ in range(n):
            y = np.nextafter(y, toward)
            out.append(y)
    return np.concatenate(out)


def test_ndtri_is_bit_identical_to_scipy():
    # the stream's extremes, from its construction at raw 0 and 2^64 - 1:
    # 2^-54, and 1 - 2^-54, which rounds to 1
    raw = np.array([0, 2 ** 64 - 1], dtype=np.uint64)
    ends = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) / 2.0 ** 53
    assert ends.tolist() == [2.0 ** -54, 1.0]
    e2 = math.exp(-2.0)
    u = np.concatenate([
        np.linspace(0.0, 1.0, 10**6 + 2)[1:-1],         # both branches
        np.exp(-np.linspace(2.0, 745.0, 50001)),        # the lower tail
        -np.expm1(-np.linspace(2.0, 36.0, 50001)),      # the upper tail
        _around([e2, 1.0 - e2, math.exp(-32.0)]),       # the switches
        _around(ends, 8),                               # the stream's ends
    ])
    u = u[(u > 0.0) & (u < 1.0)]
    assert u.size > 10**6
    assert {2.0 ** -54, np.nextafter(1.0, 0.0), 1.0 - e2} <= set(u.tolist())
    assert np.array_equal(ndtri(u), special.ndtri(u))
    edges = np.array([0.0, 1.0, -0.0, -0.5, 2.0, np.inf, np.nan])
    assert np.array_equal(ndtri(edges), special.ndtri(edges), equal_nan=True)


def test_ndtr_is_bit_identical_to_scipy():
    # the last a with ndtr(a) > 0: there exp(-a^2/2) underflows
    lo, hi = -38.0, -37.0
    while np.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if special.ndtr(mid) == 0.0 else (lo, mid)
    assert 37.6 < -hi < 37.8
    edges = np.array([1.0, SQRT2, 8.0 * SQRT2, -hi])
    a = np.concatenate([
        np.linspace(-40.0, 40.0, 400001), [0.0, -0.0, np.inf, -np.inf],
        _around(np.concatenate([edges, -edges])),
    ])
    got = ndtr(a)
    assert np.array_equal(got, special.ndtr(a))
    assert got[a == hi] > 0.0 and got[a == lo] == 0.0
    assert ndtr(0.5).shape == () and ndtr(np.zeros((2, 3))).shape == (2, 3)


def test_estimates_do_not_load_scipy_special():
    # a fresh interpreter: this test process imports scipy.special itself
    code = """if True:
        import sys
        import gridest
        from gridest import (ScenarioConfig, estimate_adjoint, estimate_pce,
                             load_system)
        cfg = ScenarioConfig(t_f=0.5, dt_obs=0.1)
        system = load_system()
        obs, noise = cfg.observations(cfg.truth(system))
        for estimate in (estimate_adjoint, estimate_pce):
            estimate(system, obs, noise, cfg.prior(), cfg.t_f, cfg.dt,
                     cfg.events(), m_true=cfg.m_true)
        print(sorted(m for m in sys.modules if m.startswith("scipy.special")))
    """
    env = {**os.environ, "PYTHONPATH": str(Path(gridest.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["[]"]
