"""Observation operator and synthetic measurement generation.

Observables are the bus-voltage components at a set of observation
times on the integration grid.  The default coordinates are
rectangular (v_re, v_im); a polar mode (|V|, angle) is available for
comparison studies.  Entries are laid out time-major,

    f[2*nb*k + 2*b + c],   k = time index, b = bus position, c = component,

with t = 0 never observed.  Values are pure grid extractions from the
trajectory (no interpolation), so observation times must be grid
multiples (integrator.grid_nodes).

Synthetic data uses a counter-based PRNG so streams are reproducible
and documented: uniforms are (r >> 11 + 0.5) / 2^53, capped at
1 - 2^-53, from the raw 64-bit Philox4x64-10 stream keyed by the seed,
mapped through the inverse normal CDF (normal.ndtri, bit-identical to
scipy.special.ndtri) and scaled by the per-entry noise std.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .integrator import GRID_TOL, grid_nodes
from .ninebus import N_BUS, ix_vim, ix_vre
from .normal import ndtri

RECT, POLAR = "rect", "polar"
_COMPONENTS = {RECT: ("v_re", "v_im"), POLAR: ("v_mag", "v_ang")}


def _bus_indices(buses) -> np.ndarray:
    """0-based bus indices as an int array; each must name a network bus."""
    buses = np.asarray(buses, dtype=int)
    if np.any((buses < 0) | (buses >= N_BUS)):
        raise ValueError(f"bus indices must lie in 0..{N_BUS - 1}, "
                         f"got {buses.tolist()}")
    return buses


@dataclass
class NoiseModel:
    """Independent Gaussian noise; variance per observation entry."""
    var: np.ndarray

    @classmethod
    def iid(cls, variance: float, n: int) -> "NoiseModel":
        return cls(var=np.full(n, float(variance)))

    def __post_init__(self):
        self.var = np.atleast_1d(np.asarray(self.var, dtype=float))
        if not np.all(np.isfinite(self.var) & (self.var > 0)):
            raise ValueError("noise variance must be positive and finite")


@dataclass
class ObservationSet:
    """Measured (or extracted) observables with their layout metadata."""
    times: np.ndarray              # strictly increasing, > 0
    buses: np.ndarray              # 0-based bus indices, strictly increasing
    values: np.ndarray             # flat, time-major
    coords: str = RECT
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.buses = _bus_indices(self.buses)
        self.values = np.asarray(self.values, dtype=float)
        if self.coords not in _COMPONENTS:
            raise ValueError(f"unknown coords {self.coords!r}")
        if np.any(self.times <= 0):
            raise ValueError("observation times must be positive")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("observation times must be strictly increasing")
        if np.any(np.diff(self.buses) <= 0):
            raise ValueError("bus indices must be strictly increasing")
        q = 2 * len(self.buses) * len(self.times)
        if self.values.shape != (q,):
            raise ValueError(f"expected {q} values, got {self.values.shape}")

    @property
    def size(self) -> int:
        return self.values.size


def observation_times(t_f: float, dt_obs: float) -> np.ndarray:
    """Grid of observation instants: multiples of dt_obs in (0, t_f],
    t_f given the slack GRID_TOL max(1, |t_f|) of grid_nodes."""
    n = int(np.floor((t_f + GRID_TOL * max(1.0, abs(t_f))) / dt_obs))
    if n < 1:
        raise ValueError("no observation times in (0, t_f]")
    return np.arange(1, n + 1) * dt_obs


def observe(traj, times: np.ndarray, buses=None, coords: str = RECT) -> np.ndarray:
    """Extract noiseless observables f from a trajectory (time-major flat)."""
    buses = np.arange(N_BUS) if buses is None else _bus_indices(buses)
    nodes = grid_nodes(times, traj.dt, traj.times[-1], "observation time")
    vre = traj.states[np.ix_(nodes, [ix_vre(b) for b in buses])]
    vim = traj.states[np.ix_(nodes, [ix_vim(b) for b in buses])]
    if coords == RECT:
        comp0, comp1 = vre, vim
    elif coords == POLAR:
        comp0, comp1 = np.hypot(vre, vim), np.arctan2(vim, vre)
    else:
        raise ValueError(f"unknown coords {coords!r}")
    out = np.empty((len(nodes), len(buses), 2))
    out[:, :, 0] = comp0
    out[:, :, 1] = comp1
    return out.reshape(-1)


def observation_partials(traj, obs: ObservationSet):
    """(nodes, (rv, iv), d): the node of each observation time, the state
    columns of each bus's v_re and v_im, and d[k, b, c, j], the derivative
    of component c at time k and bus b by v_re (j = 0) or v_im (j = 1):
    the identity for RECT, the |V| and angle partials for POLAR."""
    nodes = grid_nodes(obs.times, traj.dt, traj.times[-1], "observation time")
    rv, iv = ix_vre(obs.buses), ix_vim(obs.buses)
    shape = (len(nodes), len(obs.buses), 2, 2)
    if obs.coords == RECT:
        return nodes, (rv, iv), np.broadcast_to(np.eye(2), shape)
    vre = traj.states[nodes[:, None], rv]
    vim = traj.states[nodes[:, None], iv]
    v2 = vre * vre + vim * vim
    vm = np.sqrt(v2)
    partials = np.stack([vre / vm, vim / vm, -vim / v2, vre / v2], axis=-1)
    return nodes, (rv, iv), partials.reshape(shape)


def normal_stream(seed: int, n: int) -> np.ndarray:
    """Reproducible standard-normal draws: the Philox counter stream's
    uniforms through normal.ndtri, the Cephes inverse normal CDF, which
    draws what scipy.special.ndtri would, bit for bit."""
    raw = np.random.Philox(key=np.uint64(seed)).random_raw(n)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) / 2.0 ** 53
    # raw >> 11 = 2^53 - 1 rounds u to 1, where ndtri is infinite
    return ndtri(np.minimum(u, 1.0 - 2.0 ** -53))


def synthesize(f_true: np.ndarray, noise: NoiseModel, seed: int) -> np.ndarray:
    """d = f + eta with eta ~ N(0, diag(var)) from the documented stream."""
    return f_true + np.sqrt(noise.var) * normal_stream(seed, f_true.size)


def synthesize_observations(traj, times, noise: NoiseModel, seed: int,
                            buses=None, coords: str = RECT) -> ObservationSet:
    """Simulate the measurement process on an existing trajectory."""
    if buses is None:
        buses = np.arange(N_BUS)
    f = observe(traj, times, buses, coords)
    if noise.var.size != f.size:
        raise ValueError("noise variance length does not match observables")
    return ObservationSet(times=np.asarray(times, float),
                          buses=np.asarray(buses, int),
                          values=synthesize(f, noise, seed), coords=coords,
                          meta={"seed": int(seed)})


# ----------------------------------------------------------------------
# file formats, all written by write_csv and write_json: CSV (time, bus,
# comp0, comp1) + JSON sidecar with the noise/seed/config metadata

def write_csv(path, columns, rows, header_lines=()) -> None:
    """Each header line as a `# ` comment, the column row, then the rows.
    Floats, numpy's included, are written at repr precision (.17g), so
    they read back bit-exactly; everything else as csv writes it."""
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows([f"{x:.17g}" if isinstance(x, (float, np.floating)) else x
                     for x in row] for row in rows)


def write_json(path, doc) -> None:
    """doc with indent 2, sorted keys and a trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_observation_csv(obs: ObservationSet, path, header_lines=()) -> None:
    """The CSV alone: header lines, column row, then time-major rows."""
    values = obs.values.reshape(len(obs.times), len(obs.buses), 2)
    write_csv(path, ["time", "bus", *_COMPONENTS[obs.coords]],
              ((t, b + 1, x0, x1) for t, row in zip(obs.times, values)
               for b, (x0, x1) in zip(obs.buses, row)), header_lines)


def write_trajectory_csv(traj, path, state_names, header_lines=()) -> None:
    """Dump a trajectory as CSV: time, all states, bus |V| and angle."""
    polar = observe(traj, traj.times, coords=POLAR).reshape(-1, N_BUS, 2)
    write_csv(path, ["time", *state_names,
                     *(f"vmag_{b + 1}" for b in range(N_BUS)),
                     *(f"vang_{b + 1}" for b in range(N_BUS))],
              ((t, *u, *v[:, 0], *v[:, 1])
               for t, u, v in zip(traj.times, traj.states, polar)),
              header_lines)


def check_noise_length(obs: ObservationSet, noise: NoiseModel) -> None:
    """Reject a noise model whose length is not the observations'."""
    if noise.var.size != obs.size:
        raise ValueError(f"{noise.var.size} noise variances for {obs.size} "
                         f"observations")


def write_observations(obs: ObservationSet, noise: NoiseModel, path,
                       header_lines=()) -> None:
    """The CSV plus its JSON sidecar with the noise model and metadata.
    A noise model of the wrong length is rejected before either file is
    written."""
    check_noise_length(obs, noise)
    path = Path(path)
    write_observation_csv(obs, path, header_lines)
    if noise.var.size > 1 and np.all(noise.var == noise.var[0]):
        noise_field = {"iid": float(noise.var[0])}
    else:
        noise_field = noise.var.tolist()
    write_json(path.with_suffix(path.suffix + ".meta.json"),
               {"coords": obs.coords, "noise_var": noise_field,
                "meta": obs.meta})


def read_observations(path) -> tuple[ObservationSet, NoiseModel]:
    path = Path(path)
    with open(path) as fh:
        lines = [(n, next(csv.reader([line]))) for n, line in enumerate(fh, 1)
                 if not line.startswith("#")]
    if len(lines) < 2:
        raise ValueError(f"{path}: no observation rows")
    (_, header), *lines = lines
    coords = next((c for c, comps in _COMPONENTS.items()
                   if header[2:] == list(comps)), None)
    if coords is None:
        raise ValueError(f"{path}: unknown value columns {header[2:]}")
    rows = []
    for n, row in lines:
        try:
            t, b, x0, x1 = row
            rows.append((float(t), int(b), float(x0), float(x1)))
        except ValueError:
            raise ValueError(f"{path}, line {n}: expected time, bus and two "
                             f"numbers, got {row}") from None
        if not np.isfinite(rows[-1]).all():
            raise ValueError(f"{path}, line {n}: value not finite")
        if not 1 <= rows[-1][1] <= N_BUS:
            raise ValueError(f"{path}, line {n}: bus not in 1..{N_BUS}")
    times = sorted({r[0] for r in rows})
    buses = sorted({r[1] - 1 for r in rows})
    t_pos = {t: k for k, t in enumerate(times)}
    b_pos = {b: j for j, b in enumerate(buses)}
    values = np.full(2 * len(buses) * len(times), np.nan)
    for t, b, x0, x1 in rows:
        base = 2 * len(buses) * t_pos[t] + 2 * b_pos[b - 1]
        if not np.isnan(values[base]):
            raise ValueError(f"{path}: repeated row for time {t!r}, bus {b}")
        values[base] = x0
        values[base + 1] = x1
    if np.any(np.isnan(values)):
        raise ValueError(f"{path}: incomplete time/bus grid")

    meta_path = path.with_suffix(path.suffix + ".meta.json")
    meta: dict = {}
    noise_var = None
    if meta_path.exists():
        sidecar = json.loads(meta_path.read_text())
        if sidecar.get("coords", coords) != coords:
            raise ValueError(f"{path}: columns {header[2:]} disagree with "
                             f"the sidecar's coords {sidecar['coords']!r}")
        meta = sidecar.get("meta", {})
        nv = sidecar.get("noise_var")
        if isinstance(nv, dict):
            noise_var = np.full(values.size, float(nv["iid"]))
        elif nv is not None:
            noise_var = np.asarray(nv, dtype=float)
    if noise_var is None:
        raise ValueError(f"{path}: missing noise metadata sidecar")
    obs = ObservationSet(times=np.asarray(times), buses=np.asarray(buses),
                         values=values, coords=coords, meta=meta)
    if noise_var.size == 1:
        noise_var = np.full(obs.size, noise_var[0])
    elif noise_var.size != obs.size:
        raise ValueError(f"{path}: {noise_var.size} noise variances for "
                         f"{obs.size} observations")
    return obs, NoiseModel(var=noise_var)
