"""Observation extraction, noise synthesis, and the CSV data formats."""
import ast
import csv
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import M_TRUE
from scipy.special import ndtri

from gridest.integrator import grid_nodes, simulate
from gridest.ninebus import N_BUS, DisturbanceEvent, ix_vre, state_names
from gridest.observation import (NoiseModel, ObservationSet, normal_stream,
                                 observation_partials, observation_times,
                                 observe, read_observations, synthesize,
                                 synthesize_observations, write_csv,
                                 write_observations, write_trajectory_csv)
from gridest.scenario import ScenarioConfig


@pytest.fixture(scope="module")
def short_traj(system):
    return ScenarioConfig(t_f=0.4).truth(system)


def test_observation_times_grid():
    t = observation_times(1.0, 0.05)
    assert len(t) == 20
    assert t[0] == pytest.approx(0.05)
    assert t[-1] == pytest.approx(1.0)
    assert np.all(t > 0)
    t = observation_times(1.0, 0.3)
    assert np.allclose(t, [0.3, 0.6, 0.9])
    with pytest.raises(ValueError):
        observation_times(0.04, 0.05)


def test_grid_indices():
    assert grid_nodes(np.array([0.05, 0.1]), 0.01).tolist() == [5, 10]
    with pytest.raises(ValueError, match="observation time 0.013 is not a "
                                         "multiple of dt=0.01"):
        grid_nodes(np.array([0.05, 0.013, 0.017]), 0.01,
                   what="observation time")
    # the tolerance grows with t above 1 s, as for t_f and event bounds
    assert grid_nodes([4 + 3e-9], 0.01).tolist() == [400]
    with pytest.raises(ValueError, match=r"time 4\.0000001 is not a multiple"):
        grid_nodes([4 + 1e-7], 0.01)


def test_trajectory_nodes_stop_at_the_last_node():
    assert grid_nodes(np.array([0.1, 0.3]), 0.01, 0.3).tolist() == [10, 30]
    with pytest.raises(ValueError, match="observation time 0.31 is past the "
                                         "end of the trajectory at t=0.3"):
        grid_nodes(np.array([0.1, 0.31, 0.4]), 0.01, 0.3, "observation time")


def test_observe_layout(short_traj):
    times = np.array([0.1, 0.2, 0.4])
    f = observe(short_traj, times)
    assert f.shape == (2 * N_BUS * 3,)
    nodes = [10, 20, 40]
    for k, node in enumerate(nodes):
        for b in range(N_BUS):
            i = 2 * (N_BUS * k + b)
            assert f[i] == short_traj.states[node, ix_vre(b)]
            assert f[i + 1] == short_traj.states[node, ix_vre(b) + 1]


def test_observe_polar_and_bus_subset(short_traj):
    times = np.array([0.2])
    f_rect = observe(short_traj, times, buses=[3, 6])
    f_pol = observe(short_traj, times, buses=[3, 6], coords="polar")
    assert f_rect.shape == f_pol.shape == (4,)
    assert f_pol[0] == pytest.approx(np.hypot(f_rect[0], f_rect[1]))
    assert f_pol[1] == pytest.approx(np.arctan2(f_rect[1], f_rect[0]))


@pytest.mark.parametrize("coords", ["rect", "polar"])
def test_observation_partials_match_differences(short_traj, coords):
    times, buses = np.array([0.2, 0.3]), np.array([2, 6])
    obs = ObservationSet(times, buses, np.zeros(8), coords=coords)
    nodes, (rv, iv), d = observation_partials(short_traj, obs)
    assert nodes.tolist() == [20, 30]
    assert rv.tolist() == [ix_vre(2), ix_vre(6)]
    assert iv.tolist() == [ix_vre(2) + 1, ix_vre(6) + 1]
    assert d.shape == (2, 2, 2, 2)
    # column j of d is the central difference of f along v_re or v_im
    h = 1e-7
    for j, cols in enumerate((rv, iv)):
        up, dn = (replace(short_traj, states=short_traj.states.copy())
                  for _ in range(2))
        up.states[np.ix_(nodes, cols)] += h
        dn.states[np.ix_(nodes, cols)] -= h
        fd = (observe(up, times, buses, coords)
              - observe(dn, times, buses, coords)) / (2 * h)
        assert np.allclose(d[..., j], fd.reshape(2, 2, 2), rtol=1e-6, atol=1e-8)


def test_observe_rejects_times_beyond_run(short_traj):
    with pytest.raises(ValueError):
        observe(short_traj, np.array([0.5]))
    # bus -1 would read machine 3's stator currents, bus N_BUS past the state
    for buses in ([-1], [N_BUS]):
        with pytest.raises(ValueError, match="bus"):
            observe(short_traj, np.array([0.1]), buses=buses)


def test_normal_stream_documented_construction():
    z = normal_stream(1234, 64)
    raw = np.random.Philox(key=np.uint64(1234)).random_raw(64)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) / 2.0 ** 53
    assert np.array_equal(z, ndtri(u))
    assert np.array_equal(z, normal_stream(1234, 64))
    assert not np.array_equal(z, normal_stream(1235, 64))
    big = normal_stream(7, 20000)
    assert abs(big.mean()) < 0.03
    assert abs(big.std() - 1.0) < 0.03


def test_synthesize_noise_scales_with_std():
    f = np.linspace(0.9, 1.1, 30)
    d1 = synthesize(f, NoiseModel.iid(1e-4, 30), seed=42)
    d2 = synthesize(f, NoiseModel.iid(4e-4, 30), seed=42)
    # same underlying draws, doubled standard deviation
    assert np.allclose(d2 - f, 2.0 * (d1 - f), rtol=1e-14)
    assert np.std(d1 - f) < 0.05


def test_synthesize_observations_metadata(short_traj):
    times = observation_times(0.4, 0.05)
    noise = NoiseModel.iid(1e-4, 2 * N_BUS * len(times))
    obs = synthesize_observations(short_traj, times, noise, seed=99)
    assert obs.size == 2 * N_BUS * 8
    assert obs.meta == {"seed": 99}
    # one variance per observable: a one-entry model is not broadcast,
    # since both estimators would reject it after synthesis
    for n in (7, 1):
        with pytest.raises(ValueError, match="noise variance length"):
            synthesize_observations(short_traj, times,
                                    NoiseModel(var=np.full(n, 1e-4)), seed=0)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel.iid(0.0, 5)
    with pytest.raises(ValueError):
        NoiseModel(var=np.array([1e-4, 0.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            NoiseModel(var=np.array([1e-4, bad]))
    nm = NoiseModel(var=1e-4)
    assert nm.var.shape == (1,)


def test_observation_set_validation():
    good = dict(times=[0.1, 0.2], buses=[0, 1], values=np.zeros(8))
    ObservationSet(**good)
    with pytest.raises(ValueError):
        ObservationSet(times=[0.0, 0.2], buses=[0, 1], values=np.zeros(8))
    with pytest.raises(ValueError):
        ObservationSet(times=[0.2, 0.1], buses=[0, 1], values=np.zeros(8))
    with pytest.raises(ValueError):
        ObservationSet(times=[0.1, 0.2], buses=[0, 1], values=np.zeros(7))
    with pytest.raises(ValueError):
        ObservationSet(times=[0.1, 0.2], buses=[0, 1], values=np.zeros(8),
                       coords="spherical")
    for buses in ([-1, 0], [0, N_BUS], [1, 0], [1, 1]):
        with pytest.raises(ValueError, match="bus"):
            ObservationSet(times=[0.1, 0.2], buses=buses, values=np.zeros(8))


def test_csv_round_trip(tmp_path, short_traj):
    obs, noise = ScenarioConfig(t_f=0.4, dt_obs=0.1).observations(short_traj)
    path = tmp_path / "obs.csv"
    write_observations(obs, noise, path, header_lines=("generated",))
    assert path.read_text().startswith("# generated\n")
    back, noise_back = read_observations(path)
    assert np.array_equal(back.values, obs.values)
    assert np.allclose(back.times, obs.times)
    assert np.array_equal(back.buses, obs.buses)
    assert back.coords == obs.coords
    assert back.meta == {"seed": 1234}
    assert noise_back.var.shape == (obs.size,)
    assert np.allclose(noise_back.var, 1e-4)


def test_csv_round_trip_heteroscedastic(tmp_path, short_traj):
    times = observation_times(0.4, 0.2)
    rng = np.random.default_rng(3)
    var = rng.uniform(1e-5, 1e-3, 2 * N_BUS * len(times))
    noise = NoiseModel(var=var)
    obs = synthesize_observations(short_traj, times, noise, seed=5)
    path = tmp_path / "obs.csv"
    write_observations(obs, noise, path)
    _, noise_back = read_observations(path)
    assert np.allclose(noise_back.var, var, rtol=1e-15)


@pytest.mark.parametrize("var", [np.full(7, 1e-4),
                                 np.linspace(1e-4, 7e-4, 7), np.array([1e-4])],
                         ids=["equal", "unequal", "one"])
def test_write_observations_rejects_noise_of_the_wrong_length(tmp_path, var):
    # 8 values: a 7-entry model of equal variances would read back as 8,
    # one of unequal variances would not read back; neither file is written
    obs = ObservationSet(times=[0.1, 0.2], buses=[0, 1], values=np.zeros(8))
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError,
                       match=f"{var.size} noise variances for 8 observations"):
        write_observations(obs, NoiseModel(var=var), path)
    assert list(tmp_path.iterdir()) == []


def test_trajectory_csv_round_trip(tmp_path, system):
    ev = DisturbanceEvent(bus=5, start=0.1, duration=0.2, load=5.5)
    traj = simulate(system, M_TRUE, 0.3, 0.01, events=(ev,))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, state_names(),
                         header_lines=("alpha", "beta"))
    lines = path.read_text().splitlines()
    assert lines[0] == "# alpha"
    assert lines[1] == "# beta"
    with open(path) as fh:
        rows = list(csv.reader(r for r in fh if not r.startswith("#")))
    header, data = rows[0], rows[1:]
    assert header[0] == "time"
    assert len(header) == 1 + 45 + 18
    assert header[1] == "delta_1"
    assert header[-1] == "vang_9"
    assert len(data) == 31
    vals = np.array(data, dtype=float)
    assert np.allclose(vals[:, 0], traj.times)
    assert np.allclose(vals[:, 1:46], traj.states, atol=0)
    # derived magnitude column consistent with the stored voltages
    vre, vim = traj.states[:, 27], traj.states[:, 28]
    assert np.allclose(vals[:, 46], np.hypot(vre, vim))


def test_write_csv_format(tmp_path):
    floats = [0.1 + 0.2, np.float64(1.0) / 3.0, np.float32(0.1), 1e-300]
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b", "c", "d"],
              [floats, [7, np.int64(-3), "adjoint", "x,y"]],
              header_lines=("one", "two"))
    lines = path.read_text().splitlines()
    assert lines[:3] == ["# one", "# two", "a,b,c,d"]
    with open(path) as fh:
        rows = list(csv.reader(r for r in fh if not r.startswith("#")))
    assert [float(x) for x in rows[1]] == [float(x) for x in floats]
    assert rows[1][0] == "0.30000000000000004"
    assert rows[2] == ["7", "-3", "adjoint", "x,y"]


# the one place each output format is written
WRITERS = {"observation.write_csv", "observation.write_json"}
_WRITE_CALLS = {("csv", "writer"), ("json", "dump")}


def _writes(call: ast.Call) -> bool:
    """Whether a call writes a file: open or Path.open in a writing mode,
    write_text, write_bytes, csv.writer or json.dump."""
    f = call.func
    method = isinstance(f, ast.Attribute)
    name = f.attr if method else getattr(f, "id", None)
    owner = getattr(f.value, "id", None) if method else None
    if name in ("write_text", "write_bytes") or (owner, name) in _WRITE_CALLS:
        return True
    if name != "open":
        return False
    args = call.args[0 if method else 1:]     # the mode follows open's path
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                args[0] if args else ast.Constant("r"))
    return not isinstance(mode, ast.Constant) or \
        bool(set(str(mode.value)) & set("wax+"))


def _calling_scopes(node, scope, matches):
    """(scope, line) of every call under node for which matches is true."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        if isinstance(child, ast.Call) and matches(child):
            yield scope, child.lineno
        yield from _calling_scopes(child, inner, matches)


def _package_scopes(matches):
    import gridest
    found = set()
    for path in sorted(Path(gridest.__file__).parent.glob("*.py")):
        found |= set(_calling_scopes(ast.parse(path.read_text()), path.stem,
                                     matches))
    return found


def test_only_the_format_writers_write_files():
    found = _package_scopes(_writes)
    stray = sorted(f"{scope}:{line}" for scope, line in found
                   if scope not in WRITERS)
    assert not stray, f"files written outside the format writers: {stray}"
    # the walk sees each writer, so it would see another
    assert {scope for scope, _ in found} == WRITERS


def _synthesizes(call: ast.Call) -> bool:
    f = call.func
    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
    return name == "synthesize_observations"


def test_only_the_scenario_draws_synthetic_data():
    # the truth, the observation times, the noise length and the draw
    # exist once, in ScenarioConfig.truth and observations
    found = _package_scopes(_synthesizes)
    assert {scope for scope, _ in found} == \
        {"scenario.ScenarioConfig.observations"}, sorted(found)


def test_read_rejects_repeated_row(tmp_path, short_traj):
    obs, noise = ScenarioConfig(t_f=0.4, dt_obs=0.2,
                                seed=5).observations(short_traj)
    path = tmp_path / "obs.csv"
    write_observations(obs, noise, path)
    with open(path, "a") as fh:
        fh.write("0.2,1,99.0,99.0\n")
    with pytest.raises(ValueError, match="repeated row for time 0.2, bus 1") \
            as exc:
        read_observations(path)
    assert str(path) in str(exc.value)


def _with_value(line, value):
    t, bus, _, x1 = line.split(",")
    return ",".join((t, bus, value, x1))


# each malformed file names its path and, for a bad row, the row's line
MALFORMED = {
    "header-only": (lambda lines: lines[:1], "no observation rows"),
    "three-fields": (lambda lines: lines[:-1] + ["0.4,9,1.0"],
                     "line 19: expected time, bus and two numbers"),
    "nan": (lambda lines: lines[:4] + [_with_value(lines[4], "nan")]
            + lines[5:], "line 5: value not finite"),
    "inf": (lambda lines: lines[:4] + [_with_value(lines[4], "inf")]
            + lines[5:], "line 5: value not finite"),
}


@pytest.mark.parametrize("edit, message", MALFORMED.values(),
                         ids=MALFORMED.keys())
def test_read_rejects_malformed_file(tmp_path, short_traj, edit, message):
    obs, noise = ScenarioConfig(t_f=0.4, dt_obs=0.2,
                                seed=5).observations(short_traj)
    path = tmp_path / "obs.csv"
    write_observations(obs, noise, path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=re.escape(message)) as exc:
        read_observations(path)
    assert str(path) in str(exc.value)


def test_read_requires_sidecar(tmp_path, short_traj):
    obs, noise = ScenarioConfig(t_f=0.4, dt_obs=0.2,
                                seed=5).observations(short_traj)
    path = tmp_path / "obs.csv"
    write_observations(obs, noise, path)
    path.with_suffix(".csv.meta.json").unlink()
    with pytest.raises(ValueError, match="sidecar"):
        read_observations(path)


def _write_one_row(path, columns, bus, coords, noise_var=None):
    """A one-row observations CSV and its sidecar, written by hand."""
    path.write_text(f"time,bus,{columns}\n0.1,{bus},1.0,0.0\n")
    path.with_suffix(".csv.meta.json").write_text(json.dumps(
        {"coords": coords, "noise_var": noise_var or {"iid": 1e-4},
         "meta": {}}))


def test_read_rejects_bus_outside_network(tmp_path):
    path = tmp_path / "obs.csv"
    _write_one_row(path, "v_re,v_im", 1, "rect")
    assert read_observations(path)[0].buses.tolist() == [0]
    for bus in (0, N_BUS + 1):
        _write_one_row(path, "v_re,v_im", bus, "rect")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, line 2: bus not in 1..{N_BUS}")):
            read_observations(path)


def test_read_rejects_unknown_columns(tmp_path):
    path = tmp_path / "obs.csv"
    _write_one_row(path, "v_mag,v_ang", 1, "polar")
    assert read_observations(path)[0].coords == "polar"
    _write_one_row(path, "volts,angle", 1, "polar")
    with pytest.raises(ValueError, match="columns"):
        read_observations(path)


def test_read_rejects_columns_that_disagree_with_sidecar(tmp_path):
    path = tmp_path / "obs.csv"
    _write_one_row(path, "v_re,v_im", 1, "polar")
    with pytest.raises(ValueError, match="sidecar"):
        read_observations(path)
    _write_one_row(path, "v_mag,v_ang", 1, "rect")
    with pytest.raises(ValueError, match="sidecar"):
        read_observations(path)


def test_read_rejects_noise_variances_of_the_wrong_length(tmp_path):
    # one row holds two observations: one variance or two, nothing else
    path = tmp_path / "obs.csv"
    for var in ([1e-4], [1e-4, 2e-4]):
        _write_one_row(path, "v_re,v_im", 1, "rect", var)
        assert read_observations(path)[1].var.size == 2
    for var in ([1e-4] * 3, [1e-4] * 5):
        _write_one_row(path, "v_re,v_im", 1, "rect", var)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: {len(var)} noise variances for 2 observations")):
            read_observations(path)
