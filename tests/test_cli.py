"""Command-line interface: every subcommand end to end in-process."""
import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import gridest
import gridest.bayes
import gridest.cli
from gridest.bayes import AdjointObjective
from gridest.cli import main
from gridest.observation import read_observations
from gridest.scenario import DEFAULT_DISTURBANCE, ScenarioConfig

FAST = ["--t-f", "0.5", "--dt-obs", "0.1"]

# forward solves per order-2 surrogate in three parameters, by rule
PCE_NODES = {"stochastic-testing": 10, "tensor": 27, "sparse": 19}
# every method the CLI accepts, and for pce every rule
METHOD_CASES = [pytest.param("adjoint", None, id="adjoint")] + [
    pytest.param("pce", rule, id=f"pce-{rule}") for rule in PCE_NODES]


def _run(argv):
    return main([str(a) for a in argv])


def _header_config(path):
    """The resolved config in an output file's reproducibility header."""
    with open(path) as fh:
        line = next(r for r in fh if r.startswith("# config "))
    return json.loads(line[len("# config "):])


def test_simulate_writes_trajectory_and_observables(tmp_path):
    prefix = tmp_path / "case"
    rc = _run(["simulate", *FAST, "--out-prefix", prefix])
    assert rc == 0
    traj_csv = tmp_path / "case_trajectory.csv"
    obs_csv = tmp_path / "case_observables.csv"
    assert traj_csv.exists() and obs_csv.exists()
    header = traj_csv.read_text().splitlines()
    assert header[0].startswith("# gridest ")
    assert header[1].startswith("# config ")
    with open(traj_csv) as fh:
        rows = list(csv.reader(r for r in fh if not r.startswith("#")))
    assert len(rows) == 1 + 51  # header plus 0..0.5 at dt=0.01
    assert rows[0][0] == "time"
    # the observables file is the noiseless extraction (no noise sidecar)
    with open(obs_csv) as fh:
        orows = list(csv.reader(r for r in fh if not r.startswith("#")))
    assert orows[0] == ["time", "bus", "v_re", "v_im"]
    assert len(orows) == 1 + 9 * 5
    vals = np.array([[float(r[2]), float(r[3])] for r in orows[1:]])
    assert np.all(np.isfinite(vals))
    assert np.all(np.hypot(vals[:, 0], vals[:, 1]) < 1.2)


def test_simulate_with_no_observation_times_writes_nothing(tmp_path):
    # the config rejects the grid before the trajectory file is written
    with pytest.raises(SystemExit, match="no observation times"):
        _run(["simulate", "--t-f", "0.5", "--dt-obs", "1.0",
              "--out-prefix", tmp_path / "case"])
    assert list(tmp_path.iterdir()) == []


def test_synth_data_rejects_a_nan_noise_variance(tmp_path):
    # it used to write a CSV of nan values that estimate then refused
    with pytest.raises(SystemExit, match="^noise_var=nan is not finite$"):
        _run(["synth-data", "--t-f", "1", "--noise-var", "nan",
              "--out", tmp_path / "d.csv"])
    assert list(tmp_path.iterdir()) == []


def test_synth_data_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(["synth-data", *FAST, "--out", a]) == 0
    assert _run(["synth-data", *FAST, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.with_suffix(".csv.meta.json").read_bytes() == \
        b.with_suffix(".csv.meta.json").read_bytes()
    obs, _ = read_observations(a)
    assert obs.meta["seed"] == 1234
    # a different seed changes the values
    c = tmp_path / "c.csv"
    _run(["synth-data", *FAST, "--seed", "77", "--out", c])
    assert a.read_bytes() != c.read_bytes()


def test_estimate_adjoint_json(tmp_path, capsys):
    data = tmp_path / "obs.csv"
    _run(["synth-data", *FAST, "--out", data])
    out = tmp_path / "post.json"
    rc = _run(["estimate", *FAST, "--data", data, "--out", out])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "adjoint"
    assert len(doc["m_map"]) == 3
    assert doc["config"]["t_f"] == 0.5
    assert doc["version"]
    assert doc["stats"]["converged"]
    assert "metrics" in doc
    text = capsys.readouterr().out
    assert "Err" in text and "tau" in text
    # the solve record: no estimate runs an adjoint sweep
    assert "forward solves" in text and "adjoint solves" not in text
    assert "tangent-linear solves" in text


def _method_flags(method, rule):
    return ["--method", method] + ([] if rule is None else ["--pce-rule", rule])


def _assert_shared_cost(rule, iterations, forward, tangent, converged):
    """The cost keys every back end reports; rule is None for adjoint."""
    assert iterations > 0
    assert converged
    if rule is None:
        assert forward > 0
        # one tangent-linear pass per Gauss-Newton iterate, three for the
        # Laplace step
        assert tangent == iterations + 4
    else:
        assert forward == PCE_NODES[rule]
        assert tangent == 0


@pytest.mark.parametrize("method, rule", METHOD_CASES)
def test_estimate_json_keeps_map_history(tmp_path, method, rule):
    data = tmp_path / "obs.csv"
    _run(["synth-data", *FAST, "--out", data])
    out = tmp_path / "post.json"
    assert _run(["estimate", *FAST, *_method_flags(method, rule),
                 "--data", data, "--out", out]) == 0
    st = json.loads(out.read_text())["stats"]
    # one record per iterate, the start included; the last is the MAP
    assert len(st["history"]) == st["iterations"] + 1
    assert st["history"][-1]["fun"] == st["objective"]


@pytest.mark.parametrize("method, rule", METHOD_CASES)
def test_estimate_pce_json(tmp_path, method, rule):
    data = tmp_path / "obs.csv"
    _run(["synth-data", *FAST, "--out", data])
    out = tmp_path / "post.json"
    rc = _run(["estimate", *FAST, *_method_flags(method, rule),
               "--data", data, "--out", out])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == method
    assert doc["config"]["method"] == method
    st = doc["stats"]
    _assert_shared_cost(rule, st["iterations"], st["forward_solves"],
                        st["tangent_solves"], st["converged"])
    if rule is None:
        # the Laplace step makes no forward solve
        assert st["forward_solves"] == st["n_evals"]
    assert 0 < st["newton_factorizations"] < st["newton_iters"]


def test_estimate_matches_library(tmp_path, system, prior):
    from gridest.bayes import estimate_adjoint

    data = tmp_path / "obs.csv"
    _run(["synth-data", *FAST, "--out", data])
    out = tmp_path / "post.json"
    _run(["estimate", *FAST, "--data", data, "--out", out])
    doc = json.loads(out.read_text())

    cfg = ScenarioConfig(t_f=0.5, dt_obs=0.1)
    obs, noise = read_observations(data)
    summary = estimate_adjoint(system, obs, noise, prior, cfg.t_f, cfg.dt,
                               events=cfg.events(), m_true=cfg.m_true)
    assert np.allclose(doc["m_map"], summary.m_map, rtol=1e-12)
    assert np.allclose(doc["gamma_post"], summary.gamma_post, rtol=1e-10)


def _no_solve(*args, **kwargs):
    raise AssertionError("estimate reached a solve")


def test_estimate_names_data_off_the_dt_grid(tmp_path, monkeypatch):
    data = tmp_path / "obs.csv"
    _run(["synth-data", *FAST, "--out", data])
    shifted = tmp_path / "shifted.csv"
    text = data.read_text()
    assert "\n0.10000000000000001," in text
    shifted.write_text(text.replace("\n0.10000000000000001,", "\n0.105,"))
    shifted.with_suffix(".csv.meta.json").write_bytes(
        data.with_suffix(".csv.meta.json").read_bytes())
    monkeypatch.setattr(gridest.cli, "run_estimate", _no_solve)
    with pytest.raises(SystemExit, match=re.escape(
            f"--data {shifted} does not fit the scenario (dt=0.01, t_f=0.5): "
            "observation time 0.105 is not a multiple of dt=0.01")):
        _run(["estimate", *FAST, "--data", shifted,
              "--out", tmp_path / "post.json"])


def test_estimate_names_data_past_t_f(tmp_path, monkeypatch):
    data = tmp_path / "obs.csv"
    _run(["synth-data", *FAST, "--out", data])
    monkeypatch.setattr(gridest.cli, "run_estimate", _no_solve)
    with pytest.raises(SystemExit, match=re.escape(
            f"--data {data} does not fit the scenario (dt=0.01, t_f=0.3): "
            "observation time 0.4 is past the end of the trajectory at t=0.3")):
        _run(["estimate", "--t-f", "0.3", "--dt-obs", "0.1", "--data", data,
              "--out", tmp_path / "post.json"])


def test_config_file_with_flag_overrides(tmp_path):
    cfg = ScenarioConfig(t_f=0.5, dt_obs=0.1, seed=555)
    cfg_path = tmp_path / "scenario.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg.to_dict(), sort_keys=True))
    a = tmp_path / "a.csv"
    _run(["synth-data", "--config", cfg_path, "--out", a])
    obs, _ = read_observations(a)
    assert obs.meta["seed"] == 555
    # flags win over the file
    b = tmp_path / "b.csv"
    _run(["synth-data", "--config", cfg_path, "--seed", "99", "--out", b])
    obs, _ = read_observations(b)
    assert obs.meta["seed"] == 99
    # every disturbance flag reaches the resolved config
    c = tmp_path / "c.csv"
    _run(["synth-data", "--config", cfg_path, "--bus", "7",
          "--event-start", "0.2", "--event-duration", "0.1", "--load", "6.5",
          "--out", c])
    assert _header_config(c)["disturbance"] == {
        "bus": 7, "start": 0.2, "duration": 0.1, "load": 6.5}
    # a file without a disturbance starts the flags from the default event
    none_path = tmp_path / "none.yaml"
    none_path.write_text(yaml.safe_dump(
        ScenarioConfig(t_f=0.5, dt_obs=0.1, disturbance=None).to_dict(),
        sort_keys=True))
    assert "disturbance: null" in none_path.read_text()
    d = tmp_path / "d.csv"
    _run(["synth-data", "--config", none_path, "--load", "7.0", "--out", d])
    assert _header_config(d)["disturbance"] == asdict(
        replace(DEFAULT_DISTURBANCE, load=7.0))


def test_no_disturbance_flag(tmp_path):
    a = tmp_path / "a.csv"
    _run(["synth-data", *FAST, "--no-disturbance", "--out", a])
    obs, _ = read_observations(a)
    # without an event each channel is flat equilibrium plus noise, so
    # its spread over time stays within a few noise standard deviations
    vals = obs.values.reshape(len(obs.times), 9, 2)
    spread = np.ptp(vals, axis=0)
    assert np.all(spread < 0.06)
    b = tmp_path / "b.csv"
    _run(["synth-data", *FAST, "--out", b])
    disturbed, _ = read_observations(b)
    dvals = disturbed.values.reshape(len(obs.times), 9, 2)
    assert np.max(np.ptp(dvals, axis=0)) > 0.1


def test_no_disturbance_conflicts_with_event_flags(tmp_path):
    # an event flag cannot be dropped in silence: the error names each one
    with pytest.raises(SystemExit, match="--no-disturbance conflicts with "
                                         "--bus, --load"):
        _run(["synth-data", *FAST, "--no-disturbance", "--bus", "7",
              "--load", "6.0", "--out", tmp_path / "a.csv"])
    with pytest.raises(SystemExit, match="--event-start, --event-duration"):
        _run(["estimate", *FAST, "--no-disturbance", "--event-start", "0.2",
              "--event-duration", "0.1", "--data", tmp_path / "a.csv"])
    assert not (tmp_path / "a.csv").exists()


def test_dt_flag_checks_only_the_resolved_disturbance(tmp_path):
    # the default event's bound 0.1 is off a 0.04 s grid, but the flags
    # that replace or drop the event give a config on the grid
    grid = ["--t-f", "0.4", "--dt", "0.04", "--dt-obs", "0.08"]
    a = tmp_path / "a.csv"
    _run(["synth-data", *grid, "--no-disturbance", "--out", a])
    assert _header_config(a)["disturbance"] is None
    b = tmp_path / "b.csv"
    _run(["synth-data", *grid, "--event-start", "0.2",
          "--event-duration", "0.2", "--out", b])
    assert _header_config(b)["dt"] == 0.04
    assert _header_config(b)["disturbance"]["start"] == 0.2
    # with the default event kept, the resolved config is off the grid
    with pytest.raises(SystemExit, match=re.escape(
            "disturbance bound 0.1 is not a multiple of dt=0.04")):
        _run(["synth-data", *grid, "--out", tmp_path / "c.csv"])


# a config field of the wrong type, as YAML reads it, and the error that
# names it: the command ends with that message and writes no file
WRONG_TYPES = {
    "disturbance-list": ("disturbance: [1, 2]",
                         "disturbance=[1, 2] is not an event"),
    "prior-mean-scalar": ("prior_mean: 5",
                          "prior_mean=5 is not a list of numbers"),
    "t-f-text": ("t_f: abc", "t_f='abc' is not a number"),
    "pce-order-text": ("pce_order: two", "pce_order='two' is not an integer"),
    "noise-var-list": ("noise_var: [1, 2]",
                       "noise_var=[1, 2] is not a number"),
    "seed-text": ("seed: abc", "seed='abc' is not an integer"),
    "seed-fraction": ("seed: 1.5", "seed=1.5 is not an integer"),
    "event-bus-text": ("disturbance: {bus: abc, start: 0.1, duration: 0.2, "
                       "load: 5.5}", "event bus 'abc' is not an integer"),
    "event-start-text": ("disturbance: {bus: 5, start: x, duration: 0.2, "
                         "load: 5.5}", "event start 'x' is not a number"),
    "event-bus-float": ("disturbance: {bus: 5.0, start: 0.1, duration: 0.2, "
                        "load: 5.5}", "event bus 5.0 is not an integer"),
    "event-bus-bool": ("disturbance: {bus: true, start: 0.1, duration: 0.2, "
                       "load: 5.5}", "event bus True is not an integer"),
}


@pytest.mark.parametrize("line, message", WRONG_TYPES.values(),
                         ids=WRONG_TYPES.keys())
def test_config_field_of_the_wrong_type_is_named(tmp_path, line, message):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(line + "\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(message)}$"):
        _run(["synth-data", "--config", cfg_path,
              "--out", tmp_path / "d.csv"])
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_synth_data_writes_the_scenario_observations(tmp_path, system):
    # the file holds, bit for bit, what the library recipe draws
    cfg = ScenarioConfig(t_f=0.5, dt_obs=0.1, seed=77, noise_var=4e-4)
    path = tmp_path / "d.csv"
    _run(["synth-data", *FAST, "--seed", "77", "--noise-var", "4e-4",
          "--out", path])
    assert ScenarioConfig.from_dict(_header_config(path)) == cfg
    obs, noise = cfg.observations(cfg.truth(system))
    back, noise_back = read_observations(path)
    assert np.array_equal(back.times, obs.times)
    assert np.array_equal(back.values, obs.values)
    assert np.array_equal(noise_back.var, noise.var)


@pytest.mark.parametrize("user, expected", [(None, "1"), ("2", "2")])
def test_import_pins_blas_threads_unless_set(user, expected):
    # the variables must be set before numpy loads OpenBLAS, so a fresh
    # interpreter imports the package first
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = str(Path(gridest.__file__).parents[1])
    if user is not None:
        env.update(dict.fromkeys(names, user))
    out = subprocess.run(
        [sys.executable, "-c", "import os, gridest; print(*(os.environ[k] "
         f"for k in {names!r}))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == [expected] * 3


@pytest.mark.parametrize("method, rule", METHOD_CASES)
def test_sweep_csv(tmp_path, method, rule):
    argv = ["sweep", "--t-f", "0.5", "--dt-obs", "0.1",
            *_method_flags(method, rule),
            "--t-f-list", "0.5", "--dt-obs-list", "0.1",
            "--load-list", "5.5", "6.0", "--noise-var-list", "1e-4"]
    out = tmp_path / "sweep.csv"
    rc = _run([*argv, "--out", out])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(r for r in fh if not r.startswith("#")))
    assert len(rows) == 2
    assert list(rows[0])[-4:] == ["iterations", "forward_solves",
                                  "tangent_solves", "converged"]
    assert rows[0]["index"] == "0"
    assert {r["load"] for r in rows} == {"5.5", "6"} or \
        {float(r["load"]) for r in rows} == {5.5, 6.0}
    for r in rows:
        assert r["method"] == method
        assert float(r["err"]) < 0.5
        _assert_shared_cost(rule, int(r["iterations"]),
                            int(r["forward_solves"]), int(r["tangent_solves"]),
                            r["converged"] == "1")
    # per-row seeds are derived, distinct, and stable across reruns
    seeds = [int(r["seed"]) for r in rows]
    assert len(set(seeds)) == 2
    # a rerun across two worker processes writes the same bytes
    out2 = tmp_path / "sweep2.csv"
    _run([*argv, "--jobs", "2", "--out", out2])
    assert out.read_bytes() == out2.read_bytes()


def test_sweep_empty_grid_fails(tmp_path):
    with pytest.raises(SystemExit):
        _run(["sweep", "--t-f-list", "--out", tmp_path / "x.csv"])
    # a load axis needs an event whose load it can set
    with pytest.raises(SystemExit, match="requires a disturbance"):
        _run(["sweep", "--no-disturbance", "--load-list", "5.5",
              "--out", tmp_path / "y.csv"])


@pytest.mark.parametrize("axis, message", [
    pytest.param(["--t-f-list", "0.5", "0.055"],
                 "t_f 0.055 is not a multiple of dt=0.01", id="t_f"),
    pytest.param(["--noise-var-list", "1e-4", "-1"],
                 "noise_var must be positive", id="noise_var"),
])
def test_sweep_rejects_a_bad_row_before_any_solve(tmp_path, monkeypatch,
                                                  axis, message):
    # the valid first row is not solved either: every row is checked first
    monkeypatch.setattr(gridest.cli, "_sweep_one", _no_solve)
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit, match="^" + re.escape(message) + "$"):
        _run(["sweep", *axis, "--out", out])
    assert not out.exists()


def test_gradient_check_passes(capsys):
    rc = _run(["gradient-check", *FAST, "--n-random", "1"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "worst relative error" in text


def test_gradient_check_fails_on_tight_tol(capsys):
    rc = _run(["gradient-check", *FAST, "--tol", "1e-16"])
    assert rc == 1


def test_gradient_check_fails_on_nan_error(capsys, monkeypatch):
    # max(worst, nan) keeps worst: a NaN error must not read as a pass
    monkeypatch.setattr(AdjointObjective, "gradient",
                        lambda self, m: np.full(m.size, np.nan))
    rc = _run(["gradient-check", *FAST])
    assert rc == 1
    assert "worst relative error nan" in capsys.readouterr().out


def test_gradient_check_fails_on_wrong_tangent_linear(capsys, monkeypatch):
    # the tangent-linear gradient is checked too: a Jacobian 0.1% off fails
    tangent_linear = gridest.bayes.tangent_linear

    def scaled(*args):
        jac, sens = tangent_linear(*args)
        return jac * (1 + 1e-3), sens
    monkeypatch.setattr(gridest.bayes, "tangent_linear", scaled)
    rc = _run(["gradient-check", *FAST])
    assert rc == 1
    assert "tangent-linear (> tol" in capsys.readouterr().out


@pytest.mark.parametrize("step", ["0", "-1e-6"])
def test_gradient_check_rejects_nonpositive_fd_step(capsys, step):
    with pytest.raises(SystemExit) as exc:
        _run(["gradient-check", *FAST, f"--fd-step={step}"])
    assert exc.value.code == 2
    assert "--fd-step: must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--jobs", "0"], "--jobs: must be >= 1, got 0"),
    (["sweep", "--jobs", "-4"], "--jobs: must be >= 1, got -4"),
    (["gradient-check", "--n-random", "-2"],
     "--n-random: must be >= 0, got -2"),
])
def test_count_flags_reject_out_of_range(tmp_path, monkeypatch, capsys,
                                        argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        _run([*argv, *FAST])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["--version"])
    assert exc.value.code == 0
    assert "gridest" in capsys.readouterr().out


def test_estimate_has_no_jobs_flag():
    # only sweep runs in parallel, across its independent rows
    with pytest.raises(SystemExit) as exc:
        _run(["estimate", "--data", "obs.csv", "--jobs", "2"])
    assert exc.value.code == 2
