"""Scenario configuration: defaults, validation, YAML round trip."""
import re
from dataclasses import replace

import numpy as np
import pytest
import yaml

from gridest.ninebus import DisturbanceEvent
from gridest.scenario import ScenarioConfig


def test_defaults():
    cfg = ScenarioConfig()
    assert cfg.t_f == 5.0
    assert cfg.dt == 0.01
    assert cfg.dt_obs == 0.05
    assert cfg.noise_var == 1e-4
    assert cfg.seed == 1234
    assert cfg.method == "adjoint"
    assert cfg.pce_order == 2
    assert cfg.pce_rule == "stochastic-testing"
    assert cfg.disturbance == DisturbanceEvent(bus=5, start=0.1,
                                               duration=0.2, load=5.5)
    assert tuple(cfg.prior_mean) == (24.0, 6.0, 3.1)
    assert tuple(cfg.prior_var) == (5.76, 0.36, 0.09)
    assert tuple(cfg.m_true) == (23.64, 6.40, 3.01)
    # independent instances get independent event objects
    assert ScenarioConfig().disturbance == cfg.disturbance


def test_times_end_on_the_node_of_t_f():
    # grid_nodes puts both horizons on node 400, so both observe at 4.0
    for t_f in (4.0, 4.0 - 3e-9):
        times = ScenarioConfig(t_f=t_f).times()
        assert len(times) == 80
        assert times[-1] == pytest.approx(4.0)


def test_derived_helpers():
    cfg = ScenarioConfig(t_f=1.0)
    assert cfg.events() == (cfg.disturbance,)
    assert len(cfg.times()) == 20
    prior = cfg.prior()
    assert np.allclose(prior.mean, [24.0, 6.0, 3.1])
    noise = cfg.noise(360)
    assert noise.var.shape == (360,)
    assert np.all(noise.var == 1e-4)
    none_cfg = ScenarioConfig(t_f=1.0, disturbance=None)
    assert none_cfg.events() == ()


def test_validation_errors():
    with pytest.raises(ValueError, match="positive"):
        ScenarioConfig(t_f=-1.0)
    with pytest.raises(ValueError, match="multiple"):
        ScenarioConfig(dt_obs=0.013)
    with pytest.raises(ValueError, match="multiple"):
        ScenarioConfig(dt_obs=0.005)  # smaller than dt
    with pytest.raises(ValueError, match="disturbance"):
        ScenarioConfig(t_f=0.25)  # event window extends past t_f
    with pytest.raises(ValueError, match="noise"):
        ScenarioConfig(noise_var=0.0)
    with pytest.raises(ValueError, match="prior"):
        ScenarioConfig(prior_var=(1.0, -1.0, 1.0))
    with pytest.raises(ValueError, match="length"):
        ScenarioConfig(prior_mean=(24.0, 6.0))
    with pytest.raises(ValueError, match="method"):
        ScenarioConfig(method="mcmc")
    with pytest.raises(ValueError, match="rule"):
        ScenarioConfig(pce_rule="random")
    with pytest.raises(ValueError, match="order"):
        ScenarioConfig(pce_order=0)
    with pytest.raises(ValueError, match="order"):
        ScenarioConfig(pce_order=6)
    # a positivity test written as x <= 0 lets NaN through; inf overflowed
    # in the grid check or passed as a variance
    nan, inf = float("nan"), float("inf")
    for field, value in (("t_f", inf), ("t_f", nan), ("dt", nan),
                         ("dt_obs", inf), ("noise_var", nan),
                         ("noise_var", inf), ("prior_mean", (nan, 6.0, 3.1)),
                         ("prior_var", (5.76, inf, 0.09)),
                         ("prior_var", (5.76, 0.36, nan)),
                         ("m_true", (23.64, 6.40, nan))):
        with pytest.raises(ValueError, match=f"^{field}=.* is not finite$"):
            ScenarioConfig(**{field: value})


def test_disturbance_may_end_at_t_f():
    # the default event ends at 0.1 + 0.2, a rounding above 0.3
    assert ScenarioConfig(t_f=0.3).t_f == 0.3
    with pytest.raises(ValueError, match=re.escape(
            "disturbance bound 0.30000000000000004 is past the end of the "
            "trajectory at t=0.29")):
        ScenarioConfig(t_f=0.29)


def test_validation_rejects_off_grid_t_f_and_disturbance():
    # both would fail only at the first simulate, inside a sweep row
    with pytest.raises(ValueError, match="t_f 1.005 is not a multiple of "
                                         "dt=0.01"):
        ScenarioConfig(t_f=1.005)
    with pytest.raises(ValueError, match="disturbance bound 0.105 is not a "
                                         "multiple of dt=0.01"):
        ScenarioConfig(disturbance=DisturbanceEvent(bus=5, start=0.105,
                                                    duration=0.2, load=5.5))
    with pytest.raises(ValueError, match="dt_obs 1e-12 is not a positive "
                                         "multiple of dt=0.01"):
        ScenarioConfig(dt_obs=1e-12)
    # a cadence longer than the horizon observes nothing
    with pytest.raises(ValueError, match=re.escape(
            "no observation times in (0, t_f]")):
        ScenarioConfig(t_f=0.5, dt_obs=1.0)


def test_validation_rejects_bad_truth_and_prior_mean():
    # both would fail only later: the truth in the synthesis simulate,
    # the prior mean as the start of either back end's MAP
    with pytest.raises(ValueError, match="m_true"):
        ScenarioConfig(m_true=(-1.0, 6.4, 3.01))
    with pytest.raises(ValueError, match="m_true"):
        ScenarioConfig(m_true=(23.64, 0.0, 3.01))
    with pytest.raises(ValueError, match="prior_mean"):
        ScenarioConfig(prior_mean=(0.05, 6.0, 3.1))
    with pytest.raises(ValueError, match="prior_mean"):
        replace(ScenarioConfig(), prior_mean=(24.0, 6.0, -3.1))
    # the bound itself is a valid start
    assert ScenarioConfig(prior_mean=(0.1, 6.0, 3.1)).prior_mean[0] == 0.1


def _write_yaml(cfg, path):
    path.write_text(yaml.safe_dump(cfg.to_dict(), sort_keys=True))


def test_yaml_round_trip(tmp_path):
    cfg = ScenarioConfig(t_f=2.0, dt_obs=0.1, method="pce", pce_order=3,
                         pce_rule="sparse", seed=99,
                         disturbance=DisturbanceEvent(bus=7, start=0.2,
                                                      duration=0.3, load=4.0))
    path = tmp_path / "scenario.yaml"
    _write_yaml(cfg, path)
    back = ScenarioConfig.from_file(path)
    assert back == cfg
    # the round trip is exact: the config read back writes the same bytes
    _write_yaml(back, tmp_path / "again.yaml")
    assert (tmp_path / "again.yaml").read_bytes() == path.read_bytes()


def test_yaml_no_disturbance(tmp_path):
    cfg = ScenarioConfig(disturbance=None)
    path = tmp_path / "s.yaml"
    _write_yaml(cfg, path)
    back = ScenarioConfig.from_file(path)
    assert back.disturbance is None
    assert back == cfg


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        ScenarioConfig.from_dict({"t_f": 1.0, "volume": 11})


def test_from_dict_names_bad_disturbance_keys():
    event = {"bus": 5, "start": 0.1, "duration": 0.2, "load": 5.5}
    misspelt = {**{k: v for k, v in event.items() if k != "load"},
                "lood": 5.5}
    with pytest.raises(ValueError, match=r"unknown disturbance fields: \['lood'\]"):
        ScenarioConfig.from_dict({"disturbance": misspelt})
    missing = {k: v for k, v in event.items() if k != "duration"}
    with pytest.raises(ValueError,
                       match=r"missing disturbance fields: \['duration'\]"):
        ScenarioConfig.from_dict({"disturbance": missing})
    assert ScenarioConfig.from_dict({"disturbance": event}).disturbance == \
        DisturbanceEvent(**event)


def test_to_dict_structure():
    cfg = ScenarioConfig()
    d = cfg.to_dict()
    assert d["disturbance"] == {"bus": 5, "start": 0.1, "duration": 0.2,
                                "load": 5.5}
    assert d["t_f"] == 5.0
    assert ScenarioConfig.from_dict(d) == cfg


def test_replace():
    cfg = ScenarioConfig()
    new = replace(cfg, t_f=2.0, seed=7, method="pce")
    assert new.t_f == 2.0
    assert new.seed == 7
    assert new.method == "pce"
    # the original is untouched
    assert cfg.t_f == 5.0
    assert cfg.seed == 1234
    with pytest.raises(ValueError):
        replace(cfg, t_f=0.2)  # re-validated after the merge
