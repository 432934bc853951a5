"""bench/layers.py and the BENCH_layers.json it writes: keys, and the
work counts of the committed change against a fresh run's; no time is
gated."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUMMARY = {"median", "q1", "q3", "n"}
WORK = ("lu_factors", "tangent_passes", "adjoint_sweeps")
PASS_FIGURES = {f"{key}_{tag}" for key in ("call_s", *WORK)
                for tag in ("1s", "5s")}
FIGURES = {"import_gridest": {"import_s", "peak_rss_mib"},
           "tangent_linear": PASS_FIGURES, "backward_sweep": PASS_FIGURES,
           "laplace_step": PASS_FIGURES}


def _check_keys(doc, labels, repeats):
    assert doc["harness"] == "bench/layers.py"
    assert doc["repeats"] == repeats
    assert {"python", "numpy", "scipy", "machine", "cpus"} <= set(
        doc["environment"])
    assert set(FIGURES) <= set(doc["cases"])
    for case, figures in FIGURES.items():
        by_tree = doc["cases"][case]
        assert set(by_tree) == labels
        for summaries in by_tree.values():
            assert set(summaries) == figures
            for s in summaries.values():
                assert set(s) == SUMMARY and s["n"] == repeats
                assert s["q1"] <= s["median"] <= s["q3"]


def test_harness_writes_every_case(tmp_path):
    # a fresh run does the work the committed change recorded
    out = tmp_path / "layers.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "layers.py"),
                    "--repeats", "2", "--out", str(out)], check=True)
    fresh = json.loads(out.read_text())
    _check_keys(fresh, {"this"}, 2)
    committed = json.loads((ROOT / "BENCH_layers.json").read_text())
    for case in ("tangent_linear", "backward_sweep", "laplace_step"):
        for key in (f"{w}_{tag}" for w in WORK for tag in ("1s", "5s")):
            assert fresh["cases"][case]["this"][key]["median"] \
                == committed["cases"][case]["change"][key]["median"], key


def test_committed_file_holds_parent_and_change():
    doc = json.loads((ROOT / "BENCH_layers.json").read_text())
    _check_keys(doc, {"parent", "change"}, doc["repeats"])
    assert doc["repeats"] >= 10
    # the Laplace step factors fewer matrices than the three predicted
    # tangent-linear passes it replaced
    step = doc["cases"]["laplace_step"]
    for tag in ("1s", "5s"):
        key = f"lu_factors_{tag}"
        assert step["change"][key]["median"] < step["parent"][key]["median"]
