"""bench/layers.py and the BENCH_layers.json it writes: keys only, no
time is gated."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUMMARY = {"median", "q1", "q3", "n"}
FIGURES = {"import_gridest": {"import_s", "peak_rss_mib"}}


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
    out = tmp_path / "layers.json"
    subprocess.run([sys.executable, str(ROOT / "bench" / "layers.py"),
                    "--repeats", "2", "--out", str(out)], check=True)
    _check_keys(json.loads(out.read_text()), {"this"}, 2)


def test_committed_file_holds_parent_and_change():
    doc = json.loads((ROOT / "BENCH_layers.json").read_text())
    _check_keys(doc, {"parent", "change"}, doc["repeats"])
    assert doc["repeats"] >= 10
