"""Smoke runs of the experiment scripts, each as its own process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_simplicity_survey(tmp_path):
    out = tmp_path / "survey.json"
    proc = run_script("simplicity_survey.py", "--n", "2", "--max-size", "1",
                      "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["n"] == 2 and payload["max_size"] == 1
    assert len(payload["rows"]) == 4
    for row in payload["rows"]:
        assert row["kac_plus_simple"] == row["typical"]


def test_stabilization_sweep(tmp_path):
    out = tmp_path / "sweep.json"
    proc = run_script("stabilization_sweep.py", "--n-from", "2", "--n-to", "3",
                      "--family", "L-:1:", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    (report,) = json.loads(out.read_text())
    assert report["object"] == "L-"
    assert report["stabilized"] is True
    assert [c["n"] for c in report["characters"]] == [2, 3]
