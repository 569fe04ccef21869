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


def test_simplicity_survey_skips_pairs_the_rank_cannot_hold(tmp_path):
    # at n = 3 a pair with two rows in mu needs rank 4 in the interleaved
    # order (two rows in lam need only 3); the survey lists it instead of
    # dying, and two runs write the same bytes
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        proc = run_script("simplicity_survey.py", "--n", "3", "--max-size", "2",
                          "--out", str(out))
        assert proc.returncode == 0, proc.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()
    payload = json.loads(outs[0].read_text())
    assert len(payload["rows"]) == 12 and len(payload["skipped"]) == 4
    assert all(s["mu"] == [1, 1] for s in payload["skipped"])
    assert proc.stdout.count("skipped (") == 4


def test_simplicity_survey_rejects_bad_arguments():
    for args in (["--n", "0"], ["--max-size", "-1"]):
        proc = run_script("simplicity_survey.py", *args)
        assert proc.returncode == 2, args
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_stabilization_sweep_rejects_bad_arguments():
    for args in (["--n-from", "4", "--n-to", "3"], ["--family", "X:1:"]):
        proc = run_script("stabilization_sweep.py", *args)
        assert proc.returncode == 2, args
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
