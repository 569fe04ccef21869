"""Command-line entry points, exercised in-process through main()."""

import json

import pytest

from superw.cli import main
from superw.suite import Criterion, suite_to_json


def test_dims_table(capsys):
    assert main(["dims", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "degree -1: 3" in out
    assert "total    : 24" in out


def test_dims_rank_out_of_range(capsys):
    assert main(["dims", "--n", "13"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tensorfield", "-l", "", "-m", "", "--n", "0"],
    ["kac", "-l", "", "-m", "", "--n", "-1"],
    ["socle", "-l", "1", "-m", "1", "--n", "0"],
], ids=["tensorfield", "kac", "socle"])
def test_rank_below_one_exits_two_before_any_output(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: rank must be positive" in captured.err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_check_rank_below_one_exits_two_before_any_output(n, capsys):
    assert main(["check", "--n", n, "--samples", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rank must be positive, got {n}\n"


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_check_samples_below_one_exit_two_before_any_output(samples, capsys):
    assert main(["check", "--n", "2", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: samples must be positive, got {samples}\n"


@pytest.mark.parametrize("n", ["2", "3"])
def test_socle_shape_too_long_for_the_rank_exits_two(n, capsys):
    assert main(["socle", "-l", "1,1,1", "-m", "1", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: shapes (1,1,1),(1) need rank >= 4\n"


def test_kac_simple_module_is_decided_by_the_highest_weight(capsys):
    assert main(["kac", "-l", "1", "-m", "", "--n", "3"]) == 0
    assert "simple: True (via highest-weight)" in capsys.readouterr().out


def test_check_passes(capsys):
    assert main(["check", "--n", "2", "--samples", "40", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "jacobi" in out and "FAIL" not in out


def test_check_detects_injected_sign_bug(capsys):
    rc = main(["check", "--n", "2", "--samples", "40", "--seed", "3",
               "--inject-sign-bug"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_socle_report(capsys):
    assert main(["socle", "-l", "2,1", "-m", "1", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "layer 1" in out


def test_kac_exceptional_case(capsys):
    assert main(["kac", "--kind", "plus", "-l", "", "-m", "1", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "atypical" in out
    assert "simple: False" in out
    assert "primitive at layer 1" in out


def test_kac_minus_truncation(capsys):
    assert main(["kac", "--kind", "minus", "-l", "", "-m", "", "--n", "2",
                 "-D", "2"]) == 0
    out = capsys.readouterr().out
    assert "K-" in out


def test_tensorfield_roundtrip(capsys):
    assert main(["tensorfield", "-l", "1", "-m", "", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "submodule dim 7 (proper)" in out
    assert "invariants round-trip: True" in out


def test_stabilize_family(capsys):
    rc = main(["stabilize", "--object", "K+", "-l", "", "-m", "",
               "--n-from", "2", "--n-to", "4"])
    assert rc == 0
    assert "stabilized: True" in capsys.readouterr().out


def test_out_files_are_byte_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["dims", "--n", "4", "--out", str(a)]) == 0
    assert main(["dims", "--n", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["n"] == 4 and data["total"] == 64


def test_suite_json_ignores_timings():
    def results(seconds):
        return [Criterion(1, "bracket axioms", True, "ok", seconds),
                Criterion(2, "socle", False, "mismatch", 2 * seconds)]

    assert suite_to_json(results(0.5)) == suite_to_json(results(71.25))


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["dims"])
    assert e.value.code == 2
