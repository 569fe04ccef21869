"""Command-line entry points, exercised in-process through main()."""

import json

import pytest

from superw.cli import main
from superw.suite import Criterion


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


@pytest.mark.parametrize("argv", [
    ["kac", "-l", "1", "--n", "3", "-D", "3"],
    ["kac", "-l", "1", "--n", "3", "--kind", "plus", "--degree-cutoff", "0"],
], ids=["default-kind", "explicit-plus"])
def test_kac_plus_rejects_a_degree_cutoff(argv, capsys, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("kac built a module despite the usage error")

    monkeypatch.setattr("superw.cli.gl_simple", built)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --degree-cutoff applies to --kind minus only\n"


@pytest.mark.parametrize("lam,n", [("1", "1"), ("1,1", "3")])
def test_tensorfield_at_the_least_interleaved_rank(lam, n, capsys):
    # lam on odd indices needs rank 2 len(lam) - 1, not 2 len(lam); exit 0
    # means the simplicity verdict, the extracted dimension and the
    # invariants round trip agree
    assert main(["tensorfield", "-l", lam, "-m", "", "--n", n]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n", ["0", "-2"])
def test_check_rank_below_one_exits_two_before_any_output(n, capsys):
    assert main(["check", "--n", n, "--samples", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rank must be positive, got {n}\n"


@pytest.mark.parametrize("n", ["13", "40"])
def test_check_rank_above_twelve_exits_two_before_any_output(n, capsys, monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("check sampled at an oversized rank")

    monkeypatch.setattr("superw.cli.jacobi_failures", sampled)
    monkeypatch.setattr("superw.cli.random_homogeneous", sampled)
    assert main(["check", "--n", n, "--samples", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rank must be between 1 and 12, got {n}\n"


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


def test_kac_plus_solves_the_singular_vectors_once(monkeypatch, capsys):
    # the primitives and the simplicity verdict come from one solve on the
    # induced module; the base's own singular line is solved apart
    import superw.modules as mods
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return singular_blocks(*args, **kwargs)

    singular_blocks = mods.singular_blocks
    monkeypatch.setattr(mods, "singular_blocks", counted)
    assert main(["kac", "-m", "1", "--n", "3"]) == 0
    assert "simple: False (via witness)" in capsys.readouterr().out
    assert [m.name for m in calls if m.name.startswith("K+")] == ["K+(V(()|(1)))"]


def test_check_passes(capsys):
    assert main(["check", "--n", "2", "--samples", "40", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "jacobi" in out and "FAIL" not in out


def test_check_detects_injected_sign_bug(capsys):
    rc = main(["check", "--n", "2", "--samples", "40", "--seed", "3",
               "--inject-sign-bug"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_sign_bug_counterexample_is_pinned(tmp_path, capsys):
    out = tmp_path / "check.json"
    rc = main(["check", "--n", "4", "--samples", "200", "--seed", "3",
               "--inject-sign-bug", "--out", str(out)])
    assert rc == 1
    props = {p["name"]: p for p in json.loads(out.read_text())["properties"]}
    assert props["jacobi"]["counterexample"] == [
        "4*x1^x2^x3 d3 + 3*x2^x3^x4 d3 + x2^x3^x4 d4",
        "-2*x2^x3 d2 - 4*x1^x4 d2 - 3*x3^x4 d1",
        "3*d2 - 2*d3",
    ]
    assert props["leibniz"]["counterexample"] is None
    assert props["representation"]["counterexample"] is None


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


@pytest.mark.parametrize("argv", [
    ["kac", "-l", "1", "-m", "1", "--n", "3"], ["suite"]], ids=["kac", "suite"])
def test_out_in_a_missing_directory_exits_two_before_computing(
        argv, tmp_path, capsys, monkeypatch):
    def computed(*args, **kwargs):
        raise AssertionError("computed despite an unwritable --out")

    monkeypatch.setattr("superw.cli.gl_simple", computed)
    monkeypatch.setattr("superw.cli.run_suite", computed)
    out = tmp_path / "missing" / "x.json"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no directory {out.parent} for --out\n"
    assert list(tmp_path.iterdir()) == []


def test_out_write_error_exits_two_with_one_line(tmp_path, capsys):
    # the directory exists, but the path names a directory, not a file
    assert main(["dims", "--n", "3", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "total    : 24" in captured.out
    assert captured.err.startswith(f"error: cannot write {tmp_path}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_suite_json_ignores_timings():
    def results(seconds):
        return [Criterion(1, "bracket axioms", True, "ok", seconds),
                Criterion(2, "socle", False, "mismatch", 2 * seconds)]

    assert ([c.to_json() for c in results(0.5)]
            == [c.to_json() for c in results(71.25)])


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["dims"])
    assert e.value.code == 2


def test_tensorfield_takes_no_seed(capsys):
    # the duality check is exact, so there is no search for a seed to steer
    with pytest.raises(SystemExit) as e:
        main(["tensorfield", "-l", "1", "-m", "", "--n", "3", "--duality",
              "--seed", "3"])
    assert e.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
