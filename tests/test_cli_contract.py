"""The command-line contract, searched by a generator: every argument
vector, well formed or not, exits 0, 1 or 2 with no traceback; an exit 2
prints exactly one ``error:`` line; and a run that exits 0 or 1 writes a
byte-identical ``--out`` when it is repeated.

Each example calls ``main(argv)`` in process.  The inputs stay small
(ranks up to 4, and up to 3 where a module over the rank is built; shapes
of at most 2 boxes), so the search is bounded in time; malformed shapes,
negative ranks, cutoffs and windows, and ``--out`` into a missing
directory are drawn beside them.  The search is derandomized, so every
run tries the same examples."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from superw.cli import main

VALID_SHAPES = st.sampled_from(["", "1", "2", "1,1"])  # at most 2 boxes
BAD_SHAPES = st.sampled_from(["a", "1.5", ",", "1,2", "-1"])
RANKS = st.integers(-1, 4)
SMALL_RANKS = st.integers(-1, 3)


def one_in_four(draw) -> bool:
    return draw(st.integers(0, 3)) == 0


@st.composite
def shapes(draw):
    # malformed one time in four, so that most pairs reach the program
    return draw(BAD_SHAPES if one_in_four(draw) else VALID_SHAPES)


def pair(lam, mu):
    # the --flag=value form keeps a shape like -1 from reading as a flag
    return [f"--lambda={lam}", f"--mu={mu}"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["dims", "check", "socle", "kac", "tensorfield", "stabilize"]))
    lam, mu = draw(shapes()), draw(shapes())
    if command == "dims":
        return ["dims", "--n", str(draw(RANKS))]
    if command == "check":
        argv = ["check", "--n", str(draw(RANKS)),
                "--samples", str(draw(st.sampled_from([-1, 0, 1, 20])))]
        return argv + (["--inject-sign-bug"] if draw(st.booleans()) else [])
    if command == "socle":
        return ["socle", *pair(lam, mu), "--n", str(draw(RANKS))]
    if command == "kac":
        argv = ["kac", *pair(lam, mu), "--n", str(draw(SMALL_RANKS)),
                "--kind", draw(st.sampled_from(["plus", "minus"]))]
        cutoff = draw(st.none() | st.integers(-1, 2))
        return argv + ([] if cutoff is None else ["-D", str(cutoff)])
    if command == "tensorfield":
        argv = ["tensorfield", *pair(lam, mu), "--n", str(draw(SMALL_RANKS))]
        flags = draw(st.sets(st.sampled_from(["--skip-extract", "--duality"])))
        return argv + sorted(flags)
    # n-to from one below n-from up, so that most sweeps are nonempty
    n_from = draw(SMALL_RANKS)
    n_to = draw(st.integers(n_from - 1, 3))
    argv = ["stabilize", *pair(lam, mu), "--n-from", str(n_from),
            "--n-to", str(n_to), "--object", draw(st.sampled_from(["L-", "T", "K+"]))]
    window = draw(st.none() | st.integers(-1, 5))
    return argv + ([] if window is None else ["--window", str(window)])


def run(argv: list) -> tuple[int, str, bool]:
    """Exit code, stderr, and whether the code came from argparse."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return main(argv), err.getvalue(), False
        except SystemExit as e:
            return e.code, err.getvalue(), True


@st.composite
def missing_dirs(draw):
    return one_in_four(draw)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(argvs(), missing_dirs())
def test_every_input_answers_or_exits_two(argv, missing_dir):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / ("missing" if missing_dir else "") / "report.json"
        code, err, from_argparse = run(argv + ["--out", str(out)])
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, argv
        if code == 2:
            lines = err.splitlines()
            assert sum("error:" in line for line in lines) == 1, (argv, err)
            if not from_argparse:
                assert lines == [lines[0]] and lines[0].startswith("error: "), \
                    (argv, err)
            return
        assert not missing_dir, argv
        first = out.read_bytes()
        assert run(argv + ["--out", str(out)])[0] == code, argv
        assert out.read_bytes() == first, argv
