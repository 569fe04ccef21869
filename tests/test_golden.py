"""Byte-for-byte ``--out`` snapshots of a fixed set of CLI commands.

Each file under ``tests/golden/`` is the recorded ``--out`` JSON of one
command.  Optimisations that reorder generators, equations or closure
rows must not move a byte: a changed witness weight, primitive,
isomorphism or duality verdict or character shows up here.  To refresh a snapshot
after an intended output change, run the command with
``--out tests/golden/<name>.json``.
"""
from pathlib import Path

import pytest

from superw.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "kac_m1_n2": ["kac", "-m", "1", "--n", "2"],
    "kac_m1_n4": ["kac", "-m", "1", "--n", "4"],
    "kac_m2_n4": ["kac", "-m", "2", "--n", "4"],
    "kac_l1_m1_n4": ["kac", "-l", "1", "-m", "1", "--n", "4"],
    "kac_minus_l1_m1_n4_D2": ["kac", "--kind", "minus", "-l", "1", "-m", "1",
                              "--n", "4", "-D", "2"],
    "tensorfield_l1_m1_n4_duality": ["tensorfield", "-l", "1", "-m", "1",
                                     "--n", "4", "--duality"],
    "tensorfield_l1_n3_duality": ["tensorfield", "-l", "1", "--n", "3",
                                  "--duality"],
    "tensorfield_l2_m1_n4_duality": ["tensorfield", "-l", "2", "-m", "1",
                                     "--n", "4", "--duality"],
    "stabilize_L-_l1_m1_n4_5": ["stabilize", "-l", "1", "-m", "1",
                                "--n-from", "4", "--n-to", "5",
                                "--object", "L-"],
    "stabilize_T_l1_n3_5": ["stabilize", "-l", "1", "--n-from", "3",
                            "--n-to", "5", "--object", "T"],
}


def test_every_snapshot_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_out_matches_the_snapshot(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    assert main(COMMANDS[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
