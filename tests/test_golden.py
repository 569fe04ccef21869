"""Byte-for-byte ``--out`` snapshots of a fixed set of CLI commands.

Each file under ``tests/golden/`` is the recorded ``--out`` JSON of one
command.  Optimisations that reorder generators, equations or closure
rows must not move a byte: a changed witness weight, primitive,
isomorphism or duality verdict, character, socle layer or suite verdict
shows up here (``suite --out`` carries no timings).  To refresh a snapshot
after an intended output change, run the command with
``--out tests/golden/<name>.json``.
"""
from pathlib import Path

import pytest

from superw.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "check_n6": ["check", "--n", "6"],
    "kac_n4": ["kac", "--n", "4"],
    "kac_m1_n2": ["kac", "-m", "1", "--n", "2"],
    "kac_m1_n4": ["kac", "-m", "1", "--n", "4"],
    "kac_m2_n4": ["kac", "-m", "2", "--n", "4"],
    "kac_l1_m1_n4": ["kac", "-l", "1", "-m", "1", "--n", "4"],
    "kac_l1_m1_n5": ["kac", "-l", "1", "-m", "1", "--n", "5"],
    "kac_minus_l1_m1_n4_D2": ["kac", "--kind", "minus", "-l", "1", "-m", "1",
                              "--n", "4", "-D", "2"],
    "kac_minus_l1_m1_n4_D3": ["kac", "--kind", "minus", "-l", "1", "-m", "1",
                              "--n", "4", "-D", "3"],
    "tensorfield_l1_m1_n4_duality": ["tensorfield", "-l", "1", "-m", "1",
                                     "--n", "4", "--duality"],
    "tensorfield_l1_n3_duality": ["tensorfield", "-l", "1", "--n", "3",
                                  "--duality"],
    "tensorfield_l2_m1_n4_duality": ["tensorfield", "-l", "2", "-m", "1",
                                     "--n", "4", "--duality"],
    "tensorfield_l2_n4": ["tensorfield", "-l", "2", "--n", "4"],
    "stabilize_L-_l1_m1_n4_5": ["stabilize", "-l", "1", "-m", "1",
                                "--n-from", "4", "--n-to", "5",
                                "--object", "L-"],
    "stabilize_L-_l1_m1_n4_6": ["stabilize", "-l", "1", "-m", "1",
                                "--n-from", "4", "--n-to", "6",
                                "--object", "L-"],
    "stabilize_T_l1_n3_5": ["stabilize", "-l", "1", "--n-from", "3",
                            "--n-to", "5", "--object", "T"],
    "socle_l21_m1_n5": ["socle", "-l", "2,1", "-m", "1", "--n", "5"],
    "socle_l11_m11_n4": ["socle", "-l", "1,1", "-m", "1,1", "--n", "4"],
    "socle_l3_m21_n7": ["socle", "-l", "3", "-m", "2,1", "--n", "7"],
    "socle_l22_m2_n6": ["socle", "-l", "2,2", "-m", "2", "--n", "6"],
    "suite": ["suite"],
}


def test_every_snapshot_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_out_matches_the_snapshot(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    assert main(COMMANDS[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
