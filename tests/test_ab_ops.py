"""The interleaved A/B script (tests/ab_ops.py) runs end to end: one agm3
round of this checkout against itself, both package copies side by side."""

import re
import sys
from pathlib import Path

import ab_ops

ROOT = Path(__file__).resolve().parent.parent


def test_one_agm3_round_against_itself(capsys):
    assert ab_ops.main([str(ROOT), str(ROOT), "--workload", "agm3-rational",
                        "--rounds", "1"]) == 0
    line, *shapes = capsys.readouterr().out.splitlines()
    assert line.startswith("agm3-rational: 6 pairs, summed-time ratio ")
    assert "median per-operation ratio" in line
    # one line per distinct cycle shape, in cycle order, with its pair count
    parsed = [re.fullmatch(r"  shape (.+): (\d+) pairs, median ratio \d+\.\d{3}", s)
              for s in shapes]
    assert [(m[1], int(m[2])) for m in parsed] == [
        ("(3, 1)", 2), ("(4, 1)", 1), ("(3, 2)", 2), ("(4, 2)", 1)]
    assert not [k for k in sys.modules if k.startswith("geoinv_ab_")]  # dropped
