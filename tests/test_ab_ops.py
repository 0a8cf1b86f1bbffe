"""The interleaved A/B script (tests/ab_ops.py) runs end to end: one agm3
round of this checkout against itself, both package copies side by side."""

import sys
from pathlib import Path

import ab_ops

ROOT = Path(__file__).resolve().parent.parent


def test_one_agm3_round_against_itself(capsys):
    assert ab_ops.main([str(ROOT), str(ROOT), "--workload", "agm3-rational",
                        "--rounds", "1"]) == 0
    line = capsys.readouterr().out
    assert line.startswith("agm3-rational: 6 pairs, summed-time ratio ")
    assert "median per-operation ratio" in line
    assert not [k for k in sys.modules if k.startswith("geoinv_ab_")]  # dropped
