"""The bit-identity sweep script (tests/bit_sweep.py) is deterministic.

No digest is pinned here: the script compares two checkouts, and a pinned
float digest would have to move with every deliberate float change.
"""

import bit_sweep


def test_sweep_digest_repeats():
    first = bit_sweep.digest(dims=(2,), seeds=(0,))
    assert first[0] > 0
    assert bit_sweep.digest(dims=(2,), seeds=(0,)) == first
