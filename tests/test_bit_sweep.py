"""The bit-identity sweep script (tests/bit_sweep.py) is deterministic.

No digest is pinned here: the script compares two checkouts, and a pinned
float digest would have to move with every deliberate float change.
"""

import bit_sweep


def test_sweep_digest_repeats():
    # one (count, digest) pair per mode, rational then float, each repeating
    first = bit_sweep.digest(dims=(2,), seeds=(0,))
    assert list(first) == ["rational", "float"]
    again = bit_sweep.digest(dims=(2,), seeds=(0,))
    for mode, (count, hexdigest) in first.items():
        assert count > 0
        assert again[mode] == (count, hexdigest), mode
