"""The bit-identity sweep script (tests/bit_sweep.py) is deterministic.

No digest is pinned here: the script compares two checkouts, and a pinned
float digest would have to move with every deliberate float change.
"""

import ast
import hashlib

import bit_sweep


def test_sweep_digest_repeats():
    # one (count, digest) pair per mode, rational then float, each repeating
    first = bit_sweep.digest(dims=(2,), seeds=(0,))
    assert list(first) == ["rational", "float"]
    again = bit_sweep.digest(dims=(2,), seeds=(0,))
    for mode, (count, hexdigest) in first.items():
        assert count > 0
        assert again[mode] == (count, hexdigest), mode


def test_dump_holds_each_digested_record_on_one_line(tmp_path):
    # count lines per mode, and each line's record hashes back to the digest
    path = tmp_path / "records.txt"
    with open(path, "w") as dump:
        got = bit_sweep.digest(dims=(2,), seeds=(0,), dump=dump)
    lines = path.read_text().splitlines()
    assert len(lines) == sum(count for count, _ in got.values())
    for mode, (count, hexdigest) in got.items():
        records = [ast.literal_eval(line.removeprefix(mode + " "))
                   for line in lines if line.startswith(mode + " ")]
        assert len(records) == count, mode
        h = hashlib.sha256()
        for record in records:
            h.update(record.encode() + b"\0")
        assert h.hexdigest() == hexdigest, mode
