"""Covariance under linear frames: every part and form moves as a tensor.

An invariance row compares two sides built by the same code, so it cannot
see a non-tensorial slip that both sides make (a sum over two lower slots,
a delta used as a metric).  Here every field jet of an instance is moved to
the frame y with x = A y, for a random invertible integer matrix A: each
upper slot takes A^-1, each lower slot and the gradient slot take A, and the
connection moves as a tensor (A is constant, so no second-derivative term
enters).  The moved instance must still pass ``validate``, and every
``pair_invariants`` row, ``PARTS`` entry and Weyl-type form of each side
must equal its moved original, exactly.
"""

import random

import pytest

from geoinv import agm  # noqa: F401  adds the agm3 rule's parts to PARTS
from geoinv import invariants as inv, tensor_core as tc
from geoinv.cli import pair_invariants
from geoinv.jet import JetTensor
from geoinv.mappings import MappingInstance, NotApplicableError, generate, generate_agm3

FLAGS = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
# the 11 rule cases: 8 general flag patterns, geodesic, agm3 p = 1 and 2
CASES = ([("general", flags) for flags in FLAGS]
         + [("geodesic", (1, 0, 0)), ("agm3", 1), ("agm3", 2)])


def _instance(mapping, arg, dim, seed=0):
    if mapping == "agm3":
        return generate_agm3(dim, seed, arg, "rational")
    return generate(dim, seed, arg, mapping, "rational")


def _frame(dim, seed):
    """(A, A^-1) for a random invertible A with entries in [-3, 3]."""
    rng = random.Random(seed)
    while True:
        A = tc.Tensor(dim, (1, 1), [rng.randint(-3, 3) for _ in range(dim * dim)])
        solve = tc.solver(A)
        if solve is not None:
            return A, solve(tc.delta(dim))


def _move(t, frame):
    """t in the frame y: A^-1 on each upper slot, A on each lower slot."""
    A, Ainv = frame
    letters = tc._letters(t.rank, 0)
    for k, c in enumerate(letters):
        src = letters[:k] + "z" + letters[k + 1:]
        m, pair = (Ainv, c + "z") if k < t.p else (A, "z" + c)
        t = tc.ein(f"{pair},{src}->{letters}", t.valence, m, t)
    return t


def _moved_instance(ins, frame):
    fields = {name: JetTensor(_move(j.value, frame), _move(j.grad, frame))
              for name, j in ins.fields.items()}
    return MappingInstance(ins.dim, ins.mode, ins.flags, ins.mapping, fields,
                           p=ins.p, seed=ins.seed)


def _side_parts(fields):
    """{name: tensor, or None where it does not apply} over every
    ``PARTS`` entry and Weyl-type form of one side."""
    out = {}
    for name in [*inv.PARTS, *inv.weyl_tables(fields.dim)]:
        try:
            out[name] = inv.part(fields, name)
        except NotApplicableError:
            out[name] = None
    return out


def _mismatches(ins, frame):
    """(what, name) of every row or part of ins whose moved original differs
    from the moved instance's own; the moved instance must validate."""
    moved = _moved_instance(ins, frame)
    moved.validate()
    bad = []
    for (tag, _, s, t), (tag2, _, ms, mt) in zip(pair_invariants(ins),
                                                  pair_invariants(moved),
                                                  strict=True):
        assert tag == tag2
        bad += [("row", tag) for a, b in ((s, ms), (t, mt)) if _move(a, frame) != b]
    for side in ("source_fields", "target_fields"):
        before = _side_parts(getattr(ins, side)())
        after = _side_parts(getattr(moved, side)())
        for name, t in before.items():
            if (t if t is None else _move(t, frame)) != after[name]:
                bad.append((side, name))
    return bad


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("mapping, arg", CASES)
def test_rows_and_parts_move_as_tensors(mapping, arg, dim):
    ins = _instance(mapping, arg, dim)
    assert _mismatches(ins, _frame(dim, seed=dim)) == []


@pytest.mark.parametrize("dim", (2, 3))
def test_a_non_tensorial_part_is_caught(monkeypatch, dim):
    # theta_theta summed over a lower slot of Lsym, with its upper slot read
    # as a lower one: not a tensor, and the geodesic Weyl form carries it
    monkeypatch.setitem(inv.PARTS, "theta_theta",
                        lambda f, s: tc.ein("jmn->jm", (0, 2), s.Lsym.value))
    ins = _instance("geodesic", (1, 0, 0), dim)
    assert ("row", "geodesic-weyl") in _mismatches(ins, _frame(dim, seed=dim))
