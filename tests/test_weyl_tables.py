"""The Weyl-type coefficient tables against the written formulas.

``invariants.weyl_tables`` holds each Weyl-type form as rows over named
parts.  The references below write the same forms out as chains of
pairwise ``add``/``scale`` calls, with one delta block per core.  Their entries must match the table
sums to the bit (``repr`` of every entry, so a moved float rounding or a
flipped signed zero fails), in both modes, on both sides.
"""

import collections
import itertools
from fractions import Fraction

import pytest

from geoinv import invariants as inv, tensor_core as tc
from geoinv.cli import pair_invariants
from geoinv.mappings import generate, generate_agm3


def _add_scaled(a, c, b):
    return tc.add(a, tc.scale(b, c))


def _factored(f):
    N, mix = f.dim, tc.delta_mix
    bracket = tc.sub(mix(f.space.trace_cov_derivative()), mix(inv.rho(f)))
    out = _add_scaled(tc.add(f.space.R, inv.A_tensor(f)), Fraction(-1, N + 1),
                        bracket)
    return _add_scaled(out, Fraction(-1, (N + 1) ** 2), mix(inv.S_tilde(f)))


def _fourth(f):
    c, mix = Fraction(1, f.dim - 1), tc.delta_mix
    out = _add_scaled(tc.add(f.space.R, inv.A_tensor(f)), c,
                        mix(f.space.sym_ricci))
    return _add_scaled(out, c, mix(inv.A_trace(f)))


def _first_display(f):
    N, mix = f.dim, tc.delta_mix
    bracket = tc.sub(mix(f.space.trace_cov_derivative()), mix(inv.rho(f)))
    inner = _add_scaled(tc.scale(bracket, N + 1), 1, mix(inv.A_trace(f)))
    return tc.add(_add_scaled(f.space.R, Fraction(-1, (N + 1) ** 2), inner),
                  inv.A_tensor(f))


def _first_over(f):
    N = f.dim
    corr = _add_scaled(tc.scale(inv.rho_skew(f), Fraction(1, N + 1)),
                         Fraction(-1, N * (N + 1)), f.space.skew_ricci)
    return tc.add(_factored(f), tc.delta_outer(corr))


def _geodesic_weyl(space):
    N, th = space.dim, space.theta.value
    sp = space.special_trace_derivative()
    out = _add_scaled(space.R, Fraction(1, N + 1),
                        tc.delta_outer(tc.alternate(sp, 0, 1)))
    inner = tc.add(tc.scale(space.trace_cov_derivative(), N + 1),
                   tc.ein("j,n->jn", (0, 2), th, th))
    return _add_scaled(out, Fraction(-1, (N + 1) ** 2), tc.delta_mix(inner))


def _projective(space):
    N = space.dim
    out = _add_scaled(space.R, Fraction(1, N + 1), tc.delta_outer(space.skew_ricci))
    out = _add_scaled(out, Fraction(N, N * N - 1), tc.delta_mix(space.ricci))
    return _add_scaled(out, Fraction(1, N * N - 1),
                         tc.delta_mix(tc.transpose_pair(space.ricci, 0, 1)))


FIELD_FORMS = {"weyl_factored": _factored, "weyl_fourth": _fourth,
               "weyl_first_display": _first_display, "weyl_first_over": _first_over}
SPACE_FORMS = {"geodesic_weyl": _geodesic_weyl, "weyl_projective": _projective}
FLAGS = list(itertools.product((0, 1), repeat=3))


def _bits(t):
    return t.valence, [repr(x) for x in t.data]


def _instances(dim, mode):
    for seed, flags in itertools.product((0, 1, 2), FLAGS):
        yield generate(dim, seed, flags, "general", mode)
    if dim <= 4:
        for seed, p in itertools.product((0, 1, 2), (1, 2)):
            yield generate_agm3(dim, seed, p, mode)


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_tables_equal_the_written_formulas_bit_for_bit(dim, mode):
    for ins in _instances(dim, mode):
        for fl in (ins.source_fields(), ins.target_fields()):
            for form, written in FIELD_FORMS.items():
                key = (ins.mapping, ins.seed, ins.flags, ins.p, form)
                assert _bits(inv.part(fl, form)) == _bits(written(fl)), key
    for seed in (0, 1, 2):
        ins = generate(dim, seed, (1, 1, 1), "geodesic", mode)
        for sp in (ins.source_fields().space, ins.target_fields().space):
            for form, written in SPACE_FORMS.items():
                assert _bits(inv.part(sp, form)) == _bits(written(sp)), (seed, form)


def _spy_blocks(monkeypatch):
    counts = collections.Counter()
    for kind in ("delta_mix", "delta_outer"):
        def spy(Y, kind=kind, real=getattr(tc, kind)):
            counts[kind] += 1
            return real(Y)
        monkeypatch.setattr(tc, kind, spy)
    return counts


def test_pair_invariants_build_four_mix_and_one_outer_block_per_side(monkeypatch):
    # the factored form's theta and rho blocks are one block of theta - rho
    counts = _spy_blocks(monkeypatch)
    for dim, seed in ((3, 0), (4, 1)):
        counts.clear()
        pair_invariants(generate(dim, seed, (1, 1, 1), "general", "rational"))
        assert counts == {"delta_mix": 2 * 4, "delta_outer": 2 * 1}, (dim, seed)


def _block_rows(tables, form):
    """The block rows of a form's table, with those of the forms it reads."""
    return sum(1 if isinstance(name, tuple) else
               _block_rows(tables, name) if name in tables else 0
               for _, name in tables[form])


def test_each_table_form_builds_one_block_per_block_row(monkeypatch):
    counts = _spy_blocks(monkeypatch)
    tables = inv.weyl_tables(3)
    for form in tables:
        mapping = "geodesic" if form in SPACE_FORMS else "general"
        fl = generate(3, 0, (1, 1, 1), mapping, "rational").source_fields()
        side = fl.space if form in SPACE_FORMS else fl
        counts.clear()
        inv.part(side, form)
        assert sum(counts.values()) == _block_rows(tables, form) > 0, form
        inv.part(side, form)
        assert sum(counts.values()) == _block_rows(tables, form), form


DECOMPOSED = ("weyl_factored", "weyl_fourth", "weyl_first_display")


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_decomposition_reproduces_its_form(dim):
    # R + delta_mix(Y) + Z, read off the table, is the form itself, and the
    # sum of the form's blocks is the block of Y
    for flags in FLAGS:
        ins = generate(dim, 0, flags, "general", "rational")
        for fl in (ins.source_fields(), ins.target_fields()):
            for form in DECOMPOSED:
                dec = inv.decompose(fl, form)
                assert tc.add(fl.space.R, dec.total) == inv.part(fl, form), (flags, form)
                assert dec.mix_Y == tc.delta_mix(dec.Y), (flags, form)
    for form in inv.weyl_tables(dim).keys() - set(DECOMPOSED):
        with pytest.raises(inv.DecompositionError, match=form):
            inv.decompose(fl, form)
