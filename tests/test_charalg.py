"""Characters: Weyl/Freudenthal, Euler characteristics, graded algebras,
filtration decompositions and the reduction identities."""

import inspect
import itertools
import math
import operator
import os
import random
import subprocess
import sys
import types

import pytest

import flagsplit
from flagsplit import charalg, verify
from flagsplit.charalg import (
    Character,
    decompose_good_filtration,
    euler_char,
    exterior_power_char,
    g1_cohomology_char,
    graded_section_char,
    koszul_check,
    module_euler,
    sym_power_char,
    sym_power_graded,
    truncated_char,
    weyl_character,
    weyl_dimension,
)
from flagsplit.errors import InputError, InvariantError, ResourceLimitError
from flagsplit.rootdata import RootSystem, _Packing, build_root_system, parabolic_subset
from flagsplit.verify import RunConfig, _run, suite_charalg

from oracles import (
    brute_exterior_power,
    brute_sym_power,
    euler_by_weyl_search,
    expand_by_freudenthal,
    freudenthal_by_dominant_lookup,
    freudenthal_table_by_tuples,
    greedy_peel,
    is_weyl_invariant_by_group,
    koszul_by_expansion,
    kostant_multiplicity,
    sym_power_by_series,
    truncated_char_by_steinberg,
    truncated_char_by_zip,
)
from test_rootdata import E_WEIGHTS, OTHER_WEYL_WEIGHTS, VALID_TYPES

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
C2 = build_root_system("C", 2)
G2 = build_root_system("G", 2)


# -- Weyl characters ---------------------------------------------------------

def test_weyl_character_a1():
    ch = weyl_character(A1, (3,))
    assert dict(ch.items()) == {(-3,): 1, (-1,): 1, (1,): 1, (3,): 1}
    assert ch.dimension() == 4 == weyl_dimension(A1, (3,))


def test_weyl_character_trivial():
    for rs in (A1, A2, B2, G2):
        ch = weyl_character(rs, (0,) * rs.rank)
        assert dict(ch.items()) == {(0,) * rs.rank: 1}


def test_weyl_character_a2_adjoint():
    ch = weyl_character(A2, (1, 1))
    assert ch.dimension() == 8
    assert ch.multiplicity((0, 0)) == 2
    roots = {r.fund for r in A2.positive_roots}
    for b in roots:
        assert ch.multiplicity(b) == 1
        assert ch.multiplicity(tuple(-c for c in b)) == 1


def test_weyl_character_b2_frozen():
    # multiplicities frozen from the Kostant alternating-sum oracle
    ch = weyl_character(B2, (1, 1))
    assert ch.dimension() == 16
    assert dict(ch.items()) == {
        (-2, 1): 1, (-2, 3): 1, (-1, -1): 1, (-1, 1): 2, (-1, 3): 1,
        (0, -1): 2, (0, 1): 2, (1, -3): 1, (1, -1): 2, (1, 1): 1,
        (2, -3): 1, (2, -1): 1,
    }


def test_weyl_character_g2_seven_dim():
    ch = weyl_character(G2, (0, 1))
    assert ch.dimension() == 7
    assert dict(ch.items()) == {
        (-1, 1): 1, (-1, 2): 1, (0, -1): 1, (0, 0): 1, (0, 1): 1,
        (1, -2): 1, (1, -1): 1,
    }


@pytest.mark.parametrize(
    "rs,lam",
    [
        (A2, (2, 1)),
        (A2, (2, 2)),
        (B2, (0, 2)),
        (B2, (2, 0)),
        (G2, (1, 0)),
        (G2, (1, 1)),
        (build_root_system("A", 3), (1, 1, 1)),
        (build_root_system("B", 3), (1, 0, 1)),
        (build_root_system("C", 3), (1, 1, 0)),
        (build_root_system("D", 4), (0, 1, 0, 0)),
    ],
)
def test_weyl_character_matches_kostant_oracle(rs, lam):
    ch = weyl_character(rs, lam)
    assert ch.dimension() == weyl_dimension(rs, lam)
    for w, m in ch.items():
        assert kostant_multiplicity(rs, lam, w) == m
    # and a few absent weights really have multiplicity zero
    rng = random.Random(1)
    for _ in range(10):
        w = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        assert ch.multiplicity(w) == kostant_multiplicity(rs, lam, w)


@pytest.mark.parametrize("label, rank", VALID_TYPES, ids=[f"{x}{n}" for x, n in VALID_TYPES])
def test_weyl_character_matches_tuple_table(label, rank):
    # the packed table against the tuple table it replaced, on seeded
    # dominant weights of dimension at most 4000, and the trivial one
    rs = build_root_system(label, rank)
    rng = random.Random(f"tuple table {label}{rank}")
    drawn = [(0,) * rank]
    for _ in range(1000):
        lam = [0] * rank
        for _ in range(rng.randint(1, 3)):
            lam[rng.randrange(rank)] += rng.randint(1, 3)
        lam = tuple(lam)
        if lam not in drawn and weyl_dimension(rs, lam) <= 4000:
            drawn.append(lam)
            if len(drawn) == 4:
                break
    assert len(drawn) >= 3, drawn
    for lam in drawn:
        ch = weyl_character(rs, lam)
        assert ch.mults == freudenthal_table_by_tuples(rs, lam), (rs, lam)
        assert dict(ch.items()) == ch.mults


@pytest.mark.parametrize("rs, lam", [(A1, (300,)), (A1, (255,)), (A2, (200, 3)), (A2, (3, 200)),
                                     (G2, (21, 0)), (G2, (0, 7)), (B2, (60, 1))],
                         ids=lambda x: f"{x.type_label}{x.rank}" if isinstance(x, RootSystem)
                         else ",".join(map(str, x)))
def test_weyl_character_matches_tuple_table_in_wide_fields(rs, lam):
    # fields wider than 7 bits, and G2, whose roots have coordinates +-3;
    # (0, 7) on G2 takes 7-bit fields
    ch = weyl_character(rs, lam)
    assert ch.packing.mask >= 255 or lam == (0, 7)
    assert ch.mults == freudenthal_table_by_tuples(rs, lam)
    assert list(ch.items()) == sorted(ch.mults.items())


def test_multiplicity_outside_the_fields_is_zero():
    # a weight past the layout's bound names no weight, whichever key it
    # would pack to: in fields of width bits (0, 2^width) carries into the
    # first field and packs to the key of (1, 0)
    ch = weyl_character(A2, (1, 0))
    bias = ch.packing.bias
    width = ch.packing.mask.bit_length()
    assert ch.packing.pack((0, 1 << width)) == ch.packing.pack((1, 0))
    for w in ((bias + 1, 0), (-bias - 1, 0), (0, 1 << width), (1 << width, -(1 << width)),
              (1, 0, 0), (1,)):
        assert ch.multiplicity(w) == 0 and w not in ch.mults, w
    assert ch.multiplicity((1, 0)) == 1 and ch.mults[(1, 0)] == 1
    with pytest.raises(KeyError):
        ch.mults[(2 * bias + 1, 0)]


def test_character_equality_across_layouts():
    # one character built by different routes, in different layouts, is equal
    # and adds, subtracts and shifts the same way
    lam = (2, 1)
    packed = weyl_character(A2, lam)
    from_dict = Character(A2, dict(packed.items()))
    expanded = charalg._expand(A2, {lam: 1}, charalg.DEFAULT_DIM_CAP, charalg.DEFAULT_TERM_CAP)
    shifted = packed.shift((40, -40)).shift((-40, 40))
    layouts = {(c.packing.bias, c.packing.mask) for c in (packed, from_dict, expanded, shifted)}
    # four biases in more than one field width: equality meets both kinds of move
    assert len(layouts) == 4 and len({mask for _, mask in layouts}) > 1
    assert packed == from_dict == expanded == shifted
    assert packed + expanded == 2 * from_dict and not shifted - packed
    assert (packed + Character(A2, {(500, 0): 1})).multiplicity((500, 0)) == 1
    assert packed != packed + Character(A2, {(500, 0): 1}) != packed


def _assert_matches_lookup_oracle(rs, lam):
    expected = {
        w: m for mu, m in freudenthal_by_dominant_lookup(rs, lam).items()
        for w in rs.weyl_orbit(mu)
    }
    assert weyl_character(rs, lam).mults == expected, (rs, lam)


@pytest.mark.parametrize("case", E_WEIGHTS + OTHER_WEYL_WEIGHTS,
                         ids=lambda c: f"{c[0]}{c[1]}-{''.join(map(str, c[2]))}")
def test_weyl_character_matches_lookup_oracle_benchmark_weights(case):
    # the `char weyl` highest weights of the benchmark, E7 and E8 included
    type_label, rank, lam = case
    _assert_matches_lookup_oracle(build_root_system(type_label, rank), lam)


@pytest.mark.parametrize("rs", [B2, C2, G2], ids=["B2", "C2", "G2"])
def test_weyl_character_matches_lookup_oracle_graded_sections(rs):
    # every nu with a Weyl-basis coefficient in a graded section of the
    # sweep at (2,2), so every Weyl character that section sums
    graded = sym_power_graded(parabolic_subset(rs), 3 if rs.type_label == "G" else 5)
    reached = {nu for _, sym in graded.pieces
               for nu in charalg._weyl_coefficients(rs, sym.shift((2, 2)).mults)}
    assert len(reached) > 10
    for nu in sorted(reached):
        _assert_matches_lookup_oracle(rs, nu)


def test_weyl_character_invariance():
    for rs in (A2, B2, G2):
        assert is_weyl_invariant_by_group(rs, weyl_character(rs, (1, 1)))


def _one_check(monkeypatch, name, cfg=RunConfig()):
    # verify charalg with every check but the one named left out
    monkeypatch.setattr(verify, "_run", lambda checks, n, fn: n == name and _run(checks, n, fn))
    [check] = suite_charalg(cfg)
    return check


def _invariance_check(monkeypatch, change=lambda rs, lam, ch: ch):
    # verify charalg's W-invariance check alone, each character it builds
    # passed through change; returns the check and the characters it read
    seen = []

    def built(rs, lam, dim_cap=charalg.DEFAULT_DIM_CAP):
        seen.append((rs, lam, change(rs, lam, weyl_character(rs, lam, dim_cap=dim_cap))))
        return seen[-1][2]

    monkeypatch.setattr(charalg, "weyl_character", built)
    return _one_check(monkeypatch, "charalg.weyl_character_invariant"), seen


def _alterations(ch):
    # for the least nonzero weight, and for each i the least nonzero weight
    # that s_i fixes: its multiplicity changed, then the weight removed; last,
    # the zero weight's multiplicity changed, which keeps W-invariance
    mults = dict(ch.items())
    zero = (0,) * ch.rs.rank
    nonzero = [w for w in mults if w != zero]
    picks = {min(nonzero, default=None)}
    picks |= {min((w for w in nonzero if w[i] == 0), default=None) for i in range(ch.rs.rank)}
    out = []
    for w in sorted(picks - {None}):
        out += [{**mults, w: mults[w] + 1}, {v: m for v, m in mults.items() if v != w}]
    if zero in mults:
        out.append({**mults, zero: mults[zero] + 1})
    return [Character(ch.rs, m) for m in out]


@pytest.mark.parametrize("name", ["A2", "B3", "G2"])
@pytest.mark.parametrize("kind", [0, 1], ids=["changed", "removed"])
def test_verify_weyl_invariance_fails_on_a_changed_weight(monkeypatch, name, kind):
    target = build_root_system(name[0], int(name[1:]))
    lam = (1,) * target.rank

    def change(rs, mu, ch):
        return _alterations(ch)[kind] if (rs, mu) == (target, lam) else ch

    check, _ = _invariance_check(monkeypatch, change)
    assert (check.status, check.detail) == ("fail", f"{target}: character of {lam} not W-invariant")


def test_verify_weyl_invariance_agrees_with_the_whole_group(monkeypatch):
    # on every character the check reads, as built and with each alteration,
    # its verdict under the simple reflections is the whole group's
    check, built = _invariance_check(monkeypatch)
    assert check.status == "pass" and len(built) == 21
    assert all(is_weyl_invariant_by_group(rs, ch) for rs, _, ch in built)
    verdicts = []
    for target, lam, ch in built:
        for altered in _alterations(ch):
            check, _ = _invariance_check(
                monkeypatch, lambda rs, mu, c: altered if (rs, mu) == (target, lam) else c)
            verdicts.append(is_weyl_invariant_by_group(target, altered))
            assert (check.status == "pass") == verdicts[-1], (target, lam, dict(altered.items()))
    # the alterations reach both verdicts: a zero weight changed stays invariant
    assert True in verdicts and False in verdicts


def test_verify_weyl_invariance_reads_no_order_cap(monkeypatch):
    # the old whole-group loop was refused at a cap below the group order
    check = _one_check(monkeypatch, "charalg.weyl_character_invariant", RunConfig(weyl_order_cap=1))
    assert (check.status, check.detail) == ("pass", "")


def test_weyl_character_guards():
    with pytest.raises(InputError):
        weyl_character(A2, (-1, 0))
    with pytest.raises(ResourceLimitError):
        weyl_character(A2, (40, 40), dim_cap=100)


# -- Euler characteristics ----------------------------------------------------

def test_euler_singular_and_reflection():
    assert not euler_char(A1, (-1,))
    assert euler_char(A1, (-5,)) == -weyl_character(A1, (3,))
    assert euler_char(A1, (2,)) == weyl_character(A1, (2,))
    # rho-singular weight in A2
    assert not euler_char(A2, (-2, 0))


def test_euler_dot_antisymmetry():
    rng = random.Random(5)
    for rs in (A1, A2, B2, G2):
        for _ in range(25):
            lam = tuple(rng.randint(-5, 4) for _ in range(rs.rank))
            i = rng.randint(1, rs.rank)
            assert euler_char(rs, rs.dot_action([i], lam)) == -euler_char(rs, lam)


def test_module_euler_examples():
    whole = parabolic_subset(A2)
    triv = Character(A2, {(0, 0): 1})
    assert module_euler(A2, triv, (-5, 1)) == euler_char(A2, (-5, 1))
    # chi(alpha1) = chi(alpha2) = 0, chi(alpha1+alpha2) = chi((1,1))
    ch = module_euler(A2, sym_power_char(whole, 1), (0, 0))
    assert ch == weyl_character(A2, (1, 1))
    assert ch.dimension() == 8
    # rank 1: S^n has the single weight 2n
    whole1 = parabolic_subset(A1)
    for n in range(5):
        assert module_euler(A1, sym_power_char(whole1, n), (0,)) == weyl_character(A1, (2 * n,))


def test_module_euler_matches_weyl_group_search():
    # random modules, so contributions of different weights cancel
    rng = random.Random(31)
    for rs in (A1, A2, B2, C2, G2):
        for _ in range(10):
            module = Character(rs, {
                tuple(rng.randint(-4, 3) for _ in range(rs.rank)): rng.randint(-2, 3)
                for _ in range(rng.randint(1, 5))
            })
            lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            assert module_euler(rs, module, lam) == euler_by_weyl_search(rs, module, lam)


def test_euler_char_matches_module_euler():
    # seeded weights in A1 to C3: singular ones give zero, and both signs occur
    rng = random.Random(37)
    signs = {-1: 0, 0: 0, 1: 0}
    for rs in (A1, A2, B2, C2, G2, *(build_root_system(t, 3) for t in "ABC")):
        for _ in range(30):
            lam = tuple(rng.randint(-6, 4) for _ in range(rs.rank))
            ch = euler_char(rs, lam)
            assert ch == module_euler(rs, Character(rs, {(0,) * rs.rank: 1}), lam), (rs, lam)
            dim = ch.dimension()
            signs[(dim > 0) - (dim < 0)] += 1
    assert all(signs.values()), signs


def test_euler_char_reads_one_weyl_character(monkeypatch):
    calls = []
    weyl = charalg.weyl_character

    def record(rs, lam, dim_cap):
        calls.append(lam)
        return weyl(rs, lam, dim_cap=dim_cap)

    def refuse(*args, **kwargs):
        raise AssertionError("euler_char expanded a sum")

    monkeypatch.setattr(charalg, "weyl_character", record)
    monkeypatch.setattr(charalg, "_expand", refuse)
    assert euler_char(A2, (-4, 1)) == weyl(A2, (1, 0))   # two dot-reflections
    assert euler_char(A2, (-2, 3)) == -weyl(A2, (0, 2))   # one
    assert not euler_char(A2, (-2, 0))
    assert calls == [(1, 0), (0, 2)]
    with pytest.raises(ResourceLimitError, match="Weyl dimension 120 exceeds cap 100$"):
        euler_char(A2, (-13, 9), dim_cap=100)


# -- expansion of Weyl-basis sums --------------------------------------------------

def _section_coefficients(rs, lam, n_max):
    # the Weyl-basis coefficients of each degree of the Borel graded sections
    graded = sym_power_graded(parabolic_subset(rs), n_max)
    return [charalg._weyl_coefficients(rs, sym.shift(lam).mults) for _, sym in graded.pieces]


def _expansion_cases():
    rank2 = [(rs, lam, 3 if rs.type_label == "G" else 5) for rs in (A1, A2, B2, C2, G2)
             for lam in itertools.product(range(-1, 3), repeat=rs.rank) if rs.in_cone_c(lam)]
    assert len(rank2) == 59
    rank3 = [(build_root_system(t, 3), lam, n_max) for t, n_max in (("A", 4), ("B", 3), ("C", 3))
             for lam in itertools.product((0, 1), repeat=3)]
    # criterion 11: g1 at lam = (1, ..., 1) reads degrees up to 3 on A1 and A2
    g1 = [(rs, (1,) * rs.rank, 3) for rs in (A1, A2)]
    d4 = [(build_root_system("D", 4), (1, 1, 1, 1), 2)]
    return rank2 + rank3 + g1 + d4


@pytest.mark.parametrize(
    "case", _expansion_cases(),
    ids=lambda c: f"{c[0].type_label}{c[0].rank}-{','.join(map(str, c[1]))}-d{c[2]}")
def test_expand_matches_freudenthal_oracle_on_sections(case):
    rs, lam, n_max = case
    for coeffs in _section_coefficients(rs, lam, n_max):
        assert charalg._expand(rs, coeffs, charalg.DEFAULT_DIM_CAP, charalg.DEFAULT_TERM_CAP) \
            == expand_by_freudenthal(rs, coeffs), (coeffs, case)


def test_expand_matches_freudenthal_oracle_on_signed_sums():
    # seeded signed coefficients: k ch(nu) - k ch(nu - beta) for a positive
    # root beta, plus a few more, so Weyl characters cancel weight by weight
    rng = random.Random(41)
    cancelled = 0
    for rs in (A1, A2, B2, C2, G2, *(build_root_system(t, 3) for t in "ABC")):
        top = 3 if rs.rank <= 2 else 2
        for _ in range(20):
            nu = tuple(rng.randint(0, top) for _ in range(rs.rank))
            below = [mu for mu in (tuple(map(operator.sub, nu, r.fund)) for r in rs.positive_roots)
                     if min(mu) >= 0] or [(0,) * rs.rank]
            k = rng.randint(1, 3)
            coeffs = {nu: k}
            coeffs[rng.choice(below)] = -k
            for _ in range(rng.randint(0, 3)):
                extra = tuple(rng.randint(0, top) for _ in range(rs.rank))
                coeffs[extra] = rng.choice((-2, -1, 1, 2))
            got = charalg._expand(rs, coeffs, charalg.DEFAULT_DIM_CAP, charalg.DEFAULT_TERM_CAP)
            assert got == expand_by_freudenthal(rs, coeffs), (rs, coeffs)
            assert list(got.items()) == sorted(got.mults.items())   # key order is weight order
            support = set().union(*(weyl_character(rs, nu).mults for nu in coeffs))
            cancelled += len(got.mults) < len(support)
    assert cancelled > 40


def test_expand_caps():
    # the support of every step stays within the final one here, so the
    # final support is the least term cap that passes
    for coeffs in _section_coefficients(C2, (2, 2), 5):
        size = len(charalg._expand(C2, coeffs, 10**6, 10**6).mults)
        assert len(charalg._expand(C2, coeffs, 10**6, size).mults) == size
        with pytest.raises(ResourceLimitError,
                           match=f"module Euler characteristic exceeds term cap {size - 1}$"):
            charalg._expand(C2, coeffs, 10**6, size - 1)
    # the dimension cap is checked on every nu first, in sorted order
    with pytest.raises(ResourceLimitError, match="Weyl dimension 27 exceeds cap 20$"):
        charalg._expand(A2, {(0, 0): 1, (2, 2): 1, (3, 3): -1}, 20, 1)


def test_expand_checks_the_dimension(monkeypatch):
    # a word one letter short of w0 gives the Demazure character of a
    # smaller module, which only the dimension check sees (also under -O)
    word = charalg._w0_word
    monkeypatch.setattr(charalg, "_w0_word", lambda rs: word(rs)[:-1])
    with pytest.raises(InvariantError,
                       match="Demazure expansion gives dimension 5, Weyl's formula 8$"):
        module_euler(A2, sym_power_char(parabolic_subset(A2), 1), (0, 0))


# -- symmetric, exterior, truncated -------------------------------------------

def test_sym_power_examples():
    whole1 = parabolic_subset(A1)
    for n in range(6):
        assert dict(sym_power_char(whole1, n).items()) == {(2 * n,): 1}
    whole2 = parabolic_subset(A2)
    assert dict(sym_power_char(whole2, 0).items()) == {(0, 0): 1}
    assert dict(sym_power_char(whole2, 1).items()) == {
        (2, -1): 1, (-1, 2): 1, (1, 1): 1,
    }


@pytest.mark.parametrize("rs", [A2, B2, G2])
@pytest.mark.parametrize("subset", [(), (1,), (2,)])
def test_sym_power_matches_enumeration(rs, subset):
    par = parabolic_subset(rs, subset)
    graded = sym_power_graded(par, 4)
    for n in range(5):
        expected = brute_sym_power(list(par.radical_weights), n)
        assert dict(graded.piece(n).items()) == dict(sorted(expected.items()))


def test_sym_power_matches_series_product():
    # the recurrence for 1/(1 - q e^alpha) on packed weights against the
    # series product on weight tuples, every degree table compared
    for name in "A1 A2 A3 A4 B2 B3 B4 C2 C3 C4 D3 D4 G2 F4 E6".split():
        rs = build_root_system(name[0], int(name[1]))
        n_max = 3 if rs.type_label == "E" else 5
        for subset in [()] + [(i,) for i in range(1, rs.rank + 1)]:
            par = parabolic_subset(rs, subset)
            assert sym_power_graded(par, n_max) == sym_power_by_series(par, n_max), (rs, subset)


def test_sym_power_char_is_the_graded_piece():
    # sym_power_char decodes only its own degree's table: every degree of
    # the graded character, on the systems above
    for name in "A1 A2 A3 A4 B2 B3 B4 C2 C3 C4 D3 D4 G2 F4 E6".split():
        rs = build_root_system(name[0], int(name[1]))
        n_max = 3 if rs.type_label == "E" else 5
        for subset in [()] + [(i,) for i in range(1, rs.rank + 1)]:
            par = parabolic_subset(rs, subset)
            graded = sym_power_graded(par, n_max)
            for n in range(n_max + 1):
                assert sym_power_char(par, n) == graded.piece(n), (rs, subset, n)


def test_sym_power_full_levi():
    # taking the whole simple set leaves an empty nilradical
    par = parabolic_subset(A2, [1, 2])
    assert dict(sym_power_char(par, 0).items()) == {(0, 0): 1}
    assert not sym_power_char(par, 2)


def test_exterior_power_examples():
    assert dict(exterior_power_char(A2, 0).items()) == {(0, 0): 1}
    assert dict(exterior_power_char(A2, 1).items()) == {
        (-2, 1): 1, (1, -2): 1, (-1, -1): 1,
    }
    n = A2.num_positive_roots
    assert dict(exterior_power_char(A2, n).items()) == {(-2, -2): 1}
    with pytest.raises(InputError):
        exterior_power_char(A2, n + 1)


@pytest.mark.parametrize("rs", [A2, B2, G2, build_root_system("D", 4)])
def test_exterior_power_matches_enumeration(rs):
    for j in range(rs.num_positive_roots + 1):
        expected = brute_exterior_power(list(rs.negative_roots), j)
        assert dict(exterior_power_char(rs, j).items()) == dict(sorted(expected.items()))


def test_exterior_power_f4():
    F4 = build_root_system("F", 4)
    for j in range(4):
        expected = brute_exterior_power(list(F4.negative_roots), j)
        assert dict(exterior_power_char(F4, j).items()) == dict(sorted(expected.items()))
    middle = exterior_power_char(F4, 12)
    assert middle.dimension() == math.comb(24, 12) == 2_704_156
    assert middle.term_count() == 7_523
    assert list(middle.items()) == sorted(middle.mults.items())   # key order is weight order


def test_truncated_char():
    ch = truncated_char(A1, 3)
    assert dict(ch.items()) == {(0,): 1, (2,): 1, (4,): 1}
    for rs in (A1, A2, B2, G2, build_root_system("A", 3), build_root_system("B", 3)):
        for p in (2, 3):
            ch = truncated_char(rs, p)
            assert ch.dimension() == p**rs.num_positive_roots
            top = tuple(2 * (p - 1) for _ in range(rs.rank))
            assert ch.multiplicity(top) == 1
            assert all(rs.dominance_leq(w, top) for w in ch.mults)
    with pytest.raises(InputError):
        truncated_char(A1, 4)


_TRUNCATED_CASES = [
    (A1, 3), (A2, 5), (B2, 7), (G2, 7), *((build_root_system(t, 3), 5) for t in "ABC"),
    (build_root_system("D", 4), 3), (build_root_system("F", 4), 2),
    (build_root_system("B", 4), 3), (build_root_system("C", 4), 3),
    (build_root_system("A", 5), 2), (build_root_system("D", 5), 2),
]


def _truncated_id(x):
    return f"{x.type_label}{x.rank}" if isinstance(x, RootSystem) else f"p{x}"


@pytest.mark.parametrize("rs, p", [(G2, 5), *_TRUNCATED_CASES], ids=_truncated_id)
def test_truncated_char_matches_zip_oracle(rs, p):
    ch = truncated_char(rs, p)
    assert ch.mults == truncated_char_by_zip(rs, p)
    assert ch.dimension() == p**rs.num_positive_roots
    assert list(ch.items()) == sorted(ch.mults.items())   # key order is weight order


@pytest.mark.parametrize("rs, p", _TRUNCATED_CASES, ids=_truncated_id)
def test_truncated_char_matches_steinberg_oracle(rs, p):
    # the product over roots against Freudenthal's Steinberg character at
    # (p-1) rho, shifted: the two share no code
    assert truncated_char(rs, p).mults == truncated_char_by_steinberg(rs, p)


def _prefix(rs, roots):
    # the rank and first positive roots of rs, as the zip oracle reads them
    return types.SimpleNamespace(rank=rs.rank, positive_roots=roots)


@pytest.mark.parametrize("rs, p", [(A2, 5), (B2, 3), (G2, 3), (build_root_system("A", 3), 2)],
                         ids=_truncated_id)
def test_truncated_char_term_cap(rs, p):
    # the largest support after any root, read from the zip oracle over the
    # roots so far, is the least term cap that passes
    roots = rs.positive_roots
    largest = max(len(truncated_char_by_zip(_prefix(rs, roots[:i]), p))
                  for i in range(1, len(roots) + 1))
    assert truncated_char(rs, p, term_cap=largest).mults == truncated_char_by_zip(rs, p)
    with pytest.raises(ResourceLimitError,
                       match=f"^truncated algebra exceeds term cap {largest - 1}$"):
        truncated_char(rs, p, term_cap=largest - 1)


@pytest.mark.parametrize("rs, j", [(A2, 2), (B2, 2), (G2, 3), (build_root_system("A", 3), 3)],
                         ids=lambda x: x.type_label + str(x.rank) if isinstance(x, RootSystem)
                         else f"j{x}")
def test_exterior_power_term_cap(rs, j):
    # every degree up to j is stored after every root; the largest such
    # support, read from the brute oracle, is the least term cap that passes
    roots = list(rs.negative_roots)
    largest = max(len(brute_exterior_power(roots[:i], d))
                  for i in range(1, len(roots) + 1) for d in range(1, j + 1))
    expected = brute_exterior_power(roots, j)
    assert exterior_power_char(rs, j, term_cap=largest).mults == expected
    with pytest.raises(ResourceLimitError,
                       match=f"^exterior power exceeds term cap {largest - 1}$"):
        exterior_power_char(rs, j, term_cap=largest - 1)


@pytest.mark.parametrize("rs, n", [(A2, 3), (B2, 3), (G2, 3), (build_root_system("A", 3), 3)],
                         ids=lambda x: x.type_label + str(x.rank) if isinstance(x, RootSystem)
                         else f"n{x}")
def test_sym_power_term_cap(rs, n):
    # every degree up to n is stored after every root; the largest such
    # support, read from the brute oracle, is the least term cap that passes
    roots = [r.fund for r in rs.positive_roots]
    largest = max(len(brute_sym_power(roots[:i], d))
                  for i in range(1, len(roots) + 1) for d in range(1, n + 1))
    assert n < largest   # so the refusal below comes from a table, not the degree
    expected = brute_sym_power(roots, n)
    assert sym_power_char(parabolic_subset(rs), n, term_cap=largest).mults == expected
    with pytest.raises(ResourceLimitError,
                       match=f"^symmetric power exceeds term cap {largest - 1}$"):
        sym_power_char(parabolic_subset(rs), n, term_cap=largest - 1)


# -- packed weights -------------------------------------------------------------

def test_packing_orders_like_weights():
    # weights with coordinates at +-bound and between: packed ints sort and
    # decode, a column or a key at a time, as the weight tuples sort
    rng = random.Random(24)
    for rank, bound in ((1, 1), (2, 3), (3, 8), (4, 16), (6, 5), (8, 40), (2, 300)):
        packing = _Packing(rank, bound)
        weights = {tuple(rng.choice((-bound, bound, rng.randint(-bound, bound)))
                         for _ in range(rank)) for _ in range(300)}
        packed = {packing.pack(w): m for m, w in enumerate(weights, 1)}
        assert len(packed) == len(weights)
        keys = sorted(packed)
        assert packing.unpack(keys) == list(map(packing.weight, keys)) == sorted(weights)
        assert packing.columns(keys) == [list(col) for col in zip(*sorted(weights))]


def test_packing_moves_between_layouts():
    # entries shifted and re-keyed into a layout of the same width (one int
    # addition per key) or a wider one decode to the shifted weights
    rng = random.Random(25)
    for rank, bound in ((1, 2), (2, 3), (3, 8), (8, 5)):
        src = _Packing(rank, bound)
        weights = {tuple(rng.randint(-bound, bound) for _ in range(rank)) for _ in range(200)}
        packed = {src.pack(w): m for m, w in enumerate(weights, 1)}
        widths = set()
        for extra in (0, 1, 64):
            lam = tuple(rng.randint(-extra, extra) for _ in range(rank))
            dst = _Packing(rank, bound + extra)
            widths.add(dst.mask == src.mask)
            moved = src.moved(packed, dst, lam)
            assert {dst.weight(x): m for x, m in moved.items()} == \
                {tuple(map(operator.add, w, lam)): packed[src.pack(w)] for w in weights}
        assert widths == {True, False}, (rank, bound)   # both kinds of move
        assert src.moved(packed, src) is packed


@pytest.mark.parametrize("rs", [A2, B2, G2, build_root_system("B", 3), build_root_system("D", 4)],
                         ids=lambda rs: f"{rs.type_label}{rs.rank}")
def test_packing_root_steps_do_not_carry(rs):
    # each root applied to weights at the extremes of every field, keeping
    # both ends within the truncated product's bound at p = 3
    positive = [r.fund for r in rs.positive_roots]
    bound = charalg._root_sum_bound(positive, 2)
    packing = _Packing(rs.rank, bound)
    for root in positive + list(rs.negative_roots):
        step = packing.step(root)
        ends = [(-bound - min(c, 0), bound - max(c, 0)) for c in root]
        for w in itertools.product(*ends):
            moved = tuple(map(operator.add, w, root))
            assert max(map(abs, moved)) == bound or max(map(abs, w)) == bound
            assert packing.unpack([packing.pack(w) + step]) == [moved]


# -- decomposition -------------------------------------------------------------

def _expand_entries(rs, dec):
    # the character sum_(lambda, m) m ch H0(lambda) of a decomposition
    return charalg._expand(rs, dict(dec.entries), charalg.DEFAULT_DIM_CAP,
                           charalg.DEFAULT_TERM_CAP)


def test_decompose_constructed():
    c = weyl_character(A2, (1, 0)) + 2 * weyl_character(A2, (0, 0))
    dec = decompose_good_filtration(c)
    assert dec.ok
    assert dec.entries == (((1, 0), 1), ((0, 0), 2))
    assert _expand_entries(A2, dec) == c


def test_decompose_negative_fails():
    dec = decompose_good_filtration(-Character(A2, {(0, 0): 1}))
    assert not dec.ok
    assert dec.failure_weight == (0, 0) and dec.failure_mult == -1


def test_decompose_non_dominant_fails():
    c = Character(A2, {(-1, 0): 1})
    dec = decompose_good_filtration(c)
    assert not dec.ok
    assert dec.failure_weight == (-1, 0)


@pytest.mark.parametrize("rs, mults", [
    (B2, {(-2, -2): 1, (3, 0): 1}),
    (G2, {(2, 0): 1, (-1, -2): 1, (1, -3): 1}),
    (A2, {(-1, 0): 1}),
], ids=["B2", "G2", "A2"])
def test_decompose_reflects_weights_past_the_bound(rs, mults):
    # s_i of a support weight can leave the character's layout, where its key
    # would alias another support weight: here s_1 (3, 0) = (-3, 6) on B2;
    # the witness is the one that reflecting weight tuples gives
    moved = [w for w, m in mults.items()
             if any(mults.get(rs.reflect(i, w), 0) != m for i in range(1, rs.rank + 1))]
    top = charalg._peel_order(rs, moved)[0]
    dec = decompose_good_filtration(Character(rs, mults))
    assert (dec.ok, dec.entries, dec.failure_weight, dec.failure_mult) == \
        (False, (), top, mults[top])


def test_decompose_round_trip_randomised():
    rng = random.Random(17)
    for rs in (A1, A2, B2):
        for _ in range(15):
            picks = {}
            for _ in range(rng.randint(1, 4)):
                lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
                picks[lam] = picks.get(lam, 0) + rng.randint(1, 3)
            total = Character.zero(rs)
            for lam, m in picks.items():
                total = total + m * weyl_character(rs, lam)
            dec = decompose_good_filtration(total)
            assert dec.ok and dict(dec.entries) == picks


def test_decompose_s2_nilpotent_functions():
    # degree-2 functions on the sl3 nilpotent cone: chi(2,2) + chi(1,1)
    whole = parabolic_subset(A2)
    ch = module_euler(A2, sym_power_char(whole, 2), (0, 0))
    dec = decompose_good_filtration(ch)
    assert dec.ok
    assert all(m >= 0 for _, m in dec.entries)
    assert dec.entries == (((2, 2), 1), ((1, 1), 1))
    assert ch.dimension() == 35


def test_decompose_matches_greedy_peel_randomised():
    # coefficients down to -2, so both must also stop at the same failure
    rng = random.Random(23)
    for rs in (A1, A2, B2, C2, G2):
        for _ in range(30):
            total = Character.zero(rs)
            for _ in range(rng.randint(1, 4)):
                lam = tuple(rng.randint(0, 2) for _ in range(rs.rank))
                total = total + rng.randint(-2, 3) * weyl_character(rs, lam)
            dec = decompose_good_filtration(total)
            assert dec.to_json_obj() == greedy_peel(total).to_json_obj()


def _peel_order_by_dominance_leq(rs, weights):
    # the peel order through the public, validating dominance_leq; also
    # counts the steps that choose among several undominated weights
    above = {
        mu: {nu for nu in weights if nu != mu and rs.dominance_leq(mu, nu)}
        for mu in weights
    }
    order, ties = [], 0
    while above:
        free = [mu for mu, larger in above.items() if not larger]
        ties += len(free) > 1
        top = max(free)
        del above[top]
        for larger in above.values():
            larger.discard(top)
        order.append(top)
    return order, ties


@pytest.mark.parametrize("key", [("A", 2), ("B", 2), ("G", 2), ("B", 3), ("C", 3)],
                         ids=lambda k: f"{k[0]}{k[1]}")
def test_peel_order_matches_dominance_leq(key):
    rs = build_root_system(*key)
    rng = random.Random(31)
    ties = 0
    for _ in range(60):
        box = range(-3, 4) if rs.rank == 2 else range(-2, 3)
        weights = {tuple(rng.choice(box) for _ in range(rs.rank))
                   for _ in range(rng.randint(1, 12))}
        expected, tied = _peel_order_by_dominance_leq(rs, weights)
        assert charalg._peel_order(rs, weights) == expected, (rs, sorted(weights))
        ties += tied
    assert ties > 0


# -- graded sections ------------------------------------------------------------

def test_graded_sections_a1_dimensions():
    gs = graded_section_char(parabolic_subset(A1), (0,), 6)
    assert gs.all_ok
    for n, ch in gs.graded.pieces:
        assert ch.dimension() == 2 * n + 1


def test_graded_sections_parabolic_a2():
    par = parabolic_subset(A2, [1])
    gs = graded_section_char(par, (0, 2), 3)
    assert gs.all_ok


def test_graded_sections_preconditions():
    with pytest.raises(InputError):
        graded_section_char(parabolic_subset(A2), (-2, 0), 2)
    with pytest.raises(InputError):
        graded_section_char(parabolic_subset(A2, [1]), (1, 1), 2)


@pytest.mark.parametrize("rs", (A2, B2, G2), ids=str)
def test_graded_section_pieces_match_oracles(rs):
    par = parabolic_subset(rs)
    for lam in [(0, 0), (1, 1), (-1, 1)]:
        if not rs.in_cone_c(lam):
            continue
        gs = graded_section_char(par, lam, 3)
        for (n, ch), (_, dec) in zip(gs.graded.pieces, gs.decompositions):
            assert dec.to_json_obj() == greedy_peel(ch).to_json_obj()
            assert ch == euler_by_weyl_search(rs, sym_power_char(par, n), lam)


def test_graded_sections_rank3():
    for rs, n_max in (
        (build_root_system("A", 3), 4),
        (build_root_system("B", 3), 3),
        (build_root_system("C", 3), 3),
    ):
        par = parabolic_subset(rs)
        for lam in itertools.product((0, 1), repeat=3):
            gs = graded_section_char(par, lam, n_max)
            assert gs.all_ok
            for (_, ch), (_, dec) in zip(gs.graded.pieces, gs.decompositions):
                assert _expand_entries(rs, dec) == ch


def test_graded_sections_decompose_coefficients_directly(monkeypatch):
    # each degree's Weyl-basis coefficients are decomposed as they are:
    # no invariance scan (RootSystem.reflect) and no second Klimyk pass
    # through decompose_good_filtration, yet the same decomposition
    cases = [(rs, lam) for rs in (A1, A2, B2, C2, G2)
             for lam in itertools.product(range(-1, 3), repeat=rs.rank)
             if rs.in_cone_c(lam)]
    public = decompose_good_filtration

    def refuse(*args, **kwargs):
        raise AssertionError("graded_section_char re-derived its coefficients")

    with monkeypatch.context() as m:
        m.setattr(charalg, "decompose_good_filtration", refuse)
        m.setattr(RootSystem, "reflect", refuse)
        sections = [graded_section_char(parabolic_subset(rs), lam, 3) for rs, lam in cases]
    assert len(sections) == 59
    for gs in sections:
        for (_, ch), (_, dec) in zip(gs.graded.pieces, gs.decompositions):
            assert dec == public(ch)


def test_graded_sections_cone_weight():
    # a non-dominant weight in C is accepted for the Borel case
    gs = graded_section_char(parabolic_subset(A2), (-1, 1), 3)
    assert [d for d, _ in gs.graded.pieces] == [0, 1, 2, 3]


# -- Frobenius-kernel cohomology -------------------------------------------------

def test_g1_identity_word():
    table = g1_cohomology_char(A1, [], (1,), 3, i_max=2)
    assert table[0] == weyl_character(A1, (1,))
    assert not table[1]
    assert table[2] == weyl_character(A1, (3,))


def test_g1_reflection_word():
    table = g1_cohomology_char(A1, [1], (1,), 3, i_max=2)
    assert not table[0] and not table[2]
    assert table[1] == weyl_character(A1, (1,))


def test_g1_matches_module_euler():
    whole = parabolic_subset(A2)
    for word in ([], [1], [1, 2]):
        ell = A2.word_length(word)
        lam = (1, 1)
        table = g1_cohomology_char(A2, word, lam, 5, i_max=6)
        for i, ch in table.items():
            if i >= ell and (i - ell) % 2 == 0:
                assert ch == module_euler(A2, sym_power_char(whole, (i - ell) // 2), lam)
            else:
                assert not ch


def test_g1_preconditions():
    with pytest.raises(InputError):
        g1_cohomology_char(A1, [], (1,), 2)     # p = h
    with pytest.raises(InputError):
        g1_cohomology_char(A1, [], (1,), 4)     # not prime
    with pytest.raises(InputError):
        g1_cohomology_char(A1, [], (-1,), 3)    # not dominant
    with pytest.raises(InputError):
        g1_cohomology_char(A2, [1], (0, 0), 5)  # w.0 not dominant


# -- Koszul identities ------------------------------------------------------------

def test_koszul_examples():
    rep = koszul_check(A1, 1, (-1,), 1)
    assert rep.ok and rep.vanishing_applicable
    # chi(S^1 u* ox -1) = H0(1) on A1
    whole = parabolic_subset(A1)
    assert module_euler(A1, sym_power_char(whole, 1), (-1,)) == weyl_character(A1, (1,))

    rep = koszul_check(A2, 2, (-1, 1), 1)
    assert rep.ok and rep.identity_ok and rep.vanishing_ok

    # dominant weight: identity holds, vanishing clause not applicable
    rep = koszul_check(A2, 2, (1, 0), 1)
    assert rep.ok and not rep.vanishing_applicable

    with pytest.raises(InputError):
        koszul_check(A1, 0, (0,), 1)


def test_koszul_sweep_small():
    for rs in (A1, A2):
        for lam in itertools.product(range(-1, 3), repeat=rs.rank):
            for n in (1, 2):
                for i in range(1, rs.rank + 1):
                    assert koszul_check(rs, n, lam, i).ok


def _koszul_cases():
    # the rank-2 sweep of `verify charalg` (528 cases), then A3 near zero
    for rs in (A1, A2, B2, C2, G2):
        for lam in itertools.product(range(-1, 3), repeat=rs.rank):
            for n in range(1, 5):
                for i in range(1, rs.rank + 1):
                    yield rs, n, lam, i
    a3 = build_root_system("A", 3)
    for lam in itertools.product(range(-1, 2), repeat=3):
        for n in (1, 2):
            for i in (1, 2, 3):
                yield a3, n, lam, i


def test_koszul_matches_expansion_oracle():
    count = 0
    for rs, n, lam, i in _koszul_cases():
        rep = koszul_check(rs, n, lam, i)
        want = koszul_by_expansion(rs, n, lam, i)
        case = (rs, n, lam, i)
        assert (rep.ok, rep.identity_ok, rep.vanishing_applicable, rep.vanishing_ok) == (
            want.ok, want.identity_ok, want.vanishing_applicable, want.vanishing_ok
        ), case
        expanded = charalg._expand(rs, rep.parabolic_term, charalg.DEFAULT_DIM_CAP,
                                   charalg.DEFAULT_TERM_CAP)
        assert expanded == want.parabolic_term, case
        count += 1
    assert count == 528 + 162


def test_koszul_identity_failure_is_seen(monkeypatch):
    # doubling the parabolic term breaks the identity exactly where that
    # term is nonzero, in the coefficient test and in the expanded oracle
    sym = charalg.sym_power_char
    monkeypatch.setattr(charalg, "sym_power_char",
                        lambda par, n, term_cap=10**6: 2 * sym(par, n, term_cap))
    nonzero = 0
    for lam in itertools.product(range(-1, 3), repeat=2):
        for n in (1, 2):
            for i in (1, 2):
                rep = koszul_check(B2, n, lam, i)
                assert rep.identity_ok == (not rep.parabolic_term), (lam, n, i)
                nonzero += bool(rep.parabolic_term)
    assert nonzero > 0


def test_verify_koszul_sweep_builds_its_powers_once(monkeypatch):
    # one Borel build (S^(n-1) and S^n) and one minimal-parabolic build per
    # (system, n, i): 36 triples on the five rank-2 systems, not two per case
    calls = []
    pieces = charalg._sym_power_pieces
    monkeypatch.setattr(charalg, "_sym_power_pieces",
                        lambda *args: calls.append(args) or pieces(*args))
    check = _one_check(monkeypatch, "charalg.koszul_reduction_sweep")
    assert (check.status, len(calls)) == ("pass", 72)


def test_koszul_expands_no_weyl_character(monkeypatch):
    assert "dim_cap" not in inspect.signature(koszul_check).parameters

    def refuse(*args, **kwargs):
        raise AssertionError("koszul_check expanded a Weyl character")

    monkeypatch.setattr(charalg, "weyl_character", refuse)
    for rs in (A2, G2):
        for lam in itertools.product(range(-1, 2), repeat=2):
            assert koszul_check(rs, 3, lam, 1).ok


# -- character container ------------------------------------------------------------

def test_character_arithmetic():
    a = weyl_character(A2, (1, 0))
    b = weyl_character(A2, (0, 1))
    assert (a + b).dimension() == 6
    assert (a - a).term_count() == 0
    assert (2 * a).dimension() == 6
    # internal results store no zero multiplicity, so they compare equal
    # to the normalised public construction
    assert a - a == 0 * a == Character(A2, {(0, 0): 0})
    assert (a + b) - b == a == Character(A2, dict(a.mults))
    assert (-a).dimension() == -3
    shifted = a.shift((1, 1))
    assert shifted.multiplicity((2, 1)) == a.multiplicity((1, 0))
    with pytest.raises(InputError):
        a + weyl_character(B2, (1, 0))
    # each call builds its own character: clearing one's storage leaves the next intact
    a.packed.clear()
    weyl_character(A2, (1, 0)).packed.clear()
    assert weyl_character(A2, (1, 0)).dimension() == 3
    # the multiplicities are a read-only view
    with pytest.raises(TypeError):
        b.mults[(1, 0)] = 2
    assert not hasattr(b.mults, "clear")


def test_character_repr_shows_the_six_smallest_weights():
    assert repr(weyl_character(A2, (2, 1))) == (
        "Character((-3, 2):1, (-2, 0):1, (-2, 3):1, (-1, -2):1, (-1, 1):2, (0, -1):2, "
        "... (12 weights))")
    assert repr(-weyl_character(A1, (3,))) == "Character((-3,):-1, (-1,):-1, (1,):-1, (3,):-1)"
    assert repr(Character.zero(A2)) == "Character()"


# An off-by-one inner product breaks Freudenthal: on A2 at (1,1) the
# multiplicities stay integral but sum to 9, not 8; on B2 at (1,1) the
# multiplicity of (0,1) is no integer.
BROKEN_FREUDENTHAL = [(("A", 2), (1, 1), "Weyl's formula"), (("B", 2), (1, 1), "not an integer")]


@pytest.mark.parametrize("key, lam, message", BROKEN_FREUDENTHAL,
                         ids=["A2-dimension", "B2-integrality"])
def test_freudenthal_invariants_are_checked(monkeypatch, key, lam, message):
    product = charalg._weight_root_product
    monkeypatch.setattr(charalg, "_weight_root_product", lambda rs, w, r: product(rs, w, r) + 1)
    with pytest.raises(InvariantError, match=message):
        weyl_character(build_root_system(*key), lam)


@pytest.mark.parametrize("fault", [lambda p: 0, lambda p: -p], ids=["zero", "negated"])
def test_freudenthal_rejects_a_multiplicity_below_one(monkeypatch, fault):
    # the table reads a missing weight as multiplicity 0, so a dominant
    # weight of the weight system must never be entered with m < 1
    product = charalg._weight_root_product
    monkeypatch.setattr(charalg, "_weight_root_product", lambda rs, w, r: fault(product(rs, w, r)))
    with pytest.raises(InvariantError, match=r"multiplicity of the dominant weight \(0, 0\) "
                                             r"in the character of \(1, 1\) is -?\d+, not positive"):
        weyl_character(A2, (1, 1))


def test_weyl_dimension_integrality_is_checked():
    rs = RootSystem("A", 2)   # a private copy, not the cached system
    rs.positive_roots = rs.positive_roots[2:]   # alpha_1 + alpha_2 alone: 3/2
    with pytest.raises(InvariantError, match="not an integer"):
        weyl_dimension(rs, (1, 0))


def test_freudenthal_invariants_are_checked_under_optimisation():
    script = (
        "from flagsplit import charalg\n"
        "from flagsplit.errors import InvariantError\n"
        "from flagsplit.rootdata import build_root_system\n"
        "product = charalg._weight_root_product\n"
        "charalg._weight_root_product = lambda rs, w, r: product(rs, w, r) + 1\n"
        "for name, lam in (('A', (1, 1)), ('B', (1, 1))):\n"
        "    try:\n"
        "        charalg.weyl_character(build_root_system(name, 2), lam)\n"
        "    except InvariantError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(flagsplit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert run.returncode == 0
