"""Root-system construction, pairings, reflections, dominance and reduction."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import flagsplit
from flagsplit import rootdata
from flagsplit.charalg import _dominant_weight_system
from flagsplit.errors import InputError, InvariantError
from flagsplit.rootdata import RootSystem, build_root_system, parabolic_subset, parse_system
from flagsplit.verify import RunConfig, suite_rootdata

from oracles import (
    bad_primes_by_trial_division,
    dominance_by_descent,
    inverse_by_fractions,
    make_dominant_by_reflect,
    orbit_by_bfs,
    orbit_walk_by_tuples,
    positive_roots_by_strings,
    symmetrizers_by_fractions,
    weyl_elements,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


CLASSICAL_COUNTS = {
    ("A", 1): (1, 2), ("A", 2): (3, 3), ("A", 3): (6, 4),
    ("B", 2): (4, 4), ("B", 3): (9, 6), ("C", 3): (9, 6),
    ("D", 4): (12, 6), ("G", 2): (6, 6), ("F", 4): (24, 12),
    ("E", 6): (36, 12), ("E", 7): (63, 18), ("E", 8): (120, 30),
}


@pytest.mark.parametrize("key", sorted(CLASSICAL_COUNTS))
def test_construction_counts(key):
    n_roots, coxeter = CLASSICAL_COUNTS[key]
    rs = build_root_system(*key)
    assert rs.num_positive_roots == n_roots
    assert rs.coxeter_number == coxeter
    assert rs.coxeter_number == rs.highest_root.height + 1
    for i in range(rs.rank):
        assert rs.cartan[i][i] == 2
        assert all(rs.cartan[i][j] <= 0 for j in range(rs.rank) if j != i)
    assert all(rs.pairing(rs.rho, i) == 1 for i in range(1, rs.rank + 1))


def test_a1_basics():
    assert A1.num_positive_roots == 1
    assert A1.coxeter_number == 2
    assert A1.rho == (1,)


def test_a2_positive_roots():
    fund = {r.fund for r in A2.positive_roots}
    assert fund == {(2, -1), (-1, 2), (1, 1)}


def test_invalid_types():
    with pytest.raises(InputError):
        build_root_system("H", 4)
    with pytest.raises(InputError):
        build_root_system("A", 9)
    with pytest.raises(InputError):
        build_root_system("E", 5)
    with pytest.raises(InputError):
        build_root_system("F", 3)
    with pytest.raises(InputError):
        parse_system("A")
    assert parse_system("g2") is G2


@pytest.mark.parametrize("name", ["A\u00b2", "E\u2078", "B\u2460"])
def test_parse_system_rejects_digits_int_cannot_read(name):
    # superscript and circled digits pass str.isdigit() but not int()
    with pytest.raises(InputError, match="cannot parse root-system name"):
        parse_system(name)


def test_pairing_examples():
    for rs in (A1, A2, B2, G2):
        for i in range(1, rs.rank + 1):
            assert rs.pairing(rs.rho, i) == 1
            assert rs.pairing(rs.simple_root(i).fund, i) == 2
    assert A2.pairing(A2.simple_root(1).fund, 2) == -1


def test_reflect_examples():
    assert A1.reflect(1, (3,)) == (-3,)
    assert A2.reflect(1, (-1, 1)) == (1, 0)
    # s_i is an involution
    rng = random.Random(7)
    for rs in (A2, B2, G2):
        for _ in range(20):
            lam = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
            i = rng.randint(1, rs.rank)
            assert rs.reflect(i, rs.reflect(i, lam)) == lam


def test_dot_action_examples():
    assert A1.dot_action([1], (-2,)) == (0,)
    assert A1.dot_action([], (-2,)) == (-2,)
    # dot action composes along concatenated words
    rng = random.Random(11)
    for rs in (A2, B2, G2):
        for _ in range(30):
            w1 = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 4))]
            w2 = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 4))]
            lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            assert rs.dot_action(w1, rs.dot_action(w2, lam)) == rs.dot_action(w1 + w2, lam)


def test_cone_membership():
    assert A1.in_cone_c((-1,))
    assert not A2.in_cone_c((-2, 0))
    # the pairing against (alpha1+alpha2)-vee is -2
    assert not A2.in_cone_c((-1, -1))
    assert A2.in_cone_c((-1, 1))
    # B2: (-1,0) pairs to -1 with alpha1 but check the long coroot too
    assert B2.in_cone_c((0, -1))


def test_p_regular():
    assert A2.is_p_regular((0, 2), [1])
    assert not A2.is_p_regular((1, 2), [1])
    assert not A2.is_p_regular((0, 0), [1])
    assert A2.is_p_regular((1, 1), [])


def test_good_primes_table():
    expected = {
        "A1": 2, "A2": 2, "A3": 2,
        "B2": 3, "B3": 3, "C2": 3, "C3": 3, "D4": 3,
        "F4": 5, "E6": 5, "E7": 5, "G2": 5,
        "E8": 7,
    }
    for name, minimal in expected.items():
        rs = parse_system(name)
        assert rs.minimal_good_prime() == minimal, name
        assert rs.is_good_prime(minimal)
        for q in (2, 3, 5):
            if q < minimal:
                assert not rs.is_good_prime(q), (name, q)


def test_dominance_examples():
    assert A1.dominance_leq((0,), (2,))
    assert A2.dominance_leq((0, 0), (1, 1))
    assert A2.dominance_leq((1, 1), (1, 1))
    assert not A2.dominance_leq((1, 1), (0, 0))
    # (1,0) - (0,1) is not in the root lattice
    assert not A2.dominance_leq((0, 1), (1, 0))


def test_dominance_against_descent_oracle():
    rng = random.Random(3)
    for rs in (A2, B2, G2):
        for _ in range(60):
            mu = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            assert rs.dominance_leq(mu, lam) == dominance_by_descent(rs, mu, lam)


def test_reflection_permutes_positive_roots():
    for rs in (A1, A2, B2, G2, build_root_system("A", 3), build_root_system("B", 3)):
        pos = {r.fund for r in rs.positive_roots}
        for i in range(1, rs.rank + 1):
            alpha = rs.simple_root(i).fund
            assert rs.reflect(i, alpha) == tuple(-c for c in alpha)
            others = pos - {alpha}
            assert {rs.reflect(i, b) for b in others} == others


def test_orbit_unique_dominant():
    for rs in (A1, A2, B2, G2, build_root_system("A", 3)):
        for lam in itertools.product(range(-3, 4), repeat=rs.rank):
            if max(map(abs, lam)) > 3:
                continue
            orbit = rs.weyl_orbit(lam)
            assert sum(1 for w in orbit if rs.is_dominant(w)) == 1
            dom, _ = rs.make_dominant(lam)
            assert rs.is_dominant(dom) and dom in orbit


def _orbit_check(monkeypatch, weyl_orbit):
    # verify rootdata's orbit check, on A1 alone, with weyl_orbit replaced
    monkeypatch.setattr(RootSystem, "weyl_orbit", weyl_orbit)
    checks = suite_rootdata(RunConfig(rank_cap=1))
    return next(c for c in checks if c.name == "rootdata.orbit_has_unique_dominant")


def test_verify_rootdata_asks_for_the_orbit_of_every_weight(monkeypatch):
    asked, walk = [], RootSystem.weyl_orbit
    check = _orbit_check(monkeypatch, lambda rs, lam: asked.append(lam) or walk(rs, lam))
    assert check.status == "pass"
    assert asked == [(k,) for k in range(-3, 4)]


def test_verify_rootdata_checks_a_changed_orbit_in_full(monkeypatch):
    # the orbit of (3,) shares its least member with the orbit of (-3,),
    # checked before it, but has gained (-1,), whose image (1,) is missing
    walk = RootSystem.weyl_orbit
    check = _orbit_check(
        monkeypatch, lambda rs, lam: [(-3,), (-1,), (3,)] if lam == (3,) else walk(rs, lam))
    assert (check.status, check.detail) == \
        ("fail", "RootSystem(A1): orbit of (3,) is not closed under s_1")


def test_weyl_group_orders():
    assert len(weyl_elements(A2)) == 6
    assert len(weyl_elements(B2)) == 8
    assert len(weyl_elements(G2)) == 12
    assert len(weyl_elements(build_root_system("A", 3))) == 24
    # word lengths agree with the BFS level
    for rs in (A2, B2, G2):
        for word in weyl_elements(rs):
            assert rs.word_length(word) == len(word)
    assert A2.word_length([1, 1]) == 0
    assert A2.word_length([1, 2, 1]) == 3


def test_cone_reduce_examples():
    tr = A1.cone_reduce((-1,), 2)
    assert tr.steps == (1,)
    assert tr.outcome == "dominant"
    assert tr.dominant_weight == (1,) and tr.remaining_degree == 1

    tr = A1.cone_reduce((-1,), 0)
    assert tr.outcome == "all_cohomology_vanishes"

    tr = A2.cone_reduce((-1, 1), 1)
    assert tr.steps == (1,)
    assert tr.dominant_weight == (1, 0) and tr.remaining_degree == 0

    # each step adds the reflected simple root
    assert tr.intermediates == ((-1, 1), (1, 0))

    with pytest.raises(InputError):
        A2.cone_reduce((-2, 0), 1)
    with pytest.raises(InputError):
        A1.cone_reduce((-1,), -1)


def test_cone_reduce_invariants():
    for rs in (A1, A2, B2, G2):
        for lam in itertools.product(range(-1, 3), repeat=rs.rank):
            if not rs.in_cone_c(lam):
                continue
            for n in range(4):
                tr = rs.cone_reduce(lam, n)
                assert len(tr.steps) <= n + 1
                assert all(rs.in_cone_c(w) for w in tr.intermediates)
                if tr.outcome == "dominant":
                    assert rs.is_dominant(tr.dominant_weight)
                    assert tr.remaining_degree >= 0
                    # the reduction only ever adds simple roots
                    assert rs.dominance_leq(lam, tr.dominant_weight)


def test_cone_reduce_raises_when_a_weight_leaves_the_cone(monkeypatch):
    # (-2, 0) is outside C; let it in, and the reduction finds no simple
    # pairing of -1 to reflect in: a broken identity, not an assert, so it
    # is raised under python -O too
    monkeypatch.setattr(RootSystem, "in_cone_c", lambda self, lam: True)
    with pytest.raises(InvariantError, match=r"weight \(-2, 0\) left the cone C"):
        A2.cone_reduce((-2, 0), 1)


def test_cone_reduce_multi_step():
    tr = A2.cone_reduce((-1, 0), 3)
    assert tr.steps == (1, 2)
    assert tr.intermediates == ((-1, 0), (1, -1), (0, 1))
    assert tr.outcome == "dominant"
    assert tr.dominant_weight == (0, 1) and tr.remaining_degree == 1


def test_weyl_order_cap():
    from flagsplit.errors import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        weyl_elements(build_root_system("B", 3), order_cap=10)


def test_parabolic_subset():
    par = parabolic_subset(A2, [1])
    assert {r.fund for r in par.levi_roots} == {(2, -1)}
    assert set(par.radical_weights) == {(-1, 2), (1, 1)}
    assert par.delta == (0, 3)

    full = parabolic_subset(A2)
    assert full.delta == (2, 2)  # 2 rho
    assert len(full.radical_weights) == 3

    b2 = parabolic_subset(B2, [2])
    assert all(b2.delta[i - 1] == 0 for i in b2.subset)
    with pytest.raises(InputError):
        parabolic_subset(A2, [3])


def test_negative_roots_are_negated_positives():
    for rs in (A2, B2, G2):
        assert set(rs.negative_roots) == {
            tuple(-c for c in r.fund) for r in rs.positive_roots
        }


# every simple type of rank <= 3, and the rank-4 types
SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
               ("D", 3), ("G", 2)]
RANK4_TYPES = [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4)]
# the E-type highest weights of the benchmark's `char weyl` cases
E_WEIGHTS = [("E", 8, (0, 0, 0, 0, 0, 0, 0, 1)), ("E", 7, (0, 0, 1, 0, 0, 0, 0)),
             ("E", 7, (1, 0, 0, 0, 0, 0, 1)), ("E", 6, (1, 1, 0, 0, 0, 1)),
             ("E", 6, (0, 0, 0, 1, 1, 1))]
# the benchmark's other `char weyl` highest weights
OTHER_WEYL_WEIGHTS = [("F", 4, (1, 1, 0, 0)), ("B", 4, (1, 1, 1, 1)), ("C", 4, (1, 1, 1, 1)),
                      ("D", 4, (2, 1, 1, 1)), ("D", 4, (1, 1, 2, 1)), ("D", 4, (1, 1, 1, 2)),
                      ("A", 5, (2, 1, 1, 1, 1)), ("A", 5, (1, 1, 1, 1, 2))]


def _assert_matches_oracles(rs, lam):
    orbit = rs.weyl_orbit(lam)
    assert len(orbit) == len(set(orbit)), (rs, lam)   # each member built once
    assert orbit == orbit_by_bfs(rs, lam), (rs, lam)
    assert rs.make_dominant(lam) == make_dominant_by_reflect(rs, lam), (rs, lam)


@pytest.mark.parametrize("key", SMALL_TYPES, ids=lambda k: f"{k[0]}{k[1]}")
def test_orbit_and_make_dominant_match_oracles_small(key):
    rs = build_root_system(*key)
    for lam in itertools.product(range(-2, 3), repeat=rs.rank):
        _assert_matches_oracles(rs, lam)


@pytest.mark.parametrize("key", RANK4_TYPES, ids=lambda k: f"{k[0]}{k[1]}")
def test_orbit_and_make_dominant_match_oracles_rank4(key):
    rs = build_root_system(*key)
    for lam in itertools.product(range(-1, 2), repeat=rs.rank):
        _assert_matches_oracles(rs, lam)


def _assert_weight_system_matches_oracles(case):
    # every dominant weight below lam, and a non-dominant member of its orbit
    type_label, rank, lam = case
    rs = build_root_system(type_label, rank)
    rng = random.Random(rank * 1000 + sum(lam))
    for mu in _dominant_weight_system(rs, lam):
        moved = mu
        while any(mu) and rs.is_dominant(moved):   # 0 is fixed by all of W
            word = [rng.randint(1, rank) for _ in range(rng.randint(1, 12))]
            moved = rs.weight_action(word, mu)
        _assert_matches_oracles(rs, moved)
        assert rs.weyl_orbit(mu) == rs.weyl_orbit(moved)
        assert rs.make_dominant(mu) == make_dominant_by_reflect(rs, mu) == (mu, 0)


@pytest.mark.parametrize("case", E_WEIGHTS, ids=lambda c: f"{c[0]}{c[1]}")
def test_orbit_and_make_dominant_match_oracles_e_types(case):
    _assert_weight_system_matches_oracles(case)


@pytest.mark.parametrize("case", OTHER_WEYL_WEIGHTS, ids=lambda c: f"{c[0]}{c[1]}")
def test_orbit_and_make_dominant_match_oracles_other_weyl_weights(case):
    _assert_weight_system_matches_oracles(case)


@pytest.mark.parametrize("key", SMALL_TYPES, ids=lambda k: f"{k[0]}{k[1]}")
def test_orbit_stabiliser(key):
    rs = build_root_system(*key)
    words = weyl_elements(rs)
    for lam in itertools.product(range(-2, 3), repeat=rs.rank):
        stabiliser = sum(1 for w in words if rs.weight_action(w, lam) == lam)
        assert len(rs.weyl_orbit(lam)) * stabiliser == len(words), (rs, lam)


# every simple type of rank <= 8
ALL_TYPES = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
             + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(3, 9)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def _orbit_size(rs, top):
    # |W| is the product of (ht + 1) / ht over the positive roots (Macdonald),
    # and the stabiliser of a dominant top is generated by the simple
    # reflections that fix it, so the orbit takes the roots top does not
    # vanish on
    size = Fraction(1)
    for r in rs.positive_roots:
        if any(a and c for a, c in zip(r.simple, top)):
            size *= Fraction(r.height + 1, r.height)
    assert size.denominator == 1
    return int(size)


@pytest.mark.parametrize("key", ALL_TYPES, ids=lambda k: f"{k[0]}{k[1]}")
def test_orbit_walk_matches_weyl_orbit(key):
    # the unsorted, unvalidated walk of packed keys from a dominant top
    # decodes, in walk order, to the tuple walk it replaced, each weight
    # once, and sorted to weyl_orbit of any member; nonzero tops are drawn
    # with orbits of at most 5000, walked in the layout weyl_orbit takes and
    # in one 20 bits wider
    rs = build_root_system(*key)
    rng = random.Random(f"orbit walk {key}")
    drawn = 0
    while drawn < 4:
        top = tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(rs.rank))
        size = _orbit_size(rs, top)
        if not 1 < size <= 5000:
            continue
        drawn += 1
        moved = rs.weight_action([rng.randint(1, rs.rank) for _ in range(12)], top)
        expected = orbit_walk_by_tuples(rs, top)
        assert len(expected) == len(set(expected)) == size, (rs, top)
        bound = max(map(abs, itertools.chain(*expected)))
        assert bound == sum(a * c for a, c in zip(rs._top_coroot, top))
        for packing in (rootdata._Packing(rs.rank, bound), rootdata._Packing(rs.rank, bound << 20)):
            walk = rs._orbit_walk(packing.pack(top), packing)
            assert packing.unpack(walk) == expected, (rs, top)
        assert rs.weyl_orbit(moved) == sorted(expected), (rs, top, moved)


VALID_TYPES = [(label, rank) for label, valid in rootdata._VALID_TYPES.items()
               for rank in range(1, rootdata.MAX_RANK + 1) if valid(rank)]


@pytest.mark.parametrize("label, rank", VALID_TYPES, ids=[f"{x}{n}" for x, n in VALID_TYPES])
def test_integer_construction_matches_fractions(label, rank):
    # symmetrizers and simple-root coordinates over a common denominator, as
    # the Fraction arithmetic gives them
    cartan = rootdata._cartan_matrix(label, rank)
    rs = RootSystem(label, rank)
    assert rs.symmetrizers == symmetrizers_by_fractions(cartan)
    transposed = [[cartan[j][i] for j in range(rank)] for i in range(rank)]
    assert (rs._coord_den, rs._coord_num) == inverse_by_fractions(transposed)


@pytest.mark.parametrize("label, rank", VALID_TYPES, ids=[f"{x}{n}" for x, n in VALID_TYPES])
def test_root_data_matches_string_oracle(label, rank):
    # the reflection walk and the readings of its highest root against
    # alpha-strings, coroots from root norms and trial division
    cartan = rootdata._cartan_matrix(label, rank)
    rs = RootSystem(label, rank)
    roots = positive_roots_by_strings(cartan)
    assert rs.positive_roots == roots
    assert rs.symmetrizers == symmetrizers_by_fractions(cartan)
    theta = max(roots, key=lambda r: r.height)
    assert rs.highest_root == theta
    bad = bad_primes_by_trial_division(theta.simple)
    assert rs.bad_primes == bad
    assert rs.minimal_good_prime() == next(
        q for q in itertools.count(2) if all(q % k for k in range(2, q)) and q not in bad)


def test_inverse_over_den_matches_fractions_randomised():
    # no transposed Cartan matrix needs a row swap; these do whenever m[0][0] == 0
    rng = random.Random(17)
    swapped = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        m = [[rng.choice([0, 0, 1, -1, 2, -3, 5]) for _ in range(n)] for _ in range(n)]
        try:
            want = inverse_by_fractions(m)
        except StopIteration:   # singular
            continue
        swapped += m[0][0] == 0
        assert rootdata._inverse_over_den(m) == want, m
    assert swapped > 20


# Each construction invariant broken by one patch, as (module attribute,
# replacement, type of the rank-2 system built, error message):
#   * a disconnected Cartan matrix has a highest root with a zero coefficient,
#     so no symmetrizers;
#   * the coroot (1, 0) of alpha_1 + alpha_2 on A2 pairs to 1 with it;
#   * the coroot (2, 1) of the highest root alpha_1 + 2 alpha_2 on B2 pairs to
#     2 with it, but gives symmetrizers (4, 1), which do not symmetrise.
BROKEN_CONSTRUCTION = [
    ("_cartan_matrix", "lambda t, n: [[2, 0], [0, 2]]", "A", "not connected"),
    ("_root_walk", "lambda cartan, walk=rootdata._root_walk: "
                   "{**walk(cartan), (1, 1): rootdata.Root((1, 1), (1, 1), (1, 0))}",
     "A", "pairs to 1"),
    ("_root_walk", "lambda cartan, walk=rootdata._root_walk: "
                   "{**walk(cartan), (1, 2): rootdata.Root((1, 2), (0, 2), (2, 1))}",
     "B", "do not symmetrise"),
]


@pytest.mark.parametrize("attr, patch, label, message", BROKEN_CONSTRUCTION,
                         ids=["symmetrizers", "coroot-pairing", "symmetrizing"])
def test_construction_invariants_are_checked(monkeypatch, attr, patch, label, message):
    monkeypatch.setattr(rootdata, attr, eval(patch))
    with pytest.raises(InvariantError, match=message):
        RootSystem(label, 2)


def test_delta_p_invariant_is_checked():
    rs = RootSystem("A", 2)   # a private copy, not the cached system
    rs.positive_roots = rs.positive_roots[:2]   # without alpha_1 + alpha_2
    with pytest.raises(InvariantError, match="delta_P"):
        parabolic_subset(rs, [1])


def test_rootdata_invariants_are_checked_under_optimisation():
    script = (
        "from flagsplit import rootdata\n"
        "from flagsplit.errors import InvariantError\n"
        "def raises(build, message):\n"
        "    try:\n"
        "        build()\n"
        "    except InvariantError as exc:\n"
        "        if message in str(exc):\n"
        "            return\n"
        "    raise SystemExit(1)\n"
        f"for attr, patch, label, message in {BROKEN_CONSTRUCTION!r}:\n"
        "    original = getattr(rootdata, attr)\n"
        "    setattr(rootdata, attr, eval(patch))\n"
        "    raises(lambda: rootdata.RootSystem(label, 2), message)\n"
        "    setattr(rootdata, attr, original)\n"
        "rs = rootdata.RootSystem('A', 2)\n"
        "rs.positive_roots = rs.positive_roots[:2]\n"
        "raises(lambda: rootdata.parabolic_subset(rs, [1]), 'delta_P')\n"
    )
    src = os.path.dirname(os.path.dirname(flagsplit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert run.returncode == 0
