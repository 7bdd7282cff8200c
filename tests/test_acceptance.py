"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is either asserted exactly (characters, polynomials,
tables) or produced by the independent oracles in ``oracles.py``; runtime
bounds are asserted with the stated budgets.
"""

import itertools
import random
import time

import pytest

from flagsplit.charalg import (
    g1_cohomology_char,
    graded_section_char,
    koszul_check,
    module_euler,
    sym_power_char,
    truncated_char,
)
from flagsplit.fpoly import (
    SparsePolynomial,
    frobenius_trace,
    is_splitting_function,
)
from flagsplit.rootdata import build_root_system, parabolic_subset, parse_system
from flagsplit.slnsplit import (
    build_chart_function,
    build_parabolic_chart_function,
    canonical_check,
    compat_check,
    mvk_component,
)

from oracles import rank1_chart_by_conjugation, rank1_chart_closed_form


def _report(number: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_type_a_splitting():
    start = time.monotonic()
    ok = True
    for p in (2, 3, 5, 7):
        t0 = time.monotonic()
        cf = build_chart_function(1, p)
        ok &= cf.poly.terms == rank1_chart_closed_form(p).terms
        ok &= cf.poly.terms == rank1_chart_by_conjugation(p)
        ok &= is_splitting_function(cf.poly).ok
        ok &= (time.monotonic() - t0) < 1.0
    for p in (2, 3):
        cf = build_chart_function(2, p)
        ok &= is_splitting_function(cf.poly).ok
    _report(1, "type-A chart functions split (n=1 closed form; n=2)",
            ok, time.monotonic() - start, 61.0)


def test_criterion_02_homogeneous_component():
    start = time.monotonic()
    ok = True
    for n, p in [(1, 2), (1, 3), (1, 5), (1, 7), (2, 2), (2, 3)]:
        cf = build_chart_function(n, p)
        comp = mvk_component(cf)
        target = cf.num_x * (p - 1)
        ok &= all(sum(e[cf.x_start:]) == target for e in comp.poly.terms)
        ok &= is_splitting_function(comp.poly).ok
    _report(2, "fibre-degree N(p-1) components split",
            ok, time.monotonic() - start, 5.0)


def test_criterion_03_compatibility():
    start = time.monotonic()
    comp = mvk_component(build_chart_function(2, 2))
    ok = compat_check(comp, [1]).ok and compat_check(comp, [2]).ok
    _report(3, "homogeneous splitting preserves both parabolic chart ideals (n=2, p=2)",
            ok, time.monotonic() - start, 10.0)


def test_criterion_04_canonical():
    start = time.monotonic()
    ok = True
    for n, p in [(1, 2), (1, 3), (1, 5), (2, 2)]:
        res = canonical_check(n, p)
        ok &= res.ok and res.t_invariant
        ok &= all(d.t_degree <= p - 1 for d in res.directions)
    _report(4, "canonical condition: t-degree <= p-1, pure weight i*alpha",
            ok, time.monotonic() - start, 30.0)


def test_criterion_05_parabolic():
    start = time.monotonic()
    ok = True
    for subset in ([1], [2]):
        cf = build_parabolic_chart_function(2, 2, subset)
        ok &= is_splitting_function(cf.poly).ok
    _report(5, "parabolic chart functions split (n=2, p=2, both subsets)",
            ok, time.monotonic() - start, 30.0)


def test_criterion_06_graded_sections():
    start = time.monotonic()
    ok = True
    for name, n_max in [("A1", 5), ("A2", 5), ("B2", 5), ("G2", 3)]:
        rs = parse_system(name)
        par = parabolic_subset(rs)
        for lam in itertools.product(range(0, 3), repeat=rs.rank):
            gs = graded_section_char(par, lam, n_max)
            ok &= gs.all_ok
    a1 = build_root_system("A", 1)
    gs = graded_section_char(parabolic_subset(a1), (0,), 5)
    for n, ch in gs.graded.pieces:
        ok &= ch.dimension() == 2 * n + 1
    _report(6, "graded sections decompose nonnegatively; A1 dims are 2n+1",
            ok, time.monotonic() - start, 120.0)


def test_criterion_07_koszul():
    start = time.monotonic()
    ok = True
    for name in ("A1", "A2", "B2", "C2", "G2"):
        rs = parse_system(name)
        for lam in itertools.product(range(-1, 3), repeat=rs.rank):
            for n in range(1, 5):
                for i in range(1, rs.rank + 1):
                    rep = koszul_check(rs, n, lam, i)
                    ok &= rep.ok
                    if rs.pairing(lam, i) == -1:
                        ok &= rep.vanishing_applicable and not rep.parabolic_term
    _report(7, "reduction identities and pairing -1 vanishing (ranks <= 2, n <= 4)",
            ok, time.monotonic() - start, 60.0)


def test_criterion_08_good_primes():
    start = time.monotonic()
    table = {
        "A2": 2, "B3": 3, "C3": 3, "D4": 3,
        "F4": 5, "E6": 5, "E7": 5, "G2": 5, "E8": 7,
    }
    ok = True
    for name, minimal in table.items():
        rs = parse_system(name)
        ok &= rs.minimal_good_prime() == minimal
        ok &= rs.is_good_prime(minimal)
        ok &= all(not rs.is_good_prime(q) for q in (2, 3, 5) if q < minimal)
    _report(8, "good-prime table for all nine families",
            ok, time.monotonic() - start, 10.0)


def test_criterion_09_trace_algebra():
    start = time.monotonic()
    rng = random.Random(2024)
    names = ("x1", "x2")
    ok = True
    for p in (2, 3, 5):
        one = SparsePolynomial.constant(p, names, 1)

        def rand(max_terms, max_exp):
            return SparsePolynomial(
                p, names,
                {
                    (rng.randint(0, max_exp), rng.randint(0, max_exp)):
                    rng.randint(1, p - 1)
                    for _ in range(rng.randint(1, max_terms))
                },
            )

        for _ in range(100):
            f, g, h = rand(6, 6), rand(3, 3), rand(3, 2)
            ok &= frobenius_trace(f, (h ** p) * g) == h * frobenius_trace(f, g)
            f2, g2 = rand(6, 6), rand(3, 3)
            ok &= frobenius_trace(f + f2, g) == (
                frobenius_trace(f, g) + frobenius_trace(f2, g)
            )
            ok &= frobenius_trace(f, g + g2) == (
                frobenius_trace(f, g) + frobenius_trace(f, g2)
            )
            probe = rand(50, 2 * p)
            tr = frobenius_trace(probe, one)
            ok &= bool(is_splitting_function(probe)) == (bool(tr) and tr.is_constant())
    _report(9, "trace semilinearity, additivity, criterion equivalence (100 per p)",
            ok, time.monotonic() - start, 10.0)


def test_criterion_10_frobenius_kernel():
    start = time.monotonic()
    ok = True
    for name in ("A1", "A2", "A3", "B2", "B3", "C3", "G2"):
        rs = parse_system(name)
        for p in (2, 3):
            ch = truncated_char(rs, p)
            ok &= ch.dimension() == p**rs.num_positive_roots
            top = tuple(2 * (p - 1) for _ in range(rs.rank))
            ok &= ch.multiplicity(top) == 1
            ok &= all(rs.dominance_leq(w, top) for w in ch.mults)
    _report(10, "Frobenius-kernel character: dimension p^N, unique top weight",
            ok, time.monotonic() - start, 10.0)


def test_criterion_11_g1_cohomology():
    start = time.monotonic()
    ok = True
    cases = {
        "A1": ([], [1]),
        "A2": ([], [1], [2], [1, 2]),
    }
    for name, words in cases.items():
        rs = parse_system(name)
        whole = parabolic_subset(rs)
        for p in (5, 7):
            assert p > rs.coxeter_number
            for word in words:
                ell = rs.word_length(word)
                lam = (1,) * rs.rank
                shifted = rs.dot_action(word, (0,) * rs.rank)
                target = tuple(a + p * b for a, b in zip(shifted, lam))
                if not rs.is_dominant(target):
                    continue
                table = g1_cohomology_char(rs, word, lam, p, i_max=6)
                for i, ch in table.items():
                    if i >= ell and (i - ell) % 2 == 0:
                        expected = module_euler(
                            rs, sym_power_char(whole, (i - ell) // 2), lam
                        )
                        ok &= ch == expected and bool(ch)
                    else:
                        ok &= not ch
    _report(11, "Frobenius-kernel cohomology characters match on the support set",
            ok, time.monotonic() - start, 30.0)
