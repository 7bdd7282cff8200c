"""Chart splitting functions for SL_{n+1}: construction, splitting checks,
homogeneous component, compatibility, canonical condition, parabolic case."""

import itertools
import os
import random
import subprocess
import sys

import pytest

import flagsplit
from flagsplit import slnsplit
from flagsplit.errors import InputError, InvariantError, ResourceLimitError
from flagsplit.fpoly import (
    DEFAULT_TERM_CAP,
    SparsePolynomial,
    SplittingCheck,
    is_splitting_function,
)
from flagsplit.slnsplit import (
    build_chart_function,
    build_mvk_component,
    build_parabolic_chart_function,
    canonical_check,
    compat_check,
    levi_x_ideal,
    mvk_component,
    splitting_check,
    springer_equivariance_ok,
)

from flagsplit.verify import RunConfig, suite_sln

from oracles import (
    big_cell_slice,
    canonical_by_substitution,
    chart_by_conjugation,
    chart_weight_by_cartan_rows,
    compat_by_enumeration,
    conjugated_chart_matrix,
    det_by_laplace,
    mul_by_tuples,
    rank1_chart_by_conjugation,
    rank1_chart_closed_form,
    substitute_by_tuples,
    unipotent_inverse_by_neumann,
    x_slice_by_truncation,
)


def _nonempty_subsets(n):
    return itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), r) for r in range(1, n + 1)
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank1_closed_form(p):
    cf = build_chart_function(1, p)
    expected = rank1_chart_closed_form(p)
    assert cf.poly.variables == expected.variables
    assert cf.poly.terms == expected.terms
    # independent symbolic conjugation over plain dicts agrees as well
    assert cf.poly.terms == rank1_chart_by_conjugation(p)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])
def test_chart_matches_conjugation_oracle(n, p):
    # the whole chart and its fibre-degree N(p-1) component against symbolic
    # conjugation over plain integer dicts (adjugate inverse, Leibniz minors)
    expected = chart_by_conjugation(n, p)
    cf = build_chart_function(n, p)
    assert cf.poly.variables == expected.variables
    assert cf.poly.terms == expected.terms
    top = cf.num_x * (p - 1)
    component = build_mvk_component(n, p).poly
    assert component.variables == expected.variables
    assert component.terms == {e: c for e, c in expected.terms.items()
                               if sum(e[cf.x_start:]) == top}


def test_rank1_p2_literal():
    cf = build_chart_function(1, 2)
    assert dict(cf.poly.terms) == {(0, 0): 1, (1, 1): 1}


def test_rank1_p3_literal():
    cf = build_chart_function(1, 3)
    # (1 - x y)^2 = 1 + xy + x^2 y^2 mod 3
    assert dict(cf.poly.terms) == {(0, 0): 1, (1, 1): 1, (2, 2): 1}


def test_x_zero_specialisation():
    for n, p in [(1, 3), (2, 2), (2, 3)]:
        cf = build_chart_function(n, p)
        const = cf.x_degree_component(0)
        assert const.is_constant() and const.coefficient((0,) * len(cf.poly.variables)) == 1


@pytest.mark.parametrize("n,p", [(1, 2), (1, 3), (1, 5), (1, 7), (2, 2), (2, 3)])
def test_chart_splitting_criterion(n, p):
    check = is_splitting_function(build_chart_function(n, p).poly)
    assert check.ok, check.witness


def test_chart_function_metadata():
    cf = build_chart_function(2, 3)
    assert cf.num_x == 3 and cf.x_start == 3
    assert cf.is_t_invariant()
    assert cf.max_x_degree() <= cf.num_x * (cf.p - 1)
    # the all-(p-1) monomial is present
    center = (2,) * 6
    assert cf.poly.coefficient(center) != 0


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2)])
def test_springer_equivariance(n, p):
    assert springer_equivariance_ok(n, p)


def test_mvk_rank1():
    # top binomial term: x-degree p-1 component of (1-xy)^(p-1) is (+-1)(xy)^(p-1)
    for p in (2, 3, 5, 7):
        cf = build_chart_function(1, p)
        comp = mvk_component(cf)
        assert list(comp.poly.terms) == [(p - 1, p - 1)]
        assert is_splitting_function(comp.poly).ok
        # the component lives on the same chart
        assert (comp.n, comp.p, comp.positions, comp.x_start, comp.subset) == \
            (cf.n, cf.p, cf.positions, cf.x_start, cf.subset)


def test_mvk_n2():
    for p in (2, 3):
        cf = build_chart_function(2, p)
        comp = mvk_component(cf)
        target = cf.num_x * (p - 1)
        assert all(sum(e[cf.x_start:]) == target for e in comp.poly.terms)
        assert is_splitting_function(comp.poly).ok


# (1,2), (1,3) and every Borel chart size of the benchmark
DIRECT_SIZES = [(1, 2), (1, 3), (2, 2), (2, 3), (2, 5), (2, 7), (2, 11), (2, 13),
                (3, 2), (3, 3), (4, 2)]


@pytest.mark.parametrize("n,p", DIRECT_SIZES)
def test_direct_component_equals_chart_component(n, p):
    cf = build_chart_function(n, p)
    comp = mvk_component(cf)
    direct = build_mvk_component(n, p)
    assert direct.poly.variables == comp.poly.variables
    assert direct.poly.terms == comp.poly.terms
    assert direct == comp
    # the monomials the criterion reads all lie in the component, so it
    # gives the same verdict and witness on both
    congruent = [e for e in cf.poly.terms if all(x % p == p - 1 for x in e)]
    assert congruent and all(e in direct.poly.terms for e in congruent)
    assert is_splitting_function(direct.poly) == is_splitting_function(cf.poly)
    assert splitting_check(n, p) == (cf.poly.variables, is_splitting_function(cf.poly))


@pytest.mark.parametrize("n,p", DIRECT_SIZES)
def test_direct_component_equals_conjugation_oracle(n, p):
    # prod_s Delta_s(g X g^{-1})^(p-1), g X g^{-1} formed by conjugation and
    # its leading minors by Laplace expansion
    gxg = conjugated_chart_matrix(n, p)
    want = SparsePolynomial.constant(p, gxg[0][0].variables, 1)
    for s in range(1, n + 1):
        want = want.mul(det_by_laplace([row[:s] for row in gxg[:s]]).power(p - 1))
    assert build_mvk_component(n, p).poly == want


def test_direct_component_reach_n3_p5():
    # the whole (3,5) chart has 2.84M terms and is refused by the default cap
    comp = build_mvk_component(3, 5)
    assert comp.poly.term_count() == 9056
    assert is_splitting_function(comp.poly).ok
    for subset in _nonempty_subsets(3):
        assert compat_check(comp, subset).ok, subset


def test_direct_component_reach_n3_p7():
    comp = build_mvk_component(3, 7)
    assert comp.poly.term_count() == 67777
    assert is_splitting_function(comp.poly).ok


def test_direct_component_checks_conjugation(monkeypatch):
    # an inverse off by one entry makes ((I + X) g^{-1}) g differ from I + X,
    # on the Borel chart and on the parabolic chart of {1} alike
    inverse = slnsplit._unipotent_inverse

    def broken(g, term_cap):
        h = inverse(g, term_cap)
        h[2][0] = h[2][0].scale(2)
        return h

    monkeypatch.setattr(slnsplit, "_unipotent_inverse", broken)
    for call in (build_mvk_component, canonical_check, lambda n, p: splitting_check(n, p, [1])):
        with pytest.raises(InvariantError, match="is not the inverse of g"):
            call(2, 3)


def test_direct_component_checks_conjugation_under_optimisation():
    script = (
        "from flagsplit import slnsplit\n"
        "from flagsplit.errors import InvariantError\n"
        "inverse = slnsplit._unipotent_inverse\n"
        "def broken(g, cap):\n"
        "    h = inverse(g, cap)\n"
        "    h[1][0] = h[1][0].scale(2)\n"
        "    return h\n"
        "slnsplit._unipotent_inverse = broken\n"
        "for call in (slnsplit.build_mvk_component, slnsplit.canonical_check,\n"
        "             lambda n, p: slnsplit.splitting_check(n + 1, p, [2])):\n"
        "    try:\n"
        "        call(1, 3)\n"
        "    except InvariantError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(flagsplit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert run.returncode == 0


def test_levi_ideal_positions():
    cf = build_chart_function(2, 2)
    ideal = levi_x_ideal(cf, [1])
    (gen,) = ideal.generators
    assert cf.poly.variables[gen] == "x12"
    ideal = levi_x_ideal(cf, [2])
    (gen,) = ideal.generators
    assert cf.poly.variables[gen] == "x23"
    assert levi_x_ideal(cf, []) is None
    with pytest.raises(InputError):
        levi_x_ideal(cf, [3])


def test_compat_n2_p2():
    comp = mvk_component(build_chart_function(2, 2))
    assert compat_check(comp, [1]).ok
    assert compat_check(comp, [2]).ok
    assert compat_check(comp, []).ok          # empty subset is vacuous
    assert compat_check(comp, [1, 2]).ok      # whole set: ideal of all x's


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (2, 5), (3, 2)])
def test_compat_matches_enumeration(n, p):
    cf = build_chart_function(n, p)
    comp = mvk_component(cf)
    for subset in _nonempty_subsets(n):
        got = compat_check(comp, subset)
        want = compat_by_enumeration(comp.poly, levi_x_ideal(cf, subset))
        assert (got.ok, got.witness_exponent, got.witness_trace) == \
            (want.ok, want.witness_exponent, want.witness_trace), subset


def test_compat_reach_n3_p3():
    # 3^12 exponent vectors: beyond the enumeration's default cap
    comp = mvk_component(build_chart_function(3, 3))
    for subset in _nonempty_subsets(3):
        assert compat_check(comp, subset).ok, subset


@pytest.mark.parametrize("subset", [[2], [1, 2, 3, 4]])
def test_compat_reach_n4_p2(subset):
    # 2^20 exponent vectors: beyond the enumeration's default cap
    assert compat_check(mvk_component(build_chart_function(4, 2)), subset).ok


def test_canonical_rank1():
    for p in (2, 3, 5):
        res = canonical_check(1, p)
        assert res.ok and res.t_invariant
        (direction,) = res.directions
        assert direction.t_degree == p - 1
        assert direction.degree_ok and direction.weights_ok


def test_canonical_n2_p2():
    res = canonical_check(2, 2)
    assert res.ok and res.t_invariant
    assert len(res.directions) == 2
    assert all(d.t_degree <= 1 for d in res.directions)


@pytest.mark.parametrize("n,p", [(2, 5), (3, 2)])
def test_canonical_substitutions_match_tuple_oracle(monkeypatch, n, p):
    # every row substitution the substitution oracle of the canonical
    # condition makes, checked against the tuple-loop substitution
    substitute = SparsePolynomial.substitute
    names = []

    def checked(self, name, replacement, term_cap=DEFAULT_TERM_CAP):
        got = substitute(self, name, replacement, term_cap)
        assert got == substitute_by_tuples(self, name, replacement, term_cap), name
        names.append(name)
        return got

    cf = build_chart_function(n, p)
    monkeypatch.setattr(SparsePolynomial, "substitute", checked)
    assert canonical_by_substitution(cf).ok
    assert len(names) == n * (n + 1) // 2


# the cases where the whole chart is small enough to substitute into
CANONICAL_SIZES = [(1, 2), (1, 3), (1, 7), (2, 2), (2, 3), (2, 5), (2, 7), (3, 2), (3, 3)]


@pytest.mark.parametrize("n,p", CANONICAL_SIZES)
def test_canonical_matches_substitution_oracle(n, p):
    assert canonical_check(n, p) == canonical_by_substitution(build_chart_function(n, p))


@pytest.mark.parametrize("n,p", [(3, 5), (4, 3)])
def test_canonical_reach(n, p):
    # the (3,5) and (4,3) charts are refused by the default term cap
    res = canonical_check(n, p)
    assert res.ok and res.t_invariant
    assert [d.t_degree for d in res.directions] == [p - 1] * n


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chart_minors_match_conjugation_oracle(n):
    # every minor lies on rows 1..k, which the lower unitriangular g leaves
    # alone, so (I + X) g^{-1} has the table of g (I + X) g^{-1}
    for p in (2, 3):
        for subset in itertools.chain([()], _nonempty_subsets(n)):
            gxg = conjugated_chart_matrix(n, p, subset)
            conj = slnsplit._mat_add(slnsplit._mat_identity(gxg[0][0], n + 1), gxg)
            for width in (n, n + 1):
                _, deltas, table = slnsplit._chart_minors(
                    n, p, frozenset(subset), width, DEFAULT_TERM_CAP)
                assert table == slnsplit._minor_table(conj, width, DEFAULT_TERM_CAP), \
                    (p, subset, width)
                assert deltas == [table[(1 << s) - 1] for s in range(1, n + 1)]


def _minor_cases():
    # the block-permuted I + g X g^{-1} of every chart and the Borel g X g^{-1},
    # both formed by conjugation, and the Borel (I + X) g^{-1} and X g^{-1}
    for n in range(1, 5):
        for p in (2, 3):
            for subset in itertools.chain([()], _nonempty_subsets(n)):
                gxg = conjugated_chart_matrix(n, p, subset)
                ident = slnsplit._mat_identity(gxg[0][0], n + 1)
                yield (n, p, subset), slnsplit._mat_add(ident, gxg)
            yield (n, p, "gxg"), conjugated_chart_matrix(n, p)
            _, g, x = slnsplit._chart_matrices(n, p, frozenset())
            g_inv = slnsplit._unipotent_inverse(g, DEFAULT_TERM_CAP)
            ident = slnsplit._mat_identity(g[0][0], n + 1)
            yield (n, p, "(I+X)g^-1"), slnsplit._mat_mul(
                slnsplit._mat_add(ident, x), g_inv, DEFAULT_TERM_CAP)
            yield (n, p, "Xg^-1"), slnsplit._mat_mul(x, g_inv, DEFAULT_TERM_CAP)


def test_minor_table_matches_laplace_oracle():
    for case, m in _minor_cases():
        size = len(m)
        table = slnsplit._minor_table(m, size, DEFAULT_TERM_CAP)
        for s in range(1, size):
            leading = [row[:s] for row in m[:s]]
            assert table[(1 << s) - 1] == det_by_laplace(leading), (case, s)
            shifted = [row[:s - 1] + [row[s]] for row in m[:s]]
            assert table[((1 << (s - 1)) - 1) | (1 << s)] == det_by_laplace(shifted), (case, s)
        # the chart's table stops at its last leading minor's columns
        assert slnsplit._minor_table(m, size - 1, DEFAULT_TERM_CAP).items() <= table.items()


def test_chart_weights_match_cartan_row_oracle():
    rng = random.Random(31)
    for n in range(1, 5):
        for subset in itertools.chain([()], _nonempty_subsets(n)):
            cf = build_parabolic_chart_function(n, 2, subset)
            nvars = len(cf.positions)
            # the variable names follow the positions, x-variables last
            for k, (i, j) in enumerate(cf.positions):
                assert cf.poly.variables[k] == f"{'x' if k >= cf.x_start else 'y'}{i}{j}"
                assert (i < j) == (k >= cf.x_start)
            monomials = [tuple(int(k == v) for k in range(nvars)) for v in range(nvars)]
            monomials += [tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(40)]
            for e in monomials:
                assert cf.monomial_weight(e) == chart_weight_by_cartan_rows(cf, e), (n, subset, e)


def test_parabolic_empty_subset_reduces_to_main():
    for n, p in [(1, 3), (2, 2)]:
        assert build_parabolic_chart_function(n, p, []).poly == \
            build_chart_function(n, p).poly


@pytest.mark.parametrize("subset", [[1], [2]])
@pytest.mark.parametrize("p", [2, 3])
def test_parabolic_splitting(subset, p):
    cf = build_parabolic_chart_function(2, p, subset)
    assert len(cf.poly.variables) == 4
    assert is_splitting_function(cf.poly).ok
    # weight-zero monomials on the sub-chart as well
    assert cf.is_t_invariant()


def test_parabolic_frozen_p2():
    # frozen from the hand computation of the permuted-minor product
    cf = build_parabolic_chart_function(2, 2, [1])
    assert set(cf.poly.variables) == {"y31", "y32", "x13", "x23"}
    by_name = {
        tuple(
            sorted(v for v, e in zip(cf.poly.variables, exp) for _ in range(e))
        ): c
        for exp, c in cf.poly.terms.items()
    }
    assert by_name == {
        (): 1,
        ("x13", "y31"): 1,
        ("x23", "x23", "y32", "y32"): 1,
        ("x13", "x23", "y31", "y32"): 1,
    }


def test_parabolic_x_zero_constant():
    cf = build_parabolic_chart_function(2, 3, [2])
    const = cf.x_degree_component(0)
    assert const.is_constant() and const.coefficient((0,) * len(cf.poly.variables)) == 1


def test_input_validation():
    with pytest.raises(InputError):
        build_chart_function(0, 2)
    with pytest.raises(InputError):
        build_chart_function(1, 4)
    with pytest.raises(InputError):
        build_parabolic_chart_function(2, 2, [5])
    for n, p in [(0, 2), (9, 2), (-1, 2), (1, 4)]:
        with pytest.raises(InputError):
            build_mvk_component(n, p)
        with pytest.raises(InputError):
            canonical_check(n, p)
        with pytest.raises(InputError):
            springer_equivariance_ok(n, p)


def test_n3_beyond_acceptance_guards():
    # 12-variable chart for SL4; everything still holds
    cf = build_chart_function(3, 2)
    assert cf.poly.term_count() == 528
    assert is_splitting_function(cf.poly).ok
    assert cf.is_t_invariant()
    assert cf.max_x_degree() == cf.num_x == 6
    comp = mvk_component(cf)
    assert is_splitting_function(comp.poly).ok
    assert compat_check(comp, [2]).ok
    assert compat_check(comp, [1, 3]).ok
    assert canonical_check(3, 2).ok


@pytest.mark.parametrize("n,p", [(4, 2), (2, 13)])
def test_chart_matches_tuple_product(n, p, monkeypatch):
    packed = build_chart_function(n, p).poly
    monkeypatch.setattr(SparsePolynomial, "mul", mul_by_tuples)
    by_tuples = slnsplit._build_chart(n, p, frozenset(), DEFAULT_TERM_CAP).poly
    assert packed.variables == by_tuples.variables
    assert packed.terms == by_tuples.terms


def _count_builds(monkeypatch) -> list:
    built = []
    build = slnsplit._build_chart

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(slnsplit, "_build_chart", counting)
    return built


def test_verify_sln_builds_each_chart_once(monkeypatch):
    built = _count_builds(monkeypatch)
    checks = suite_sln(RunConfig(), n=3, p=2)
    assert all(c.status == "pass" for c in checks), checks
    # the parabolic charts are decided on the centre coefficient, not built
    keys = [(n, p, subset) for n, p, subset, _ in built]
    assert keys == [(3, 2, frozenset())]


def test_verify_sln_builds_the_direct_component_once(monkeypatch):
    built = _count_builds(monkeypatch)
    direct = []
    component = slnsplit.build_mvk_component
    monkeypatch.setattr(slnsplit, "build_mvk_component",
                        lambda *args, **kw: direct.append(args) or component(*args, **kw))
    checks = suite_sln(RunConfig(), n=3, p=2)
    assert all(c.status == "pass" for c in checks), checks
    assert ("sln.homogeneous_component[n=3,p=2]", "pass", "") in \
        [(c.name, c.status, c.detail) for c in checks]
    assert direct == [(3, 2)]
    assert len(built) == len(set(args[:3] for args in built)) == 1


def test_verify_sln_flags_a_direct_component_that_differs(monkeypatch):
    component = slnsplit.build_mvk_component

    def shifted(n, p, term_cap):
        comp = component(n, p, term_cap)
        one = SparsePolynomial.constant(p, comp.poly.variables, 1)
        return comp._replace(poly=comp.poly + one)

    monkeypatch.setattr(slnsplit, "build_mvk_component", shifted)
    checks = {c.name: c for c in suite_sln(RunConfig(), n=2, p=2)}
    homogeneous = checks["sln.homogeneous_component[n=2,p=2]"]
    assert (homogeneous.status, homogeneous.detail) == \
        ("fail", "the directly built component differs from the chart's")


def test_verify_sln_flags_a_centre_verdict_that_differs(monkeypatch):
    check = slnsplit.splitting_check

    def wrong(n, p, subset=(), term_cap=DEFAULT_TERM_CAP):
        names, res = check(n, p, subset, term_cap)
        return names, SplittingCheck(not res.ok, None if not res.ok else (0,) * len(names))

    monkeypatch.setattr(slnsplit, "splitting_check", wrong)
    checks = {c.name: c for c in suite_sln(RunConfig(), n=2, p=2)}
    criterion = checks["sln.splitting_criterion[n=2,p=2]"]
    assert (criterion.status, criterion.detail) == \
        ("fail", "the chart's verdict differs from the centre coefficient's")


def test_verify_sln_filters_each_component_once(monkeypatch):
    filtered = []
    component = slnsplit.ChartFunction.x_degree_component

    def counting(cf, d):
        filtered.append((cf.n, cf.p, cf.subset, d))
        return component(cf, d)

    monkeypatch.setattr(slnsplit.ChartFunction, "x_degree_component", counting)
    checks = suite_sln(RunConfig(), n=3, p=2)
    assert all(c.status == "pass" for c in checks), checks
    assert filtered == [(3, 2, frozenset(), 6)]
    cf = build_chart_function(3, 2)
    assert mvk_component(cf).poly.terms == component(cf, 6).terms


def test_verify_sln_refused_chart_is_built_once(monkeypatch):
    # each check on the Borel chart once attempted the refused build again;
    # the criterion and the parabolic splittings run on the centre
    # coefficient, which fits under the cap
    built = _count_builds(monkeypatch)
    checks = suite_sln(RunConfig(term_cap=100), n=3, p=3)
    assert [args[:3] for args in built].count((3, 3, frozenset())) == 1
    refused = "resource guard: product exceeds term cap 100"
    assert [(c.name, c.status, c.detail) for c in checks] == [
        ("sln.springer_equivariance[n=3,p=3]", "pass", ""),
        ("sln.weight_zero_and_degree_bound[n=3,p=3]", "skip", refused),
        ("sln.splitting_criterion[n=3,p=3]", "pass", ""),
        ("sln.homogeneous_component[n=3,p=3]", "skip", refused),
        ("sln.parabolic_compatibility[n=3,p=3]", "skip", refused),
        # decided from the minors, which fit under the cap
        ("sln.canonical_condition[n=3,p=3]", "pass", ""),
        ("sln.parabolic_splitting[n=3,p=3]", "pass", ""),
    ]


def test_compat_empty_subset_builds_nothing(monkeypatch):
    comps = [mvk_component(build_chart_function(n, p)) for n, p in [(3, 2), (2, 3)]]
    built = _count_builds(monkeypatch)
    assert compat_check(comps[0], []).ok
    assert compat_check(comps[1], ()).ok
    assert built == []


def test_unipotent_inverse_matches_neumann_oracle():
    for n in range(1, 6):
        for subset in itertools.chain([()], _nonempty_subsets(n)):
            for p in (2, 3):
                _, g, _ = slnsplit._chart_matrices(n, p, frozenset(subset))
                got = slnsplit._unipotent_inverse(g, DEFAULT_TERM_CAP)
                assert got == unipotent_inverse_by_neumann(g), (n, subset, p)


def test_x_zero_identity_is_checked(monkeypatch):
    # minors that vanish at X=0 make the chart 0 there instead of 1
    minor_table = slnsplit._minor_table

    def broken(m, width, term_cap):
        return {
            cols: d - SparsePolynomial.constant(d.p, d.variables, 1)
            for cols, d in minor_table(m, width, term_cap).items()
        }

    monkeypatch.setattr(slnsplit, "_minor_table", broken)
    for call in (build_chart_function, build_mvk_component, canonical_check,
                 lambda n, p: splitting_check(n, p, [1])):
        with pytest.raises(InvariantError, match="leading minor 1 .* is not 1 at X=0"):
            call(2, 3)


def test_x_zero_identity_is_checked_under_optimisation():
    script = (
        "from flagsplit import slnsplit\n"
        "from flagsplit.errors import InvariantError\n"
        "minor_table = slnsplit._minor_table\n"
        "slnsplit._minor_table = lambda m, width, cap: {\n"
        "    cols: d.scale(0) for cols, d in minor_table(m, width, cap).items()}\n"
        "for call in (slnsplit.build_chart_function, slnsplit.build_mvk_component,\n"
        "             slnsplit.canonical_check,\n"
        "             lambda n, p: slnsplit.splitting_check(n + 1, p, [1])):\n"
        "    try:\n"
        "        call(1, 2)\n"
        "    except InvariantError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(flagsplit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert run.returncode == 0


# every subset, the empty one and the multi-element ones included
SLICE_SIZES = [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)]


@pytest.mark.parametrize("n,p", SLICE_SIZES)
def test_splitting_check_matches_chart(n, p, monkeypatch):
    built = _count_builds(monkeypatch)
    for subset in itertools.chain([()], _nonempty_subsets(n)):
        cf = build_parabolic_chart_function(n, p, subset)
        # the top x-degree is N'(p-1), so f is never multiplied out
        assert cf.max_x_degree() == cf.num_x * (p - 1), subset
        del built[:]
        names, check = splitting_check(n, p, subset)
        assert built == [], subset
        assert names == cf.poly.variables, subset
        assert check == is_splitting_function(cf.poly), subset


def test_splitting_check_term_cap_bounds_the_powers():
    # at (2,13) the top part of Delta_1 has 3 terms and its 12th power 91,
    # while every partial product of the centre coefficient has one
    with pytest.raises(ResourceLimitError):
        splitting_check(2, 13, term_cap=90)
    assert splitting_check(2, 13, term_cap=91)[1].ok


@pytest.mark.parametrize("n,p", [(4, 5), (6, 2), (5, 3)])
def test_splitting_check_reaches_the_largest_borel_charts(n, p):
    # the centre coefficient is 1 here under the default term cap; a single
    # chain of the factors' products took seconds at (4,5) and (6,2) and
    # passed the cap at (5,3)
    assert splitting_check(n, p)[1] == SplittingCheck(True)


def _patch_leading_minor(monkeypatch, s, change):
    minor_table = slnsplit._minor_table

    def patched(m, width, term_cap):
        table = minor_table(m, width, term_cap)
        mask = (1 << s) - 1
        return {**table, mask: change(table[mask])}

    monkeypatch.setattr(slnsplit, "_minor_table", patched)


def test_splitting_check_falls_back_above_the_top_degree(monkeypatch):
    # Delta_1 + y31 x12 x23 still is 1 at X=0 and of weight 0, but lifts f's
    # top x-degree above N'(p-1), where the centre coefficient no longer
    # decides the criterion: f is multiplied out from the minors, and no
    # chart is built
    _patch_leading_minor(monkeypatch, 1, lambda d: d + SparsePolynomial.monomial(
        3, d.variables, [0, 1, 0, 1, 0, 1]))
    cf = slnsplit._build_chart(2, 3, frozenset(), DEFAULT_TERM_CAP)
    assert cf.poly.variables[1::2] == ("y31", "x12", "x23")
    assert cf.max_x_degree() > cf.num_x * 2
    assert cf.is_t_invariant()
    built = _count_builds(monkeypatch)
    assert splitting_check(2, 3) == (cf.poly.variables, is_splitting_function(cf.poly))
    assert built == []


def test_splitting_check_refuses_a_non_homogeneous_minor(monkeypatch):
    # Delta_1 + x12 keeps its top x-degree and is still 1 at X=0, but x12 has
    # weight alpha_1 and Delta_1 weight 0: the minors break the torus'
    # invariance, which is raised, not worked round by building the chart
    _patch_leading_minor(monkeypatch, 1, lambda d: d + SparsePolynomial.monomial(
        3, d.variables, [0, 0, 0, 1, 0, 0]))
    cf = slnsplit._build_chart(2, 3, frozenset(), DEFAULT_TERM_CAP)
    assert cf.max_x_degree() == cf.num_x * 2
    assert not cf.is_t_invariant()
    # no weight of the patched Delta_1 certifies it, whichever is asked for
    (_, positions, _), deltas, _ = slnsplit._chart_minors(2, 3, frozenset(), 2, DEFAULT_TERM_CAP)
    weights = {cf.monomial_weight(e) for e in deltas[0].terms}
    assert len(weights) == 2
    assert all(slnsplit._weight_certificate(2, positions, deltas[:1], w) is None for w in weights)
    built = _count_builds(monkeypatch)
    with pytest.raises(InvariantError, match="not homogeneous with weights summing to 0"):
        splitting_check(2, 3)
    assert built == []


def test_splitting_check_below_the_top_degree_fails_at_the_centre(monkeypatch):
    # Delta_2 = 1 lowers f's top x-degree below N'(p-1): no congruent monomial
    _patch_leading_minor(monkeypatch, 2, lambda d: SparsePolynomial.constant(3, d.variables, 1))
    cf = slnsplit._build_chart(2, 3, frozenset(), DEFAULT_TERM_CAP)
    assert cf.max_x_degree() < cf.num_x * 2
    built = _count_builds(monkeypatch)
    _, check = splitting_check(2, 3)
    assert check == is_splitting_function(cf.poly) == SplittingCheck(False, (2,) * 6)
    assert built == []


def test_splitting_check_checks_both_invariants(monkeypatch):
    with monkeypatch.context() as m:
        _patch_leading_minor(m, 2, lambda d: d + SparsePolynomial.constant(3, d.variables, 1))
        with pytest.raises(InvariantError, match="leading minor 2 .* X=0"):
            splitting_check(3, 3, [1])
    inverse = slnsplit._unipotent_inverse

    def broken(g, term_cap):
        h = inverse(g, term_cap)
        h[2][0] = h[2][0].scale(2)
        return h

    monkeypatch.setattr(slnsplit, "_unipotent_inverse", broken)
    with pytest.raises(InvariantError, match="is not the inverse of g"):
        splitting_check(2, 3)


def test_splitting_check_invariants_under_optimisation():
    script = (
        "from flagsplit import slnsplit\n"
        "from flagsplit.errors import InvariantError\n"
        "minor_table, inverse = slnsplit._minor_table, slnsplit._unipotent_inverse\n"
        "def broken(g, cap):\n"
        "    h = inverse(g, cap)\n"
        "    h[1][0] = h[1][0].scale(2)\n"
        "    return h\n"
        "def inhomogeneous(m, width, cap):\n"
        "    table = minor_table(m, width, cap)\n"
        "    d = table[1]\n"
        "    return {**table, 1: d + d.monomial(d.p, d.variables, [0, 1])}\n"
        "for name, patch in [\n"
        "    ('_minor_table', lambda m, width, cap: {\n"
        "        cols: d.scale(0) for cols, d in minor_table(m, width, cap).items()}),\n"
        "    ('_unipotent_inverse', broken), ('_minor_table', inhomogeneous)]:\n"
        "    setattr(slnsplit, name, patch)\n"
        "    try:\n"
        "        slnsplit.splitting_check(1, 3)\n"
        "    except InvariantError:\n"
        "        pass\n"
        "    else:\n"
        "        raise SystemExit(1)\n"
        "    slnsplit._minor_table, slnsplit._unipotent_inverse = minor_table, inverse\n"
    )
    src = os.path.dirname(os.path.dirname(flagsplit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert run.returncode == 0


def test_chart_helpers_read_wide_layouts():
    # an exponent of 200 puts the keys in two-byte fields; the parts that
    # drop it are back in one-byte fields, as the same terms built directly
    names = ("y21", "x12")
    f = SparsePolynomial(3, names, {(200, 1): 1, (0, 2): 2, (1, 2): 1})
    part = slnsplit._x_part(f, 1, 2)
    assert part == SparsePolynomial(3, names, {(0, 2): 2, (1, 2): 1}) and part.width == 1
    assert slnsplit._x_part(f, 1, 1) == SparsePolynomial(3, names, {(200, 1): 1})


@pytest.mark.parametrize("n,p", [(2, 3), (3, 2), (3, 3), (4, 2), (3, 5), (4, 3)])
def test_slice_is_the_big_cell_splitting(n, p, monkeypatch):
    # the coefficient of x^(p-1) in the Borel chart is the Mehta-Ramanathan
    # splitting prod_s B_s(g)^(p-1) of the big cell, in the y-variables, and
    # its y^(p-1) coefficient is the centre coefficient splitting_check reads
    names, slice_ = x_slice_by_truncation(n, p)
    oracle = big_cell_slice(n, p)
    ny = len(oracle.variables)
    assert names[:ny] == oracle.variables
    assert all(e[ny:] == (p - 1,) * (len(names) - ny) for e in slice_.terms)
    assert {e[:ny]: c for e, c in slice_.terms.items()} == oracle.terms
    centres, centre = [], slnsplit._centre_coefficient
    monkeypatch.setattr(slnsplit, "_centre_coefficient",
                        lambda factors, cap: centres.append(centre(factors, cap)) or centres[-1])
    assert splitting_check(n, p)[0] == names
    assert centres == [oracle.coefficient((p - 1,) * ny)] != [0]


@pytest.mark.parametrize("n,p", [(3, 5), (4, 3), (5, 2)])
def test_splitting_check_matches_the_slice_oracle(n, p, monkeypatch):
    # beyond SLICE_SIZES no chart is built; the x^(p-1) slice still is
    built = _count_builds(monkeypatch)
    for subset in itertools.chain([()], _nonempty_subsets(n)):
        names, slice_ = x_slice_by_truncation(n, p, frozenset(subset))
        assert splitting_check(n, p, subset) == (names, is_splitting_function(slice_)), subset
    assert built == []
