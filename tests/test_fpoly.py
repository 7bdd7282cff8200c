"""Polynomial arithmetic mod p, the trace operator, splitting criterion,
ideal compatibility and the file format."""

import itertools
import json
import random
import re
from collections import Counter

import pytest

from flagsplit import charalg, fpoly, slnsplit, verify
from flagsplit.errors import InputError, ResourceLimitError
from flagsplit.fpoly import (
    DEFAULT_TERM_CAP,
    PrimeField,
    SparsePolynomial,
    VariableIdeal,
    frobenius_trace,
    is_prime,
    is_splitting_function,
    load_poly,
    poly_from_json_obj,
    poly_to_json_obj,
    save_poly,
    splits_ideal_compatibly,
)
from flagsplit.rootdata import ReductionTrace, build_root_system, parabolic_subset
from flagsplit.slnsplit import build_chart_function

from oracles import (
    compat_by_enumeration,
    mul_by_tuples,
    random_poly_by_randint,
    shift_monomials_by_randint,
    substitute_by_tuples,
    trace_by_product,
)


def mk(p, names, terms):
    return SparsePolynomial(p, names, terms)


def test_prime_field():
    assert PrimeField(2).p == 2 == PrimeField(p=2).p
    for bad in (1, "7", 2**31 + 11):
        with pytest.raises(InputError, match=re.escape(
                f"characteristic must be an integer in [2, 2^31], got {bad}")):
            PrimeField(bad)
    with pytest.raises(InputError, match="^6 is not prime$"):
        PrimeField(6)
    assert is_prime(2) and is_prime(97) and not is_prime(91)
    # the largest allowed characteristic
    assert PrimeField(2**31 - 1).p == 2**31 - 1


def test_variable_ideal():
    assert VariableIdeal((0, 2)).generators == (0, 2) == VariableIdeal(generators=(0, 2)).generators
    with pytest.raises(InputError, match="^a variable ideal needs at least one generator$"):
        VariableIdeal(())
    with pytest.raises(InputError, match="^duplicate generators$"):
        VariableIdeal((1, 0, 1))
    f = mk(3, ("x", "y", "z"), {(0, 0, 0): 1})
    assert VariableIdeal.from_names(f, ["z", "x"]) == VariableIdeal((0, 2))
    assert VariableIdeal((0, 2)).contains_monomial((0, 1, 3))
    assert not VariableIdeal((0, 2)).contains_monomial((0, 1, 0))


def _records():
    # (record, its repr): one instance of each record type of the library
    A1, A2 = build_root_system("A", 1), build_root_system("A", 2)
    graded = charalg.GradedCharacter(((0, charalg.Character.zero(A1)),))
    dec = charalg.GoodFiltrationDecomposition(True, (((1,), 1),))
    chart = slnsplit.build_chart_function(1, 2)
    direction = slnsplit.DirectionReport(1, 1, True, True)
    config = verify.RunConfig()
    result = verify.CheckResult("sln.x", "pass")
    config_repr = ("RunConfig(term_cap=1000000, dim_cap=1000000, weyl_order_cap=1152, "
                   "enum_cap=1000000, seed=0, rank_cap=3)")
    result_repr = "CheckResult(name='sln.x', status='pass', detail='', elapsed_s=0.0)"
    return [
        (graded, "GradedCharacter(pieces=((0, Character()),))"),
        (dec, "GoodFiltrationDecomposition(ok=True, entries=(((1,), 1),), "
              "failure_weight=None, failure_mult=None)"),
        (charalg.GradedSectionChar(graded, ((0, dec),)),
         f"GradedSectionChar(graded={graded!r}, decompositions=((0, {dec!r}),))"),
        (charalg.KoszulReport(True, True, False, True, {(0, 0): 1}),
         "KoszulReport(ok=True, identity_ok=True, vanishing_applicable=False, "
         "vanishing_ok=True, parabolic_term={(0, 0): 1})"),
        (PrimeField(7), "PrimeField(p=7)"),
        (fpoly.SplittingCheck(False, (1, 1)), "SplittingCheck(ok=False, witness=(1, 1))"),
        (VariableIdeal((0, 2)), "VariableIdeal(generators=(0, 2))"),
        (fpoly.CompatibilityCheck(False, (1,), mk(2, ("x",), {(0,): 1})),
         "CompatibilityCheck(ok=False, witness_exponent=(1,), witness_trace=1)"),
        (ReductionTrace((1,), ((-1,),), "dominant", (1,), 0),
         "ReductionTrace(steps=(1,), intermediates=((-1,),), outcome='dominant', "
         "dominant_weight=(1,), remaining_degree=0)"),
        (parabolic_subset(A2, [1]), "ParabolicSubset(RootSystem(A2), I=[1])"),
        (chart, f"ChartFunction(poly={chart.poly!r}, n=1, p=2, positions=((2, 1), (1, 2)), "
                "x_start=1, subset=frozenset())"),
        (direction, "DirectionReport(simple_index=1, t_degree=1, degree_ok=True, weights_ok=True)"),
        (slnsplit.CanonicalCheck(False, True, (direction,)),
         f"CanonicalCheck(ok=False, t_invariant=True, directions=({direction!r},))"),
        (config, config_repr),
        (result, result_repr),
        (verify.Report("verify sln", config, [result], 0.5),
         f"Report(command='verify sln', config={config_repr}, checks=[{result_repr}], "
         "elapsed_s=0.5)"),
    ]


@pytest.mark.parametrize("record, text", [pytest.param(*case, id=type(case[0]).__name__)
                                          for case in _records()])
def test_records_are_immutable_values(record, text):
    # frozen values, hashed and shown as the former frozen dataclasses were;
    # verify's three records were mutable and unhashable, and are now neither
    assert record == record and repr(record) == text
    values = tuple(getattr(record, name) for name in record._fields)
    try:
        want = hash(values)
    except TypeError:   # a dict, list, Character or polynomial field
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], values[0])
    assert record._replace() == record


def test_check_records_are_true_iff_ok():
    direction = slnsplit.DirectionReport(1, 1, True, True)
    for ok in (True, False):
        assert bool(fpoly.SplittingCheck(ok)) is ok
        assert bool(fpoly.CompatibilityCheck(ok)) is ok
        assert bool(slnsplit.CanonicalCheck(ok, True, (direction,))) is ok


def test_arithmetic_does_not_revalidate_the_characteristic(monkeypatch):
    from flagsplit import fpoly
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(fpoly, "is_prime", counting)
    p = 2**31 - 1
    names = ("x", "y")
    x = SparsePolynomial.variable(p, names, "x")
    y = SparsePolynomial.variable(p, names, "y")
    assert calls == [p, p]
    calls.clear()
    s = (x + y) ** 20
    results = [
        s, x - y, -x, x.scale(3), x.scale(p), x.mul(y), x * y,
        s.substitute("y", x - y), frobenius_trace(s, x), x ** 0,
    ]
    assert calls == []
    assert results[-1] == SparsePolynomial.constant(p, names, 1)
    assert s.coefficient((10, 10)) == 184756   # C(20, 10) < p
    assert results[4].is_zero()


def test_public_constructors_check_the_characteristic():
    obj = {"p": 6, "vars": ["x"], "terms": [{"e": [1], "c": 1}]}
    for build in (
        lambda: SparsePolynomial(6, ("x",)),
        lambda: SparsePolynomial.constant(6, ("x",), 1),
        lambda: SparsePolynomial.variable(6, ("x",), "x"),
        lambda: SparsePolynomial.monomial(6, ("x",), (1,)),
        lambda: poly_from_json_obj(obj),
    ):
        with pytest.raises(InputError, match="6 is not prime"):
            build()


def test_add_mul_basic():
    names = ("x",)
    one = SparsePolynomial.constant(5, names, 1)
    x = SparsePolynomial.variable(5, names, "x")
    prod = (one + x) * (one - x)
    assert dict(prod.terms) == {(0,): 1, (2,): 4}   # 1 - x^2 mod 5


def test_freshmans_dream():
    names = ("x",)
    one = SparsePolynomial.constant(3, names, 1)
    x = SparsePolynomial.variable(3, names, "x")
    cube = (one + x) ** 3
    assert dict(cube.terms) == {(0,): 1, (3,): 1}


def test_substitute():
    names = ("x", "y", "t")
    p = 7
    x = SparsePolynomial.variable(p, names, "x")
    y = SparsePolynomial.variable(p, names, "y")
    t = SparsePolynomial.variable(p, names, "t")
    f = x * y
    g = f.substitute("y", y - t)
    assert g == x * y - x * t
    # substituting a constant
    h = f.substitute("y", SparsePolynomial.constant(p, names, 2))
    assert h == x.scale(2)


def test_substitute_matches_tuple_oracle_randomised():
    rng = random.Random(4242)
    kinds = dict.fromkeys(["zero", "constant", "self", "other"], 0)
    for _ in range(600):
        p = rng.choice([2, 3, 5, 7])
        nvars = rng.randint(0, 5)
        names = tuple(f"v{i}" for i in range(nvars))
        f = _random_poly(rng, p, nvars, rng.randint(0, 10), rng.randint(0, 4))
        if not nvars:
            for sub in (SparsePolynomial.substitute, substitute_by_tuples):
                with pytest.raises(InputError):
                    sub(f, "v0", f)
            continue
        name = rng.choice(names)
        kind = rng.choice(list(kinds))
        if kind == "zero":
            r = mk(p, names, {})
        elif kind == "constant":
            r = SparsePolynomial.constant(p, names, rng.randint(1, p - 1))
        else:
            r = _random_poly(rng, p, nvars, rng.randint(1, 5), 2)
            if kind == "self":
                r = r + SparsePolynomial.variable(p, names, name)
        idx = names.index(name)
        if kind == "self" and not any(e[idx] for e in r.terms):
            kind = "other"   # the added variable cancelled
        kinds[kind] += 1
        assert f.substitute(name, r) == substitute_by_tuples(f, name, r), (f, name, r)
    assert min(kinds.values()) >= 80, kinds


def test_substitute_term_cap_bounds_partial_products():
    # f = (z^0 + ... + z^19) * x and x -> y^0 + ... + y^19: the power r^1
    # has 20 terms, the partial product f_1 * r has 400
    names = ("x", "y", "z")
    f = mk(5, names, {(1, 0, i): 1 for i in range(20)})
    r = mk(5, names, {(0, j, 0): 1 for j in range(20)})
    assert f.substitute("x", r, term_cap=400).term_count() == 400
    with pytest.raises(ResourceLimitError):
        f.substitute("x", r, term_cap=100)


def test_zero_coefficients_dropped():
    f = mk(3, ("x",), {(1,): 3, (2,): 4})
    assert dict(f.terms) == {(2,): 1}
    assert not mk(2, ("x",), {(5,): 2})


def _repr_by_sorting(f):
    # the repr read off all terms sorted, as it was written before
    if not f.terms:
        return "0"
    bits = []
    for e, c in list(f.sorted_terms())[:8]:
        mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(f.variables, e) if k)
        bits.append(f"{c}*{mono}" if mono else str(c))
    tail = "" if len(f.terms) <= 8 else f" + ... ({len(f.terms)} terms)"
    return " + ".join(bits) + tail


def test_repr_shows_the_eight_smallest_terms():
    names = ("x", "y", "z")
    x, y, z = (SparsePolynomial.variable(7, names, v) for v in names)
    f = (x + y + z + SparsePolynomial.constant(7, names, 1)) ** 3
    assert f.term_count() == 20
    assert repr(f) == ("1 + 3*z + 3*z^2 + 1*z^3 + 3*y + 6*y*z + 3*y*z^2 + 3*y^2"
                       " + ... (20 terms)")
    assert repr(SparsePolynomial(7, names, {})) == "0"
    rng = random.Random(59)
    for _ in range(40):
        g = random_poly_by_randint(rng, 5, names, max_terms=rng.choice((1, 3, 8, 9, 30)))
        assert repr(g) == _repr_by_sorting(g)


def test_mul_term_cap():
    names = ("x", "y")
    f = mk(101, names, {(i, 0): 1 for i in range(50)})
    g = mk(101, names, {(0, j): 1 for j in range(50)})
    with pytest.raises(ResourceLimitError):
        f.mul(g, term_cap=100)


def test_power_term_cap():
    # (x + y)^4 has 5 terms mod 7, its square step (x + y)^2 has 3
    names = ("x", "y")
    s = mk(7, names, {(1, 0): 1, (0, 1): 1})
    assert s.power(4, term_cap=5) == s ** 4 == s * s * s * s
    assert s.power(0, term_cap=0) == SparsePolynomial.constant(7, names, 1)
    with pytest.raises(ResourceLimitError):
        s.power(4, term_cap=4)
    with pytest.raises(ResourceLimitError):
        s.power(2, term_cap=2)
    # a one-term base: every step is an exponent shift of one term, which
    # only a cap of 0 refuses
    m = mk(7, names, {(2, 1): 3})
    assert m.power(5, term_cap=1) == m * m * m * m * m == mk(7, names, {(10, 5): 5})
    with pytest.raises(ResourceLimitError, match="product exceeds term cap 0"):
        m.power(1, term_cap=0)


def _product_or_refusal(mul, a, b, term_cap):
    try:
        res = mul(a, b, term_cap)
    except ResourceLimitError:
        return "refused"
    return res.variables, res.p, res.terms


def _assert_mul_matches_oracle(a, b, term_cap=10**6):
    got = _product_or_refusal(SparsePolynomial.mul, a, b, term_cap)
    assert got == _product_or_refusal(mul_by_tuples, a, b, term_cap)
    return got


def _assert_mul_matches_oracle_at_every_cap(a, b):
    # every cap from "refuse the first row" to "never refuse"; both sides
    # refuse with the same message
    full = _assert_mul_matches_oracle(a, b)
    for cap in range(len(full[2]) + 2):
        got = _assert_mul_matches_oracle(a, b, cap)
        if got == "refused":
            for mul in (SparsePolynomial.mul, mul_by_tuples):
                with pytest.raises(ResourceLimitError, match=f"^product exceeds term cap {cap}$"):
                    mul(a, b, cap)
    return full


def _random_poly(rng, p, nvars, nterms, max_exp):
    return mk(p, tuple(f"v{i}" for i in range(nvars)), {
        tuple(rng.randint(0, max_exp) for _ in range(nvars)): rng.randint(1, p - 1)
        for _ in range(nterms)
    })


def test_mul_matches_tuple_oracle_randomised():
    rng = random.Random(20260)
    for _ in range(400):
        p = rng.choice([2, 3, 5, 13])
        nvars = rng.randint(0, 6)
        a = _random_poly(rng, p, nvars, rng.randint(0, 12), rng.randint(0, 6))
        b = _random_poly(rng, p, nvars, rng.randint(0, 12), rng.randint(0, 6))
        full = _assert_mul_matches_oracle(a, b)
        # every cap from "refuse the first row" to "never refuse"
        for cap in range(len(full[2]) + 2):
            _assert_mul_matches_oracle(a, b, cap)
    # one operand with one term, on either side
    rng = random.Random(20261)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 13])
        nvars = rng.randint(0, 6)
        a = _random_poly(rng, p, nvars, rng.randint(1, 12), rng.randint(0, 6))
        b = _random_poly(rng, p, nvars, 1, rng.randint(0, 6))
        if rng.random() < 0.5:
            a, b = b, a
        _assert_mul_matches_oracle_at_every_cap(a, b)


# largest exponents either side of where a layout's fields widen (127/128 and
# 32767/32768: each field keeps its top bit spare) and of the byte
# boundaries themselves, up to fields of nine bytes
BOUNDARY_TOPS = [127, 128, 255, 256, 32767, 32768, 65535, 65536, 2**64 + 3]


@pytest.mark.parametrize("top", BOUNDARY_TOPS)
def test_mul_field_width_boundaries(top):
    # the largest exponent sum sits on either side of a byte boundary, so
    # the packed fields are as narrow as they can be without carrying
    names = ("x", "y", "z")
    half = top // 2
    a = mk(5, names, {(half, 0, 1): 1, (0, half, 0): 2, (1, 1, 1): 3})
    b = mk(5, names, {(top - half, 1, 0): 4, (0, top - half, top - half): 1, (0, 0, 0): 2})
    _, _, terms = _assert_mul_matches_oracle(a, b)
    assert max(max(e) for e in terms) == top
    big = mk(3, names, {(top, 0, 0): 1, (0, 0, 1): 1})
    _assert_mul_matches_oracle(big, big)
    _assert_mul_matches_oracle(big, mk(3, names, {(2**64, 2**65, 0): 2}))
    # a one-term operand meeting each operand's largest exponents at top
    for f in (a, b, big):
        peak = tuple(max(e[i] for e in f.terms) for i in range(3))
        mono = mk(f.p, names, {tuple(top - x for x in peak): 2})
        for left, right in ((f, mono), (mono, f)):
            _, _, terms = _assert_mul_matches_oracle_at_every_cap(left, right)
            assert tuple(max(e[i] for e in terms) for i in range(3)) == (top,) * 3


def _add_by_tuples(a, b):
    out = dict(a.terms.items())
    for e, c in b.terms.items():
        out[e] = out.get(e, 0) + c
    return mk(a.p, a.variables, out)


def _criterion_by_definition(f):
    p = f.p
    centre = (p - 1,) * len(f.variables)
    if centre not in f.terms:
        return False, centre
    congruent = [e for e in f.terms if e != centre and all(x % p == p - 1 for x in e)]
    return (False, min(congruent)) if congruent else (True, None)


def _json_bytes(f):
    return json.dumps(poly_to_json_obj(f), sort_keys=True)


@pytest.mark.parametrize("top", BOUNDARY_TOPS)
def test_layouts_agree_across_operations(top):
    # the operands of test_mul_field_width_boundaries, a one-byte operand
    # meeting each, and every operation against a reference over tuples
    names = ("x", "y", "z")
    half = top // 2
    a = mk(5, names, {(half, 0, 1): 1, (0, half, 0): 2, (1, 1, 1): 3})
    b = mk(5, names, {(top - half, 1, 0): 4, (0, top - half, top - half): 1, (0, 0, 0): 2})
    narrow = mk(5, names, {(1, 2, 0): 1, (0, 0, 3): 4, (4, 4, 4): 2})
    for f, g in ((a, b), (b, a), (a, narrow), (narrow, b), (narrow, narrow)):
        total = _add_by_tuples(f, g)
        assert f + g == total and (f + g).terms == total.terms
        assert (f + g) - g == f and f - f == mk(5, names, {})
        assert f.power(3) == mul_by_tuples(mul_by_tuples(f, f), f)
        # g aimed at the residue classes f's terms reach, with quotients
        # near top in one field at a time
        aimed = mk(5, names, {
            tuple((-1 - x) % 5 + (5 * (top // 5) if i == j else 0) for i, x in enumerate(e)): 1
            for e in f.terms for j in range(3)})
        for h in (g, aimed, _add_by_tuples(g, aimed)):
            assert frobenius_trace(f, h) == trace_by_product(f, h)
            assert frobenius_trace(h, f) == trace_by_product(h, f)
        assert frobenius_trace(f, aimed)
        for h in (f, g, total):
            text = _json_bytes(h)
            assert poly_from_json_obj(json.loads(text)) == h
            assert text == json.dumps({"p": h.p, "vars": list(h.variables), "terms": [
                {"e": list(e), "c": c} for e, c in sorted(h.terms.items())]}, sort_keys=True)


@pytest.mark.parametrize("top", BOUNDARY_TOPS)
def test_criterion_and_compatibility_at_every_layout(top):
    names = ("x", "y", "z")
    p = 3
    centre = (2, 2, 2)
    congruent = (2 + 3 * (top // 3), 2, 2)   # = 2 mod 3 everywhere
    for terms in (
        {centre: 1, (top, 0, 1): 2, (0, top, 2): 1},
        {centre: 2, (top, 2, 2): 1, (5, 0, top): 1},
        {centre: 1, congruent: 1, (top, 1, 1): 1},
        {(top, 2, 2): 1, (2, 2, 5): 1},   # no centre
    ):
        f = mk(p, names, terms)
        check = is_splitting_function(f)
        assert (check.ok, check.witness) == _criterion_by_definition(f)
        if not check.ok:
            continue
        for r in range(1, 4):
            for gens in itertools.combinations(range(3), r):
                ideal = VariableIdeal(gens)
                got, want = splits_ideal_compatibly(f, ideal), compat_by_enumeration(f, ideal)
                assert (got.ok, got.witness_exponent) == (want.ok, want.witness_exponent)
                assert got.witness_trace == want.witness_trace


def test_equal_polynomials_have_one_layout():
    names = ("x", "y")
    # per variable, the ORed keys of the operands add up to 127 + 63 = 190
    # in x, past the one-byte fields, but the product's largest x-exponent
    # is 64 + 63: it stays in one-byte fields, as the same terms built
    # directly do
    a = mk(7, names, {(64, 0): 1, (63, 1): 2})
    b = mk(7, names, {(63, 0): 3, (0, 0): 1})
    product = a * b
    direct = mk(7, names, {(127, 0): 3, (126, 1): 6, (64, 0): 1, (63, 1): 2})
    assert product == direct == mul_by_tuples(a, b)
    assert product.width == direct.width == 1
    assert _json_bytes(product) == _json_bytes(direct)
    # a sum, a trace and a substitution whose wide terms drop out
    x200 = mk(7, names, {(200, 0): 1})
    one = SparsePolynomial.constant(7, names, 1)
    assert (x200 + one) - x200 == one and ((x200 + one) - x200).width == 1
    shrunk = frobenius_trace(mk(7, names, {(6, 6): 1}), mk(7, names, {(7 * 100, 0): 1}))
    assert shrunk == mk(7, names, {(100, 0): 1}) and shrunk.width == 1
    sub = (x200 + mk(7, names, {(0, 3): 1})).substitute("x", mk(7, names, {}))
    assert sub == mk(7, names, {(0, 3): 1}) and sub.width == 1
    assert sub == substitute_by_tuples(x200 + mk(7, names, {(0, 3): 1}), "x", mk(7, names, {}))


def test_coefficient_never_aliases_another_key():
    # a packed key is read only for a vector of the right length whose
    # entries fit the fields: (1,) packs like (0, 1), (0, 65536) like (1, 0)
    # in two-byte fields, and (1, -65280) like (0, 256)
    narrow = mk(3, ("x", "y"), {(0, 1): 2})
    assert narrow.coefficient((0, 1)) == 2
    assert narrow.coefficient((1,)) == 0 and narrow.coefficient((0, 0, 1)) == 0
    assert narrow.coefficient((0, 257)) == 0 and narrow.coefficient((1, -255)) == 0
    wide = mk(3, ("x", "y"), {(1, 0): 1, (0, 256): 2})
    assert wide.coefficient((1, 0)) == 1 and wide.coefficient((0, 256)) == 2
    assert wide.coefficient((0, 65536)) == 0 and wide.coefficient((1, -65280)) == 0
    assert (0, 65536) not in wide.terms and (1,) not in wide.terms
    with pytest.raises(KeyError):
        wide.terms[(0, 65536)]


def test_mul_empty_and_constant_operands():
    names = ("x", "y")
    zero = mk(7, names, {})
    f = mk(7, names, {(1, 2): 3, (0, 0): 1})
    assert _assert_mul_matches_oracle(zero, f)[2] == {}
    assert _assert_mul_matches_oracle(f, zero)[2] == {}
    assert _assert_mul_matches_oracle(zero, zero, term_cap=0)[2] == {}
    # no variables at all: a product of constants
    assert _assert_mul_matches_oracle(mk(7, (), {(): 3}), mk(7, (), {(): 5}))[2] == {(): 1}
    # one-term operands on either side: the constants 1 and p - 1, a
    # variable, a monomial; the other operand's terms are shifted and scaled
    one = SparsePolynomial.constant(7, names, 1)
    minus_one = SparsePolynomial.constant(7, names, 6)
    y = SparsePolynomial.variable(7, names, "y")
    mono = SparsePolynomial.monomial(7, names, (2, 1), 5)
    for single, expected in (
        (one, f.terms),
        (minus_one, {(1, 2): 4, (0, 0): 6}),
        (y, {(1, 3): 3, (0, 1): 1}),
        (mono, {(3, 3): 1, (2, 1): 5}),
    ):
        for other in (f, single, zero):
            for left, right in ((single, other), (other, single)):
                _assert_mul_matches_oracle_at_every_cap(left, right)
        assert _assert_mul_matches_oracle(single, f)[2] == expected
        assert _assert_mul_matches_oracle(f, single)[2] == expected
    # the no-variable table, where every nonzero polynomial has one term
    c3 = mk(7, (), {(): 3})
    for other in (mk(7, (), {(): 1}), mk(7, (), {(): 6}), c3):
        for left, right in ((c3, other), (other, c3)):
            _assert_mul_matches_oracle_at_every_cap(left, right)


def test_mul_cancellation_mod_p():
    names = ("x", "y")
    x = SparsePolynomial.variable(13, names, "x")
    y = SparsePolynomial.variable(13, names, "y")
    # the xy key cancels completely
    assert _assert_mul_matches_oracle(x + y, x - y)[2] == {(2, 0): 1, (0, 2): 12}
    # every middle binomial coefficient of (x + y)^p vanishes mod p
    for p in (2, 3, 5, 13):
        one = SparsePolynomial.constant(p, names, 1)
        xp = SparsePolynomial.variable(p, names, "x")
        lower = (one + xp) ** (p - 1)
        assert _assert_mul_matches_oracle(one + xp, lower)[2] == {(0, 0): 1, (p, 0): 1}


def test_mul_term_cap_ignores_cancelled_keys():
    # rows x^i times (1 - x) telescope: after row i the partial product is
    # 1 - x^(i+1), two nonzero terms, while the keys touched keep growing
    names = ("x",)
    m = 40
    a = mk(5, names, {(i,): 1 for i in range(m)})
    b = mk(5, names, {(0,): 1, (1,): 4})
    assert _assert_mul_matches_oracle(a, b, term_cap=2)[2] == {(0,): 1, (m,): 4}
    assert _assert_mul_matches_oracle(a, b, term_cap=1) == "refused"
    assert _assert_mul_matches_oracle(b, a, term_cap=2) == "refused"


def _random_factor(rng, p, size, degree):
    # 1..6 terms in `size` variables; of total degree `degree`, or when
    # `degree` is None with exponents in [0, p] or, to overflow a field of
    # the packed keys, up to 4p+3
    terms = {}
    for _ in range(rng.randint(1, 6)):
        if degree is None:
            e = [rng.randint(0, rng.choice([p, 4 * p + 3])) for _ in range(size)]
        else:
            e = [0] * size
            for _ in range(degree):
                e[rng.randrange(size)] += 1
        terms[tuple(e)] = rng.randint(1, p - 1)
    return SparsePolynomial(p, tuple(f"v{i}" for i in range(size)), terms)


def _largest_partial_product(factors, p):
    # the largest partial product the centre coefficient keeps, over
    # exponent tuples: the factors' terms with no exponent above p-1,
    # largest factor first, each put in the group whose product of term
    # counts is smaller (the first on a tie); each group multiplied one
    # term of its partial product (a row) at a time, in the same order,
    # keeping the terms with every exponent at most p-1 and within reach of
    # p-1, the reach counting the group's factors to come and the whole
    # other group, and dropping a coefficient once it is 0 mod p.  The count
    # is taken after every row, as the cap is checked; a term a later row
    # cancels still counts.  0 when a factor keeps no term
    top = p - 1
    kept = sorted(([(e, c) for e, c in f.terms.items() if max(e, default=0) <= top]
                   for f in factors), key=len, reverse=True)
    if not kept[-1]:
        return 0
    maxes = [[max(column) for column in zip(*(e for e, _ in terms))] for terms in kept]
    groups, counts = ([], []), [1, 1]
    for terms, m in zip(kept, maxes):
        i = 1 if counts[1] < counts[0] else 0
        groups[i].append((terms, m))
        counts[i] *= len(terms)
    largest = 0
    for group in groups:
        reach = [sum(column) for column in zip(*maxes)]
        out = {(0,) * len(factors[0].variables): 1}
        for terms, m in group:
            reach = [r - a for r, a in zip(reach, m)]
            left, out = out, {}
            for e1, c1 in left.items():
                for e2, c2 in terms:
                    e = tuple(a + b for a, b in zip(e1, e2))
                    if all(top - r <= a <= top for a, r in zip(e, reach)):
                        c = (out.get(e, 0) + c1 * c2) % p
                        if c:
                            out[e] = c
                        else:
                            del out[e]
                largest = max(largest, len(out))
    return largest


def test_centre_coefficient_matches_mul_then_coefficient():
    rng = random.Random(7)
    outcomes = set()
    for trial in range(600):
        # 67 puts the centre coefficient's keys in two-byte fields
        p = rng.choice([2, 3, 5, 67])
        size = rng.randint(1, 4)
        # 1..3 factors whose degrees add up to size (p-1), as the minors'
        # top parts' powers, or (every other trial) of any degrees
        cuts = sorted(rng.randint(0, size * (p - 1)) for _ in range(rng.randint(0, 2)))
        degrees = [b - a for a, b in zip([0] + cuts, cuts + [size * (p - 1)])]
        factors = [_random_factor(rng, p, size, d if trial % 2 == 0 else None)
                   for d in degrees]
        full = factors[0]
        for f in factors[1:]:
            full = full.mul(f)
        want = full.coefficient((p - 1,) * size)
        assert fpoly._centre_coefficient(factors, DEFAULT_TERM_CAP) == want, (factors, p)
        outcomes.add(want != 0)
        # the cap bounds each group's partial products, and nothing more
        largest = _largest_partial_product(factors, p)
        assert fpoly._centre_coefficient(factors, largest) == want, (factors, p)
        if largest > 1:
            with pytest.raises(ResourceLimitError):
                fpoly._centre_coefficient(factors, largest - 1)
            outcomes.add("refused")
    assert outcomes == {True, False, "refused"}


def test_centre_coefficient_caps_every_row():
    # y + 1 + x and then x + 1 share a group: times x + 1, the rows y and 1
    # leave xy, y, x and 1, and the row x cancels x mod 2, so the group's
    # product ends at 3 terms but holds 4 after a row, where the cap is checked
    names = ("x", "y")
    factors = [SparsePolynomial(2, names, {(0, 1): 1, (0, 0): 1, (1, 0): 1}),
               SparsePolynomial(2, names, {(1, 0): 1, (1, 1): 1, (0, 1): 1}),
               SparsePolynomial(2, names, {(1, 0): 1, (0, 0): 1})]
    assert _largest_partial_product(factors, 2) == 4
    want = factors[0].mul(factors[1]).mul(factors[2]).coefficient((1, 1))
    assert fpoly._centre_coefficient(factors, 4) == want
    with pytest.raises(ResourceLimitError):
        fpoly._centre_coefficient(factors, 3)


def test_centre_coefficient_reads_wide_layouts():
    # the centre coefficient drops the terms above p-1 in any layout
    names = ("y21", "x12")
    g = SparsePolynomial(3, names, {(2, 0): 1, (300, 0): 1})
    h = SparsePolynomial(3, names, {(0, 2): 2, (0, 130): 1})
    assert fpoly._centre_coefficient([g, h], DEFAULT_TERM_CAP) == 2
    assert g.mul(h).coefficient((2, 2)) == 2
    # at p = 67 its fields are two bytes wide: g's keys are read as they
    # are, with 130 dropped, and h's one-byte keys are widened
    g = SparsePolynomial(67, names, {(66, 0): 1, (130, 0): 5})
    h = SparsePolynomial(67, names, {(0, 66): 3, (0, 1): 1})
    assert (g.width, h.width) == (2, 1)
    assert fpoly._centre_coefficient([g, h], DEFAULT_TERM_CAP) == 3
    assert g.mul(h).coefficient((66, 66)) == 3


def test_trace_examples():
    names = ("x",)
    f = mk(3, names, {(2,): 1})
    one = SparsePolynomial.constant(3, names, 1)
    x = SparsePolynomial.variable(3, names, "x")
    assert frobenius_trace(f, one) == one
    assert frobenius_trace(f, x).is_zero()
    assert frobenius_trace(f, x ** 3) == x


def test_trace_with_primes_past_one_byte():
    # exponents in one-byte fields, p above them: no pair of terms has
    # exponent sums of -1 mod p until they reach p - 1, past the fields
    names = ("x", "y")
    for p in (131, 251, 257, 65537, 2**31 - 1):
        f = mk(p, names, {(0, 0): 1, (1, 0): 2, (0, 127): 3})
        g = mk(p, names, {(0, 0): 5, (0, 1): 1, (126, 0): 1})
        for a, b in ((f, g), (g, f), (f, f)):
            assert frobenius_trace(a, b) == trace_by_product(a, b)
        centre = mk(p, names, {(p - 1, p - 1): 1})
        one = mk(p, names, {(0, 0): 1})
        assert frobenius_trace(centre, f) == trace_by_product(centre, f) == one


def _trace_or_refusal(trace, f, g, term_cap):
    try:
        res = trace(f, g, term_cap)
    except ResourceLimitError:
        return "refused"
    return res.variables, res.p, res.terms


def _trace_corpus(rng, cases):
    """Pairs (f, g) over p in {2, 3, 5, 7, 11} and 1-4 variables: zero
    operands, monomial g (the compatibility witness's shape), and terms of g
    aimed at the residue class that some term of f reaches, so that most
    traces are nonzero and targets often collect several pairs."""
    for _ in range(cases):
        p = rng.choice([2, 3, 5, 7, 11])
        names = tuple(f"v{i}" for i in range(rng.randint(1, 4)))
        f = _random_poly(rng, p, len(names), rng.choice([0, 1, 3, 8, 15]), 2 * p)
        g_terms = {}
        for _ in range(rng.choice([0, 1, 1, 2, 4, 8])):
            if f.terms and rng.random() < 0.7:
                a = rng.choice(list(f.terms))
                e = tuple((-1 - x) % p + p * rng.randint(0, 1) for x in a)
            else:
                e = tuple(rng.randint(0, 2 * p) for _ in names)
            g_terms[e] = rng.randint(1, p - 1)
        yield f, mk(p, names, g_terms)


def _peak_partial_trace(f, g):
    # the trace is additive in f, so its value after the first k terms of f
    # is the oracle's trace of those k terms
    prefix, peak = {}, 0
    for e, c in f.terms.items():
        prefix[e] = c
        peak = max(peak, len(trace_by_product(mk(f.p, f.variables, prefix), g).terms))
    return peak


def test_trace_matches_product_oracle_randomised():
    rng = random.Random(1901)
    nonzero = collected = cancelled = zero = monomial = 0
    for f, g in _trace_corpus(rng, 600):
        zero += not f.terms or not g.terms
        monomial += len(g.terms) == 1
        want = _trace_or_refusal(trace_by_product, f, g, 10**6)
        assert _trace_or_refusal(frobenius_trace, f, g, 10**6) == want
        # how many pairs of terms reach each target
        p = f.p
        reached = Counter(
            tuple((x + y + 1) // p for x, y in zip(a, b))
            for a in f.terms for b in g.terms
            if all((x + y + 1) % p == 0 for x, y in zip(a, b))
        )
        nonzero += bool(want[2])
        collected += max(reached.values(), default=0) > 1
        cancelled += len(reached) > len(want[2])
        product = f.mul(g)
        # the cap counts the trace's nonzero terms after each term of f
        peak = _peak_partial_trace(f, g)
        assert _trace_or_refusal(frobenius_trace, f, g, peak) == want
        if peak:
            assert _trace_or_refusal(frobenius_trace, f, g, peak - 1) == "refused"
        # whatever the product route accepts under a cap, the trace accepts
        # with the same result
        for cap in range(len(product.terms) + 2):
            old = _trace_or_refusal(trace_by_product, f, g, cap)
            if old != "refused":
                assert _trace_or_refusal(frobenius_trace, f, g, cap) == old
    # the corpus holds zero operands and monomial g, and reaches nonzero
    # traces, targets shared by several pairs and cancellations
    assert zero > 50 and monomial > 100
    assert nonzero > 300 and collected > 50 and cancelled > 25


def test_trace_cancellation_mod_p():
    names = ("x",)
    # x * x and x^2 * 2 both reach x^2, the one monomial of class -1 mod 3,
    # and cancel there, while the product x^3 + 2x keeps two terms
    f = mk(3, names, {(1,): 1, (2,): 1})
    g = mk(3, names, {(1,): 1, (0,): 2})
    assert (f * g).terms == {(3,): 1, (1,): 2}
    assert frobenius_trace(f, g).is_zero() and trace_by_product(f, g).is_zero()
    # after the first term of f the partial trace has one term: the cap
    # counts it, as mul counts a partial product, before it cancels
    with pytest.raises(ResourceLimitError, match="trace exceeds term cap 0"):
        frobenius_trace(f, g, term_cap=0)
    assert frobenius_trace(g, f, term_cap=1).is_zero()


def test_trace_term_cap_bounds_the_trace_not_the_product():
    # 40 terms of f against 1 + x: the product has 41 nonzero terms mod 3,
    # its trace only the 13 targets of the exponents 2, 5, ..., 38
    names = ("x",)
    f = mk(3, names, {(i,): 1 for i in range(40)})
    g = mk(3, names, {(0,): 1, (1,): 1})
    assert len(f.mul(g).terms) == 41
    want = trace_by_product(f, g)
    assert len(want.terms) == 13
    assert frobenius_trace(f, g, term_cap=13) == want
    with pytest.raises(ResourceLimitError):
        trace_by_product(f, g, term_cap=40)
    with pytest.raises(ResourceLimitError, match="trace exceeds term cap 12"):
        frobenius_trace(f, g, term_cap=12)


def test_splitting_examples():
    # x^{p-1} is a splitting in one variable
    for p in (2, 3, 5, 7):
        f = mk(p, ("x",), {(p - 1,): 1})
        assert is_splitting_function(f).ok
    # bad congruent monomial with witness
    f = mk(3, ("x",), {(2,): 1, (5,): 1})
    check = is_splitting_function(f)
    assert not check.ok and check.witness == (5,)
    # several offending monomials: the witness is the smallest exponent vector
    f = mk(3, ("x", "y"), {(8, 2): 1, (2, 2): 1, (5, 5): 2, (2, 5): 1, (5, 2): 1})
    check = is_splitting_function(f)
    assert not check.ok and check.witness == (2, 5)
    # missing centre
    f = mk(3, ("x",), {(1,): 1})
    check = is_splitting_function(f)
    assert not check.ok and check.witness == (2,)
    # two variables, p = 2
    f = mk(2, ("x1", "x2"), {(0, 0): 1, (1, 1): 1})
    assert is_splitting_function(f).ok


def test_criterion_equivalence_randomised():
    rng = random.Random(23)
    names = ("x1", "x2")
    for p in (2, 3, 5):
        one = SparsePolynomial.constant(p, names, 1)
        for _ in range(100):
            terms = {}
            for _ in range(rng.randint(1, 50)):
                e = (rng.randint(0, 2 * p), rng.randint(0, 2 * p))
                terms[e] = rng.randint(1, p - 1)
            f = SparsePolynomial(p, names, terms)
            tr = frobenius_trace(f, one)
            assert bool(is_splitting_function(f)) == (bool(tr) and tr.is_constant())


def test_semilinearity_randomised():
    rng = random.Random(29)
    names = ("x1", "x2")
    for p in (2, 3, 5):
        for _ in range(100):
            def rand(max_terms, max_exp):
                return SparsePolynomial(
                    p, names,
                    {
                        (rng.randint(0, max_exp), rng.randint(0, max_exp)):
                        rng.randint(1, p - 1)
                        for _ in range(rng.randint(1, max_terms))
                    },
                )
            f, g, h = rand(6, 6), rand(3, 3), rand(3, 2)
            assert frobenius_trace(f, (h ** p) * g) == h * frobenius_trace(f, g)


def test_verify_fpoly_computes_each_trace_once(monkeypatch):
    # per draw: semilinearity and the shift 2 traces each, additivity 5
    # (the trace of f1 against g1 serves both sides), the criterion 1
    calls = []
    trace = fpoly.frobenius_trace
    monkeypatch.setattr(fpoly, "frobenius_trace",
                        lambda f, g, cap: calls.append(1) or trace(f, g, cap))
    checks = verify.suite_fpoly(verify.RunConfig())
    assert [c.status for c in checks] == ["pass"] * 4
    assert len(calls) == 300 * (2 + 5 + 1 + 2)


# every (max_terms, max_exp) that verify fpoly draws with, at p = 2, 3, 5
SUITE_SHAPES = [(6, 6), (3, 3), (3, 2)] + [(50, 2 * p) for p in (2, 3, 5)]


@pytest.mark.parametrize("seed", range(5))
def test_random_poly_draws_as_randint(seed):
    # the getrandbits draw gives randint's polynomials and the shift draw the
    # validating constructor's monomials, one after another from one
    # generator, keys and width alike, and they leave the generator in
    # randint's state
    for nvars in (1, 2, 3):
        names = tuple(f"x{i}" for i in range(1, nvars + 1))
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(20):
            for p in (2, 3, 5):
                for max_terms, max_exp in SUITE_SHAPES:
                    assert verify._random_poly(ours, p, names, max_terms, max_exp) == (
                        random_poly_by_randint(theirs, p, names, max_terms, max_exp))
                assert verify._shift_monomials(ours, p, names) == (
                    shift_monomials_by_randint(theirs, p, names))
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", range(5))
def test_verify_fpoly_draws_the_randint_corpus(monkeypatch, seed):
    # the suite checks the same 3,000 polynomials and 600 shift monomials,
    # with the same report, as when each is drawn by randint and built by the
    # validating constructor
    runs = []
    for draws in ((verify._random_poly, verify._shift_monomials),
                  (random_poly_by_randint, shift_monomials_by_randint)):
        drawn = []
        for name, draw in zip(("_random_poly", "_shift_monomials"), draws):
            monkeypatch.setattr(verify, name, lambda *args, draw=draw, **kwargs:
                                drawn.append(draw(*args, **kwargs)) or drawn[-1])
        checks = verify.suite_fpoly(verify.RunConfig(seed=seed))
        runs.append((drawn, [(c.name, c.status, c.detail) for c in checks]))
    ours, theirs = runs
    assert len(ours[0]) == 300 * (3 + 4 + 1 + 2) + 300
    assert sum(isinstance(d, tuple) for d in ours[0]) == 300   # (beta, x^(p beta), x^beta)
    assert ours == theirs


def test_random_poly_refuses_exponents_past_one_byte(monkeypatch):
    # a bound above 127 could set a field's spare bit: it is refused by a
    # raise, so also under python -O, before any draw or key is made
    built = []
    monkeypatch.setattr(fpoly, "_settled", lambda *args, **kwargs: built.append(args))
    rng = random.Random(0)
    state = rng.getstate()
    for max_exp in (128, 255, -1):
        with pytest.raises(InputError, match="does not fit a one-byte field"):
            verify._random_poly(rng, 3, ("x1", "x2"), max_exp=max_exp)
    with pytest.raises(InputError, match="does not fit a one-byte field"):
        verify._shift_monomials(rng, 67, ("x1", "x2"))
    assert built == [] and rng.getstate() == state
    monkeypatch.undo()
    # at 127 the keys reach the largest one-byte exponent, spare bits clear
    ours, theirs, top = random.Random(1), random.Random(1), 0
    spare = fpoly._spare_bits(2, 1)
    for _ in range(100):
        f = verify._random_poly(ours, 3, ("x1", "x2"), max_exp=127)
        assert f == random_poly_by_randint(theirs, 3, ("x1", "x2"), max_exp=127)
        assert f.width == 1 and not any(k & spare for k in f.packed)
        top = max(top, *(max(e) for e in f.exponents()))
    assert top == 127


def test_random_poly_refuses_fewer_than_one_term(monkeypatch):
    # below(0) would draw getrandbits(0) == 0 forever: a term bound below 1
    # is refused by a raise, so also under python -O, before any draw
    built = []
    monkeypatch.setattr(fpoly, "_settled", lambda *args, **kwargs: built.append(args))
    rng = random.Random(0)
    state = rng.getstate()
    for max_terms in (0, -1, -100):
        with pytest.raises(InputError, match=f"^term bound {max_terms} is below 1$"):
            verify._random_poly(rng, 3, ("x1", "x2"), max_terms=max_terms)
    assert built == [] and rng.getstate() == state
    monkeypatch.undo()
    # one term is the least bound drawn, and it draws as randint does
    ours, theirs = random.Random(2), random.Random(2)
    for _ in range(50):
        f = verify._random_poly(ours, 5, ("x1", "x2", "x3"), max_terms=1)
        assert f == random_poly_by_randint(theirs, 5, ("x1", "x2", "x3"), max_terms=1)
        assert len(f.packed) == 1


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_fpoly_catches_a_wrong_trace_or_criterion(monkeypatch, seed):
    # the packed draws leave no check vacuous: a trace with one coefficient
    # changed (its constant term, by 1) fails the three trace laws, and a
    # negated criterion fails the equivalence
    trace, criterion = fpoly.frobenius_trace, fpoly.is_splitting_function
    monkeypatch.setattr(fpoly, "frobenius_trace", lambda f, g, cap:
                        trace(f, g, cap) + SparsePolynomial.constant(f.p, f.variables, 1))
    status = {c.name: c.status for c in verify.suite_fpoly(verify.RunConfig(seed=seed))}
    assert [status[f"fpoly.trace_{law}"] for law in ("semilinearity", "additivity", "shift")] == (
        ["fail"] * 3)
    monkeypatch.setattr(fpoly, "frobenius_trace", trace)
    monkeypatch.setattr(fpoly, "is_splitting_function", lambda f: not criterion(f))
    checks = verify.suite_fpoly(verify.RunConfig(seed=seed))
    assert [(c.name, c.status) for c in checks] == [
        ("fpoly.trace_semilinearity", "pass"), ("fpoly.trace_additivity", "pass"),
        ("fpoly.criterion_equivalence", "fail"), ("fpoly.trace_shift", "pass")]


def test_trace_additivity_and_shift():
    rng = random.Random(31)
    names = ("x1", "x2")
    p = 3
    for _ in range(100):
        def rand():
            return SparsePolynomial(
                p, names,
                {
                    (rng.randint(0, 6), rng.randint(0, 6)): rng.randint(1, p - 1)
                    for _ in range(rng.randint(1, 5))
                },
            )
        f1, f2, g = rand(), rand(), rand()
        assert frobenius_trace(f1 + f2, g) == frobenius_trace(f1, g) + frobenius_trace(f2, g)
        beta = (rng.randint(0, 2), rng.randint(0, 2))
        mono_p = SparsePolynomial.monomial(p, names, tuple(p * b for b in beta))
        mono = SparsePolynomial.monomial(p, names, beta)
        assert frobenius_trace(f1, mono_p * g) == mono * frobenius_trace(f1, g)


def test_compat_single_variable():
    for p in (2, 3, 5):
        f = mk(p, ("x",), {(p - 1,): 1})
        ideal = VariableIdeal((0,))
        assert splits_ideal_compatibly(f, ideal).ok


def test_compat_two_variables():
    # the centre monomial compatibly splits every coordinate subspace
    f = mk(2, ("x1", "x2"), {(1, 1): 1})
    assert splits_ideal_compatibly(f, VariableIdeal((0,))).ok
    assert splits_ideal_compatibly(f, VariableIdeal((1,))).ok
    # 1 + x1 x2 is a splitting but sends x1 x2 to the constant 1, which
    # leaves both coordinate ideals
    g = mk(2, ("x1", "x2"), {(0, 0): 1, (1, 1): 1})
    res = splits_ideal_compatibly(g, VariableIdeal((0,)))
    assert not res.ok and res.witness_exponent == (1, 1)
    assert res.witness_trace.is_constant() and res.witness_trace.coefficient((0, 0)) == 1


def test_compat_failure_witness():
    # 1 + x1 x2 + x1^2 x2^3 is a splitting mod 2 that moves (x1) out of itself:
    # trace(f, x2) picks up the constant-free part x1 x2 -> fails on x1? no:
    # use a crafted example instead: f = x1 x2 + x1^3 over p=2 in one pair
    f = mk(2, ("x1", "x2"), {(1, 1): 1, (3, 0): 1})
    assert is_splitting_function(f).ok
    res = splits_ideal_compatibly(f, VariableIdeal((1,)))
    assert not res.ok
    assert res.witness_exponent is not None
    # the witness trace really does leave the ideal
    assert not all(VariableIdeal((1,)).contains_monomial(e) for e in res.witness_trace.terms)


def test_compat_requires_splitting():
    f = mk(3, ("x",), {(1,): 1})
    with pytest.raises(InputError):
        splits_ideal_compatibly(f, VariableIdeal((0,)))


def test_compat_enum_cap():
    # 5^10 exponent vectors but a single term: the pass walks terms, not
    # exponents, so the cap now bounds the size of f
    names = tuple(f"x{i}" for i in range(10))
    f = mk(5, names, {(4,) * 10: 1})
    assert splits_ideal_compatibly(f, VariableIdeal((0,)), enum_cap=10**5).ok
    g = mk(3, ("x",), {(2,): 1, (3,): 1, (4,): 1, (6,): 1})
    assert splits_ideal_compatibly(g, VariableIdeal((0,)), enum_cap=4).ok
    with pytest.raises(ResourceLimitError):
        splits_ideal_compatibly(g, VariableIdeal((0,)), enum_cap=3)


def _random_splitting(rng, p, nvars):
    # the centre term plus random terms not congruent to p-1 in every slot
    center = (p - 1,) * nvars
    terms = {center: rng.randint(1, p - 1)}
    for _ in range(rng.randint(0, 8)):
        e = tuple(rng.randint(0, 2 * p) for _ in range(nvars))
        if not all(x % p == p - 1 for x in e):
            terms[e] = rng.randint(1, p - 1)
    return mk(p, tuple(f"x{i}" for i in range(nvars)), terms)


def test_compat_matches_enumeration():
    rng = random.Random(2024)
    failing = 0
    for _ in range(2000):
        p = rng.choice((2, 3, 5))
        nvars = rng.randint(1, 4)
        f = _random_splitting(rng, p, nvars)
        gens = rng.sample(range(nvars), rng.randint(1, nvars))
        ideal = VariableIdeal(tuple(sorted(gens)))
        got = splits_ideal_compatibly(f, ideal)
        want = compat_by_enumeration(f, ideal)
        assert got.ok == want.ok, (f, ideal)
        assert got.witness_exponent == want.witness_exponent, (f, ideal)
        assert got.witness_trace == want.witness_trace, (f, ideal)
        failing += not want.ok
    # both verdicts are well represented
    assert 300 <= failing <= 1700, failing


def test_ideal_validation():
    with pytest.raises(InputError):
        VariableIdeal(())
    with pytest.raises(InputError):
        VariableIdeal((0, 0))
    f = mk(3, ("x", "y"), {(1, 0): 1})
    ideal = VariableIdeal.from_names(f, ["x"])
    assert ideal.contains_monomial((1, 0))
    assert not ideal.contains_monomial((0, 1))
    with pytest.raises(InputError):
        VariableIdeal.from_names(f, ["z"])


def test_json_round_trip(tmp_path):
    f = mk(3, ("x", "y"), {(2, 0): 1, (0, 1): 2})
    obj = poly_to_json_obj(f)
    assert obj == {
        "p": 3,
        "vars": ["x", "y"],
        "terms": [{"e": [0, 1], "c": 2}, {"e": [2, 0], "c": 1}],
    }
    assert poly_from_json_obj(obj) == f
    path = tmp_path / "f.json"
    save_poly(f, str(path))
    assert load_poly(str(path)) == f
    # identical saves are byte-identical
    path2 = tmp_path / "g.json"
    save_poly(f, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_json_rejects_bad_coefficients(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 3, "vars": ["x"], "terms": [{"e": [1], "c": 3}]}))
    with pytest.raises(InputError):
        load_poly(str(path))
    path.write_text("not json")
    with pytest.raises(InputError):
        load_poly(str(path))


MALFORMED_POLYNOMIALS = [
    # the second x^1 term would overwrite the first
    ({"p": 3, "vars": ["x", "x"], "terms": [{"e": [1, 0], "c": 1}, {"e": [1, 0], "c": 2}]},
     "duplicate variable"),
    ({"p": 3, "vars": ["x", "y"], "terms": [{"e": [1, 0], "c": 1}, {"e": [1, 0], "c": 2}]},
     "duplicate exponent"),
    ({"p": 3, "vars": ["x", "y"], "terms": [{"e": [2, 0], "c": 1}, {"e": [0, 1], "c": 2}]},
     "out of order"),
    # values of the wrong JSON type, which are refused, not coerced
    ({"p": 3.9, "vars": ["x"], "terms": [{"e": [2], "c": 2}]}, "characteristic"),
    ({"p": "3", "vars": ["x"], "terms": [{"e": [2], "c": 2}]}, "characteristic"),
    ({"p": 3, "vars": ["x"], "terms": [{"e": [2.5], "c": 2}]}, "exponent vector"),
    ({"p": 3, "vars": ["x"], "terms": [{"e": [True], "c": 2}]}, "exponent vector"),
    ({"p": 3, "vars": ["x"], "terms": [{"e": "2", "c": 2}]}, "exponent vector"),
    ({"p": 3, "vars": ["x"], "terms": [{"e": 2, "c": 2}]}, "exponent vector"),
    ({"p": 3, "vars": "x", "terms": [{"e": [2], "c": 2}]}, "variables"),
    ({"p": 3, "vars": [1], "terms": [{"e": [2], "c": 2}]}, "variables"),
    ({"p": 3, "vars": ["x"], "terms": [{"e": [2], "c": True}]}, "coefficient"),
]


@pytest.mark.parametrize("obj, message", MALFORMED_POLYNOMIALS,
                         ids=["duplicate-variables", "duplicate-terms", "unsorted-terms",
                              "float-p", "string-p", "float-exponent", "bool-exponent",
                              "string-exponents", "integer-exponents", "string-vars",
                              "integer-var", "bool-coefficient"])
def test_json_rejects_ambiguous_polynomials(tmp_path, obj, message):
    with pytest.raises(InputError, match=message):
        poly_from_json_obj(obj)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InputError, match=message):
        load_poly(str(path))


def test_saved_polynomials_load_back(tmp_path):
    rng = random.Random(11)
    for _ in range(50):
        names = tuple(f"x{i}" for i in range(rng.randint(0, 4)))
        terms = {tuple(rng.randint(0, 3) for _ in names): rng.randint(1, 4)
                 for _ in range(rng.randint(0, 8))}
        f = mk(5, names, terms)
        path = tmp_path / "f.json"
        save_poly(f, str(path))
        assert load_poly(str(path)) == f


def test_weight_tags():
    # the rank-1 chart: y21 at (2, 1) has weight -alpha, x12 at (1, 2) +alpha
    cf = build_chart_function(1, 3)
    assert cf.poly.variables == ("y21", "x12")
    assert cf.monomial_weight((1, 1)) == (0,)
    assert cf.monomial_weight((1, 2)) == (2,)
    assert cf.monomial_weight((2, 0)) == (-4,)
