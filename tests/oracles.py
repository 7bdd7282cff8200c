"""Independent oracles used to freeze expected values.

These deliberately use different algorithms from the library: weight
multiplicities via the Kostant alternating sum over the Weyl group instead
of the Freudenthal recursion, symmetric/exterior powers by direct multiset
enumeration instead of the graded convolution, symmetric powers also by
multiplying out each root's series 1 + q e^alpha + q^2 e^(2 alpha) + ... on
weight tuples instead of the recurrence for 1/(1 - q e^alpha) on packed
weights, the rank-1 chart function
from the binomial theorem instead of symbolic conjugation, good-filtration
decompositions by greedily peeling expanded Weyl characters instead of
Brauer--Klimyk coefficients, Euler characteristics by searching the
Weyl group for the dominant dot-translate instead of descending to it,
ideal compatibility by tracing every exponent in [0, p-1]^N instead of one
pass over the terms of f, the Koszul reduction identity by comparing three
expanded Euler characteristics weight by weight instead of their Weyl-basis
coefficients, polynomial products by adding exponent tuples
and reducing mod p pair by pair instead of adding packed exponent ints,
Weyl orbits by a breadth-first search applying every validated simple
reflection instead of walking down from the dominant member, substitution
by adding exponent tuples of each term and each term of a power of the
replacement instead of summing packed products f_k * r^k, the Frobenius
trace by expanding f*g and filtering its monomials instead of pairing only
the terms of g in the residue class that reaches the trace, chart
weights by summing Cartan-matrix rows per variable instead of pairing
epsilon-coordinates with the simple coroots, the inverse of a unipotent
matrix by its Neumann series instead of forward substitution, the chart's
matrix by conjugating X by g instead of multiplying I + X by g^{-1}, determinants
by recursive Laplace expansion along the first row instead of one table of
minors built over column subsets, and the canonical condition by
substituting the translated row of g into the whole chart and reading the
weight of every monomial of every t-slice instead of reading it off the
leading and shifted minors, the splitting criterion on every term whose
x-part is x^(p-1), built by a truncated product with x- and y-fields,
instead of on the centre coefficient alone, truncated coordinate algebras
by shifting each weight through a zip generator per term instead of adding
packed root multiples, and also as the Steinberg character at (p-1) rho
shifted by (p-1) rho (Freudenthal's recursion, no product over roots at
all), and dominant weight multiplicities by
Freudenthal's recursion reading each m(mu + k alpha) at the dominant
conjugate found by make_dominant, with every inner product recomputed,
instead of one orbit-filled weight table with stepped inner products,
sums of Weyl characters by adding one Freudenthal table per character
instead of one Demazure pass over packed weights,
symmetrizers and the inverse transposed Cartan matrix by Fraction
arithmetic instead of integers scaled as they go and fraction-free
elimination, verify's random polynomials and shift monomials by
random.randint and the validating constructor on exponent tuples instead of
getrandbits rejection sampling inlined and keys packed as they are drawn,
Weyl characters by the same Freudenthal table and orbit walk on weight
tuples instead of packed weight keys,
and positive roots by alpha-strings
with coroots from root norms instead of one reflection walk carrying each
coroot, bad primes by trial division instead of reading 2, 3 and 5 off
the highest root, the whole Borel chart by conjugating I + X by g over
plain integer dicts, with the adjugate inverse and Leibniz determinants,
instead of one table of minors of (I + X) g^{-1} and packed products, and
W-invariance of a character by applying every element of the whole Weyl
group, listed as reduced words by an orbit search from rho, instead of
each simple reflection once.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, sub
from typing import NamedTuple, Optional, Sequence

from flagsplit.charalg import (
    DEFAULT_DIM_CAP,
    DEFAULT_TERM_CAP as CHAR_TERM_CAP,
    Character,
    GoodFiltrationDecomposition,
    GradedCharacter,
    _dominant_weight_system,
    _weight_root_product,
    module_euler,
    sym_power_char,
    weyl_character,
)
from flagsplit.errors import InputError, InvariantError, ResourceLimitError
from flagsplit.fpoly import (
    DEFAULT_ENUM_CAP,
    DEFAULT_TERM_CAP,
    CompatibilityCheck,
    SparsePolynomial,
    VariableIdeal,
    frobenius_trace,
    is_splitting_function,
)
from flagsplit.rootdata import (
    ParabolicSubset,
    Root,
    RootSystem,
    Weight,
    build_root_system,
    parabolic_subset,
)
from flagsplit.slnsplit import (
    CanonicalCheck,
    ChartFunction,
    DirectionReport,
    _block_reversal,
    _chart_matrices,
    _chart_minors,
    _mat_identity,
    _mat_mul,
    _x_part,
)


WEYL_ORDER_CAP = 1152   # |W(F4)|


def weyl_elements(rs: RootSystem, order_cap: int = WEYL_ORDER_CAP) -> list[tuple[int, ...]]:
    """Reduced words, one per element of the whole Weyl group, found by orbit
    search from rho and sorted by length.

    Raises :class:`ResourceLimitError` when the group order exceeds the cap.
    """
    seen = {rs.rho: ()}
    frontier = [rs.rho]
    while frontier:
        nxt = []
        for v in frontier:
            word = seen[v]
            for i, c in enumerate(v):
                if c > 0:
                    w = tuple(a - c * b for a, b in zip(v, rs.cartan[i]))
                    if w not in seen:
                        seen[w] = (i + 1,) + word
                        nxt.append(w)
                        if len(seen) > order_cap:
                            raise ResourceLimitError(f"Weyl group order exceeds cap {order_cap}")
        frontier = nxt
    return sorted(seen.values(), key=lambda w: (len(w), w))


def is_weyl_invariant_by_group(rs: RootSystem, ch: Character) -> bool:
    """Whether every element of the whole Weyl group keeps every multiplicity
    of ``ch``, each element applied letter by letter."""
    words = weyl_elements(rs)
    return all(ch.multiplicity(rs.weight_action(word, w)) == m
               for word in words for w, m in ch.items())


def kostant_partition_count(rs: RootSystem, vec: tuple[int, ...]) -> int:
    """Number of ways to write ``vec`` (simple-root coordinates) as a sum of
    positive roots, by recursion over the root list."""
    roots = tuple(r.simple for r in rs.positive_roots)

    @lru_cache(maxsize=None)
    def count(v: tuple[int, ...], k: int) -> int:
        if all(x == 0 for x in v):
            return 1
        if k == len(roots) or any(x < 0 for x in v):
            return 0
        total = 0
        cur = v
        while all(x >= 0 for x in cur):
            total += count(cur, k + 1)
            cur = tuple(a - b for a, b in zip(cur, roots[k]))
        return total

    return count(tuple(vec), 0)


def kostant_multiplicity(rs: RootSystem, lam, mu) -> int:
    """Weight multiplicity via the alternating Weyl sum over the partition
    function."""
    lam_rho = tuple(c + 1 for c in lam)
    mu_rho = tuple(c + 1 for c in mu)
    total = 0
    for word in weyl_elements(rs):
        moved = rs.weight_action(word, lam_rho)
        diff_fund = tuple(a - b for a, b in zip(moved, mu_rho))
        coords = rs.to_simple_coords(diff_fund)
        if any(x.denominator != 1 for x in coords):
            continue
        vec = tuple(int(x) for x in coords)
        if any(x < 0 for x in vec):
            continue
        total += (-1) ** len(word) * kostant_partition_count(rs, vec)
    return total


def freudenthal_by_dominant_lookup(rs: RootSystem, lam) -> dict[Weight, int]:
    """Multiplicities of the dominant weights of the irreducible with highest
    weight ``lam``, by Freudenthal's recursion: each m(mu + k alpha) is read
    at the dominant conjugate of mu + k alpha, found by the public
    ``make_dominant``, and each inner product is summed afresh."""
    lam = rs._check_weight(lam)
    seen = {lam}
    queue = [lam]
    while queue:
        v = queue.pop()
        for r in rs.positive_roots:
            w = tuple(a - b for a, b in zip(v, r.fund))
            if w not in seen and all(c >= 0 for c in w):
                seen.add(w)
                queue.append(w)

    def depth(mu) -> int:
        # height of lam - mu, scaled by the positive rs._coord_den
        return sum(rs._scaled_simple_coords(tuple(a - b for a, b in zip(lam, mu))))

    def product(fund, root_simple) -> int:
        # (weight, root): fundamental against simple-root coordinates
        return sum(d * a * b for d, a, b in zip(rs.symmetrizers, fund, root_simple))

    mult: dict[Weight, int] = {lam: 1}
    for mu in sorted(seen, key=lambda mu: (depth(mu), mu))[1:]:
        num = 0
        for r in rs.positive_roots:
            k = 1
            while True:
                w = tuple(a + k * b for a, b in zip(mu, r.fund))
                m = mult.get(rs.make_dominant(w)[0], 0)
                if m == 0:
                    break
                num += m * product(w, r.simple)
                k += 1
        # (lam+rho, lam+rho) - (mu+rho, mu+rho) = (lam+mu+2rho, lam-mu)
        both = tuple(a + b + 2 for a, b in zip(lam, mu))
        diff = rs._scaled_simple_coords(tuple(a - b for a, b in zip(lam, mu)))
        den, rem = divmod(
            sum(d * b * x for d, b, x in zip(rs.symmetrizers, both, diff)), rs._coord_den
        )
        assert rem == 0 and den > 0 and (2 * num) % den == 0, (rs, lam, mu)
        mult[mu] = (2 * num) // den
    return mult


def brute_sym_power(weights, n) -> dict[tuple[int, ...], int]:
    """Multiset of degree-n monomial weights by direct enumeration."""
    out: dict[tuple[int, ...], int] = {}
    for combo in itertools.combinations_with_replacement(range(len(weights)), n):
        total = tuple(sum(weights[i][k] for i in combo) for k in range(len(weights[0])))
        out[total] = out.get(total, 0) + 1
    if n == 0:
        rank = len(weights[0]) if weights else 0
        return {(0,) * rank: 1}
    return out


def brute_exterior_power(weights, j) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    rank = len(weights[0]) if weights else 0
    if j == 0:
        return {(0,) * rank: 1}
    for combo in itertools.combinations(range(len(weights)), j):
        total = tuple(sum(weights[i][k] for i in combo) for k in range(rank))
        out[total] = out.get(total, 0) + 1
    return out


def sym_power_by_series(
    par: ParabolicSubset, n_max: int, term_cap: int = CHAR_TERM_CAP
) -> GradedCharacter:
    """Characters of S^0 .. S^n_max of the dual nilradical, multiplying out
    each root's series 1 + q e^wt + q^2 e^(2 wt) + ... on weight tuples."""
    if n_max < 0:
        raise InputError("degree must be nonnegative")
    rs = par.rs
    zero = (0,) * rs.rank
    table: list[dict[Weight, int]] = [{zero: 1}] + [dict() for _ in range(n_max)]
    for wt in par.radical_weights:
        for d in range(n_max, 0, -1):
            # append powers of e^wt to lower-degree monomials not using wt yet
            for k in range(1, d + 1):
                for w, m in table[d - k].items():
                    shifted = tuple(a + k * b for a, b in zip(w, wt))
                    table[d][shifted] = table[d].get(shifted, 0) + m
            if len(table[d]) > term_cap:
                raise ResourceLimitError(f"symmetric power exceeds term cap {term_cap}")
    return GradedCharacter(
        tuple((d, Character(rs, t)) for d, t in enumerate(table))
    )


def rank1_chart_closed_form(p: int) -> SparsePolynomial:
    """(1 - x y)^(p-1) over the two chart variables, from the binomial theorem."""
    terms = {}
    for k in range(p):
        c = ((-1) ** k * comb(p - 1, k)) % p
        if c:
            terms[(k, k)] = c
    return SparsePolynomial(p, ("y21", "x12"), terms)


def rank1_chart_by_conjugation(p: int) -> dict[tuple[int, int], int]:
    """Top-left entry of g (I+X) g^{-1} to the (p-1)-st power for the generic
    2x2 pair, computed with plain dict arithmetic.

    Exponent keys are (y-degree, x-degree); coefficients are reduced mod p.
    """

    def mul(a, b):
        out = {}
        for (ya, xa), ca in a.items():
            for (yb, xb), cb in b.items():
                key = (ya + yb, xa + xb)
                out[key] = (out.get(key, 0) + ca * cb) % p
        return {k: c for k, c in out.items() if c}

    def add(a, b):
        out = dict(a)
        for k, c in b.items():
            out[k] = (out.get(k, 0) + c) % p
        return {k: c for k, c in out.items() if c}

    one = {(0, 0): 1}
    y = {(1, 0): 1}
    x = {(0, 1): 1}
    neg_y = {(1, 0): p - 1}
    zero = {}
    g = [[one, zero], [y, one]]
    i_plus_x = [[one, x], [zero, one]]
    g_inv = [[one, zero], [neg_y, one]]

    def matmul(a, b):
        return [
            [add(mul(a[i][0], b[0][j]), mul(a[i][1], b[1][j])) for j in range(2)]
            for i in range(2)
        ]

    conj = matmul(matmul(g, i_plus_x), g_inv)
    f = one
    for _ in range(p - 1):
        f = mul(f, conj[0][0])
    return f


def chart_by_conjugation(n: int, p: int) -> SparsePolynomial:
    """prod_s Delta_s^(p-1) for the Borel chart of SL_{n+1}, Delta_s the
    leading s x s minor of g (I + X) g^{-1}, with plain-dict integer
    polynomials over the y-variables (row order) then the x-variables.

    g^{-1} is the adjugate of g (whose determinant is checked to be 1), every
    determinant is a Leibniz sum over permutations, and the minors are
    reduced mod p only before their powers are multiplied."""
    size = n + 1
    lower = [(i, j) for i in range(1, size + 1) for j in range(1, i)]
    upper = sorted((j, i) for i, j in lower)
    names = tuple(f"y{i}{j}" for i, j in lower) + tuple(f"x{i}{j}" for i, j in upper)
    nv = len(names)

    def add(a, b):
        out = dict(a)
        for k, c in b.items():
            out[k] = out.get(k, 0) + c
        return {k: c for k, c in out.items() if c}

    def mul(a, b, mod=0):
        out = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                out[key] = out.get(key, 0) + ca * cb
        if mod:
            out = {k: c % mod for k, c in out.items()}
        return {k: c for k, c in out.items() if c}

    def det(m):
        acc = {}
        for perm in itertools.permutations(range(len(m))):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            term = {(0,) * nv: -1 if inversions % 2 else 1}
            for r, c in enumerate(perm):
                term = mul(term, m[r][c])
            acc = add(acc, term)
        return acc

    def matmul(a, b):
        out = [[{} for _ in range(size)] for _ in range(size)]
        for i in range(size):
            for j in range(size):
                for k in range(size):
                    out[i][j] = add(out[i][j], mul(a[i][k], b[k][j]))
        return out

    def var(k):
        return {tuple(int(i == k) for i in range(nv)): 1}

    one = {(0,) * nv: 1}
    g = [[one if i == j else {} for j in range(size)] for i in range(size)]
    i_plus_x = [[one if i == j else {} for j in range(size)] for i in range(size)]
    for k, (i, j) in enumerate(lower):
        g[i - 1][j - 1] = var(k)
    for k, (i, j) in enumerate(upper, len(lower)):
        i_plus_x[i - 1][j - 1] = var(k)
    if det(g) != one:
        raise AssertionError("det g is not 1")
    # adj(g)[i][j] = (-1)^(i+j) det(g without row j and column i)
    g_inv = [[{k: c * (-1) ** (i + j) for k, c in det(
        [[g[r][c] for c in range(size) if c != i] for r in range(size) if r != j]
    ).items()} for j in range(size)] for i in range(size)]
    conj = matmul(matmul(g, i_plus_x), g_inv)
    f = {(0,) * nv: 1}
    for s in range(1, size):
        delta = {k: r for k, c in det([row[:s] for row in conj[:s]]).items() if (r := c % p)}
        for _ in range(p - 1):
            f = mul(f, delta, p)
    return SparsePolynomial(p, names, f)



def truncated_char_by_zip(rs: RootSystem, p: int) -> dict[Weight, int]:
    """The product over positive roots of (1 + e^alpha + ... + e^((p-1) alpha)),
    shifting every weight by k*alpha in a zip generator per term and k."""
    out: dict[Weight, int] = {(0,) * rs.rank: 1}
    for r in rs.positive_roots:
        nxt: dict[Weight, int] = {}
        for w, m in out.items():
            for k in range(p):
                shifted = tuple(a + k * b for a, b in zip(w, r.fund))
                nxt[shifted] = nxt.get(shifted, 0) + m
        out = nxt
    return out


def truncated_char_by_steinberg(rs: RootSystem, p: int) -> dict[Weight, int]:
    """The same product as e^((p-1) rho) ch St: Weyl's denominator formula at
    p rho (Jantzen, Representations of Algebraic Groups, II.3.18-19) makes
    prod_alpha>0 (1 - e^(p alpha)) / (1 - e^alpha) the Weyl character of
    (p-1) rho shifted up by (p-1) rho, found here by Freudenthal."""
    top = tuple((p - 1) * c for c in rs.rho)
    st = weyl_character(rs, top, dim_cap=p ** rs.num_positive_roots)
    return {tuple(a + b for a, b in zip(w, top)): m for w, m in st.mults.items()}


def dominance_by_descent(rs: RootSystem, mu, lam) -> bool:
    """Is lam - mu a sum of simple roots?  Breadth-first subtraction oracle."""
    start = tuple(a - b for a, b in zip(lam, mu))
    seen = {start}
    queue = [start]
    zero = (0,) * rs.rank
    # bound the search by the total coroot pairing, which strictly drops
    def level(v) -> int:
        return sum(sum(u * c for u, c in zip(r.coroot, v)) for r in rs.positive_roots)
    while queue:
        v = queue.pop()
        if v == zero:
            return True
        if level(v) <= 0:
            continue
        for i in range(1, rs.rank + 1):
            w = tuple(a - b for a, b in zip(v, rs.simple_root(i).fund))
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return False


def greedy_peel(c: Character, dim_cap: int = DEFAULT_DIM_CAP) -> GoodFiltrationDecomposition:
    """Greedily peel Weyl characters off maximal weights.

    Selection rule: a weight maximal for the dominance order among the
    current support, ties broken by the lexicographically largest
    fundamental-coordinate vector.
    """
    rs = c.rs
    work = dict(c.mults)
    entries: list[tuple[Weight, int]] = []
    simple_coords: dict[Weight, tuple[Fraction, ...]] = {}

    def coords(w: Weight) -> tuple[Fraction, ...]:
        if w not in simple_coords:
            simple_coords[w] = rs.to_simple_coords(w)
        return simple_coords[w]

    def dominated(mu: Weight, nu: Weight) -> bool:
        # mu <= nu strictly, decided on cached simple-root coordinates
        if mu == nu:
            return False
        diff = tuple(a - b for a, b in zip(coords(nu), coords(mu)))
        return all(x.denominator == 1 and x >= 0 for x in diff)

    while work:
        support = sorted(work)
        maximal = [
            mu for mu in support if not any(dominated(mu, nu) for nu in support)
        ]
        top = max(maximal)
        m = work[top]
        if m < 0 or not rs.is_dominant(top):
            return GoodFiltrationDecomposition(
                ok=False,
                entries=tuple(entries),
                failure_weight=top,
                failure_mult=m,
            )
        entries.append((top, m))
        for w, cm in weyl_character(rs, top, dim_cap=dim_cap).mults.items():
            v = work.get(w, 0) - m * cm
            if v:
                work[w] = v
            elif w in work:
                del work[w]
    return GoodFiltrationDecomposition(ok=True, entries=tuple(entries))


def euler_by_weyl_search(rs: RootSystem, module: Character, lam) -> Character:
    """Euler characteristic of (module tensor lam): each weight mu + lam is
    dot-moved by the Weyl element, found by searching the whole group, that
    makes mu + lam + rho dominant, and contributes sign(w) times the Weyl
    character there, or nothing when mu + lam + rho is singular."""
    words = weyl_elements(rs)
    out = Character.zero(rs)
    for mu, m in module.mults.items():
        shifted = tuple(a + b + 1 for a, b in zip(mu, lam))
        for word in words:
            moved = rs.weight_action(word, shifted)
            if all(c >= 0 for c in moved):
                break
        if all(c > 0 for c in moved):
            sign = (-1) ** len(word)
            out = out + sign * m * weyl_character(rs, tuple(c - 1 for c in moved))
    return out


def expand_by_freudenthal(
    rs: RootSystem, coeffs: dict[Weight, int], dim_cap: int = DEFAULT_DIM_CAP,
    term_cap: int = CHAR_TERM_CAP,
) -> Character:
    """sum_nu k_nu weyl_character(nu): one Freudenthal table per nu, added
    weight by weight in sorted order of nu."""
    out: dict[Weight, int] = {}
    for nu, k in sorted(coeffs.items()):
        for w, c in weyl_character(rs, nu, dim_cap=dim_cap).mults.items():
            v = out.get(w, 0) + k * c
            if v:
                out[w] = v
            else:
                del out[w]
        if len(out) > term_cap:
            raise ResourceLimitError(f"module Euler characteristic exceeds term cap {term_cap}")
    return Character(rs, out)


class ExpandedKoszulReport(NamedTuple):
    ok: bool
    identity_ok: bool
    vanishing_applicable: bool
    vanishing_ok: bool
    lhs: Character
    shifted_term: Character
    parabolic_term: Character


def koszul_by_expansion(
    rs: RootSystem,
    n: int,
    lam,
    i: int,
    dim_cap: int = DEFAULT_DIM_CAP,
    term_cap: int = CHAR_TERM_CAP,
) -> ExpandedKoszulReport:
    """Check chi(S^n u* ox lam) = chi(S^{n-1} u* ox (lam+alpha_i))
    + chi(S^n u*_{P_i} ox lam) on the three expanded Euler characteristics,
    weight by weight, and the vanishing of the parabolic term whenever the
    pairing of lam with alpha_i-vee is -1."""
    lam = rs._check_weight(lam)
    if n < 1:
        raise InputError("the reduction identity needs n >= 1")
    rs._check_index(i)
    whole = parabolic_subset(rs)
    minimal = parabolic_subset(rs, [i])
    lhs = module_euler(rs, sym_power_char(whole, n, term_cap), lam, dim_cap, term_cap)
    alpha = rs.simple_root(i).fund
    shifted = module_euler(
        rs,
        sym_power_char(whole, n - 1, term_cap),
        tuple(a + b for a, b in zip(lam, alpha)),
        dim_cap,
        term_cap,
    )
    par_term = module_euler(rs, sym_power_char(minimal, n, term_cap), lam, dim_cap, term_cap)
    identity_ok = lhs == shifted + par_term
    applicable = rs.pairing(lam, i) == -1
    vanishing_ok = (not applicable) or not par_term
    return ExpandedKoszulReport(
        ok=identity_ok and vanishing_ok,
        identity_ok=identity_ok,
        vanishing_applicable=applicable,
        vanishing_ok=vanishing_ok,
        lhs=lhs,
        shifted_term=shifted,
        parabolic_term=par_term,
    )


def compat_by_enumeration(
    f: SparsePolynomial,
    ideal: VariableIdeal,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> CompatibilityCheck:
    """Ideal compatibility by building trace(f, x^e) for every exponent
    vector e in [0, p-1]^nvars that touches a generator, in flat-index
    order, stopping at the first trace that leaves the ideal."""
    if not is_splitting_function(f):
        raise InputError("f must satisfy the splitting criterion first")
    p = f.p
    nvars = len(f.variables)
    total = p**nvars
    if total > enum_cap:
        raise ResourceLimitError(
            f"compatibility enumeration {p}^{nvars} exceeds cap {enum_cap}"
        )
    for flat in range(total):
        e = []
        r = flat
        for _ in range(nvars):
            e.append(r % p)
            r //= p
        e = tuple(e)
        if not ideal.contains_monomial(e):
            continue
        mono = SparsePolynomial.monomial(p, f.variables, e)
        tr = frobenius_trace(f, mono)
        if not all(ideal.contains_monomial(g) for g in tr.terms):
            return CompatibilityCheck(False, e, tr)
    return CompatibilityCheck(True)


def mul_by_tuples(
    self: SparsePolynomial, other: SparsePolynomial, term_cap: int = DEFAULT_TERM_CAP
) -> SparsePolynomial:
    """The product over exponent tuples, reduced mod p after every pair and
    refused once more than ``term_cap`` terms are nonzero after a row."""
    self._check_compatible(other)
    p = self.p
    out: dict[tuple[int, ...], int] = {}
    right = other.terms.items()
    for e1, c1 in self.terms.items():
        for e2, c2 in right:
            e = tuple(a + b for a, b in zip(e1, e2))
            v = (out.get(e, 0) + c1 * c2) % p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        if len(out) > term_cap:
            raise ResourceLimitError(f"product exceeds term cap {term_cap}")
    return SparsePolynomial(p, self.variables, out)


def trace_by_product(
    f: SparsePolynomial, g: SparsePolynomial, term_cap: int = DEFAULT_TERM_CAP
) -> SparsePolynomial:
    """Apply the trace of multiplication by f to g.

    Expands f*g and sends each monomial x^gamma to x^((gamma+1)/p - 1),
    interpreted as zero whenever some ((gamma_i+1)/p) is not an integer.
    The operator is additive in both arguments and semilinear:
    trace(f, h^p * g) = h * trace(f, g).
    """
    f._check_compatible(g)
    p = f.p
    prod = f.mul(g, term_cap)
    out: dict[tuple[int, ...], int] = {}
    for e, c in prod.terms.items():
        if all((x + 1) % p == 0 for x in e):
            target = tuple((x + 1) // p - 1 for x in e)
            v = (out.get(target, 0) + c) % p
            if v:
                out[target] = v
            elif target in out:
                del out[target]
    return SparsePolynomial(p, f.variables, out)


def substitute_by_tuples(
    self: SparsePolynomial, name: str, replacement: SparsePolynomial,
    term_cap: int = DEFAULT_TERM_CAP,
) -> SparsePolynomial:
    """Replace one variable by a polynomial over the same table, adding the
    exponent tuple of every term of f to that of every term of the matching
    power of the replacement and reducing mod p pair by pair."""
    self._check_compatible(replacement)
    if name not in self.variables:
        raise InputError(f"unknown variable {name!r}")
    idx = self.variables.index(name)
    powers: dict[int, SparsePolynomial] = {
        0: SparsePolynomial.constant(self.p, self.variables, 1)
    }
    def power(k: int) -> SparsePolynomial:
        if k not in powers:
            powers[k] = power(k - 1).mul(replacement, term_cap)
        return powers[k]
    out: dict[tuple[int, ...], int] = {}
    for e, c in self.terms.items():
        stripped = tuple(0 if i == idx else x for i, x in enumerate(e))
        for e2, c2 in power(e[idx]).terms.items():
            t = tuple(a + b for a, b in zip(stripped, e2))
            v = (out.get(t, 0) + c * c2) % self.p
            if v:
                out[t] = v
            elif t in out:
                del out[t]
    return SparsePolynomial(self.p, self.variables, out)


def unipotent_inverse_by_neumann(g, term_cap: int = DEFAULT_TERM_CAP):
    """Inverse of a lower unipotent polynomial matrix g = I + L as the
    finite Neumann series sum_k (-L)^k, stopped at the first zero power."""
    size = len(g)
    ident = _mat_identity(g[0][0], size)
    low = [[g[i][j] - ident[i][j] for j in range(size)] for i in range(size)]
    out = [row[:] for row in ident]
    power = [row[:] for row in ident]
    sign = 1
    for _ in range(size):
        power = _mat_mul(power, low, term_cap)
        if all(e.is_zero() for row in power for e in row):
            break
        sign = -sign
        for i in range(size):
            for j in range(size):
                out[i][j] = out[i][j] + power[i][j].scale(sign)
    return out


def conjugated_chart_matrix(n: int, p: int, subset=(), term_cap: int = DEFAULT_TERM_CAP):
    """The block-permuted g X g^{-1} of the chart of SL_{n+1} for a
    parabolic subset (the Borel chart for the empty one), formed by
    conjugating the generic X by the generic g, with g^{-1} from its Neumann
    series.  Adding the identity gives the block-permuted g (I + X) g^{-1}."""
    _, g, x = _chart_matrices(n, p, frozenset(subset))
    inverse = unipotent_inverse_by_neumann(g, term_cap)
    gxg = _mat_mul(_mat_mul(g, x, term_cap), inverse, term_cap)
    perm = _block_reversal(n, frozenset(subset))
    return [[gxg[i][j] for j in perm] for i in perm]


def _eps_diff(rs: RootSystem, i: int, j: int) -> Weight:
    # eps_i - eps_j in fundamental coordinates; rows of the Cartan matrix are
    # the simple roots and eps_i - eps_{i+1} = alpha_i.
    if i == j:
        return (0,) * rs.rank
    sign = 1
    if i > j:
        i, j = j, i
        sign = -1
    out = [0] * rs.rank
    for k in range(i, j):
        for c in range(rs.rank):
            out[c] += sign * rs.cartan[k - 1][c]
    return tuple(out)


def chart_weight_by_cartan_rows(cf, e) -> Weight:
    """Weight of the chart monomial x^e in fundamental coordinates: each
    variable at (i, j) is tagged eps_i - eps_j, summed from Cartan-matrix
    rows, and the tags are added with multiplicity e."""
    rs = build_root_system("A", cf.n)
    tags = [_eps_diff(rs, i, j) for i, j in cf.positions]
    out = [0] * rs.rank
    for a, w in zip(e, tags):
        for k in range(rs.rank):
            out[k] += a * w[k]
    return tuple(out)


def orbit_by_bfs(rs: RootSystem, lam) -> list[Weight]:
    """The W-orbit of ``lam``, sorted: breadth-first search from ``lam``
    applying every public simple reflection to every member found."""
    lam = rs._check_weight(lam)
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(1, rs.rank + 1):
                w = rs.reflect(i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen)


def make_dominant_by_reflect(rs: RootSystem, lam) -> tuple[Weight, int]:
    """Dominant orbit member and the number of reflections used, reflecting
    in the first negative coordinate through the public ``reflect``."""
    cur = rs._check_weight(lam)
    count = 0
    while True:
        k = next((i for i in range(rs.rank) if cur[i] < 0), None)
        if k is None:
            return cur, count
        cur = rs.reflect(k + 1, cur)
        count += 1


def det_by_laplace(m, term_cap: int = DEFAULT_TERM_CAP) -> SparsePolynomial:
    """Determinant of a square polynomial matrix by Laplace expansion along
    the first row, recursing on every minor afresh."""
    size = len(m)
    if size == 1:
        return m[0][0]
    acc = m[0][0].scale(0)
    for j in range(size):
        if m[0][j].is_zero():
            continue
        minor = [[m[r][c] for c in range(size) if c != j] for r in range(1, size)]
        term = m[0][j].mul(det_by_laplace(minor, term_cap), term_cap)
        acc = acc + (term if j % 2 == 0 else term.scale(-1))
    return acc


def canonical_by_substitution(
    cf: ChartFunction, term_cap: int = DEFAULT_TERM_CAP
) -> CanonicalCheck:
    """Canonical-splitting condition for a Borel chart function, such as
    :func:`build_chart_function`'s.

    (a) Every monomial has weight zero.  (b) Translating g by the lower
    elementary x_k(-t) expands in t with degree at most p-1 and the t^i
    coefficient purely of weight i * alpha_k.  Each translation substitutes
    the new row k+1 of g into the t-extended chart, and every monomial of
    the result has its weight read.
    """
    if cf.subset:
        raise InputError("the canonical condition is checked on a Borel chart")
    n, p = cf.n, cf.p
    rs = build_root_system("A", n)
    invariant = cf.is_t_invariant()
    names = cf.poly.variables
    ext_names = names + ("t",)

    f_ext = SparsePolynomial(p, ext_names, {e + (0,): c for e, c in cf.poly.terms.items()})
    t_var = SparsePolynomial.variable(p, ext_names, "t")
    one_ext = SparsePolynomial.constant(p, ext_names, 1)

    reports = []
    all_ok = invariant
    for k in range(1, n + 1):
        cur = f_ext
        # row operation: row k+1 of g becomes row_{k+1} - t * row_k
        for j in range(1, k + 1):
            target = f"y{k + 1}{j}"
            if target not in names:
                continue
            base = SparsePolynomial.variable(p, ext_names, target)
            if j == k:
                g_kj = one_ext
            else:
                g_kj = SparsePolynomial.variable(p, ext_names, f"y{k}{j}")
            cur = cur.substitute(target, base - t_var.mul(g_kj, term_cap), term_cap)
        # the t^i slice must have weight i * alpha_k; the chart weight
        # ignores the trailing t exponent
        alpha = rs.simple_root(k).fund
        t_degree = max((e[-1] for e in cur.terms), default=0)
        degree_ok = t_degree <= p - 1
        weights_ok = all(
            cf.monomial_weight(e) == tuple(e[-1] * a for a in alpha) for e in cur.terms
        )
        reports.append(DirectionReport(k, t_degree, degree_ok, weights_ok))
        all_ok = all_ok and degree_ok and weights_ok
    return CanonicalCheck(all_ok, invariant, tuple(reports))


def big_cell_slice(n: int, p: int) -> SparsePolynomial:
    """prod_{s=1..n} B_s(g)^(p-1), B_s the bottom-left s x s minor (the last
    s rows, the first s columns) of the generic lower unipotent g of
    SL_{n+1}, over g's entries y_ij (i > j) in row order: the Mehta-Ramanathan
    splitting of the big cell of G/B.  Needs no inverse, no conjugation and
    no X; determinants by Laplace expansion, products over exponent tuples."""
    size = n + 1
    names = tuple(f"y{i}{j}" for i in range(1, size + 1) for j in range(1, i))
    one = SparsePolynomial.constant(p, names, 1)
    zero = one.scale(0)
    g = [[one if i == j else zero for j in range(1, size + 1)] for i in range(1, size + 1)]
    for i in range(1, size + 1):
        for j in range(1, i):
            g[i - 1][j - 1] = SparsePolynomial.variable(p, names, f"y{i}{j}")
    out = one
    for s in range(1, n + 1):
        minor = det_by_laplace([row[:s] for row in g[size - s:]])
        for _ in range(p - 1):
            out = mul_by_tuples(out, minor)
    return out


def _truncated_product(
    factors: Sequence[SparsePolynomial], x_start: int, term_cap: int
) -> SparsePolynomial:
    """The terms of the product of ``factors`` whose x-part (the variables
    from ``x_start`` on) is x^(p-1): every x-exponent exactly p-1.

    Exponents only grow, so a partial term is dropped once an x-exponent is
    above p-1, or is further below p-1 than the factors still to come can
    add.  Keys pack each x-field one guard bit wider than its values, below
    the y-fields, so each test is one add and one mask.  As in :meth:`mul`,
    refused once a partial product has more than ``term_cap`` terms after a
    row.
    """
    p, variables = factors[0].p, factors[0].variables
    top = p - 1
    nx = len(variables) - x_start
    # a factor term with an x-exponent above p-1 reaches no kept term
    kept = sorted(([(e, c) for e, c in f.terms.items() if max(e[x_start:], default=0) <= top]
                   for f in factors), key=len, reverse=True)
    width = (2 * top).bit_length() + 1   # a partial x-field is at most 2(p-1)
    y_width = max(1, sum(max((max(e[:x_start], default=0) for e, _ in terms), default=0)
                         for terms in kept).bit_length())
    shifts = ([nx * width + j * y_width for j in range(x_start)]
              + [i * width for i in range(nx)])
    guard = 1 << (width - 1)

    def x_fields(values: Sequence[int]) -> int:
        return sum(v << s for v, s in zip(values, shifts[x_start:]))

    guards = x_fields([guard] * nx)
    over = x_fields([guard - p] * nx)   # sets a field's guard bit iff it is above p-1
    maxes = [[max((e[i] for e, _ in terms), default=0) for i in range(x_start, len(variables))]
             for terms in kept]
    reach = [sum(col) for col in zip(*maxes)]   # what the factors to come can add

    out: dict[int, int] = {0: 1}
    for terms, added in zip(kept, maxes):
        reach = list(map(sub, reach, added))
        # sets every guard bit iff each field can still reach p-1
        under = x_fields([guard - max(top - r, 0) for r in reach])
        right = [(sum(a << s for a, s in zip(e, shifts)), c) for e, c in terms]
        left, out = out, {}
        get = out.get
        for k1, c1 in left.items():
            for k2, c2 in right:
                k = k1 + k2
                if (k + over) & guards or (k + under) & guards != guards:
                    continue
                c = (get(k, 0) + c1 * c2) % p
                if c:
                    out[k] = c
                else:   # c1 * c2 is nonzero mod p, so k was in out
                    del out[k]
            if len(out) > term_cap:
                raise ResourceLimitError(f"product exceeds term cap {term_cap}")
    masks = [(1 << y_width) - 1] * x_start + [(1 << width) - 1] * nx
    return SparsePolynomial(p, variables, {
        tuple((k >> s) & m for s, m in zip(shifts, masks)): c for k, c in out.items()})


def x_slice_by_truncation(
    n: int, p: int, subset: frozenset[int] = frozenset(), term_cap: int = DEFAULT_TERM_CAP
) -> tuple[tuple[str, ...], Optional[SparsePolynomial]]:
    """The chart's variable names and the terms of its function f whose
    x-part is x^(p-1); None when f has x-degree above N'(p-1), N' the number
    of x-variables.  The ring is a domain, so f's top x-degree part is the
    product of the (p-1)-st powers of the minors' top parts, which
    :func:`_truncated_product` multiplies keeping only that x-part; the
    splitting criterion on the result is f's when the top x-degree is
    N'(p-1)."""
    (names, _, x_start), deltas, _ = _chart_minors(n, p, subset, n, term_cap)
    degrees = [max(sum(e[x_start:]) for e in d.terms) for d in deltas]
    if sum(degrees) > len(names) - x_start:
        return names, None
    powers = [_x_part(d, x_start, k).power(p - 1, term_cap) for d, k in zip(deltas, degrees)]
    return names, _truncated_product(powers, x_start, term_cap)


def symmetrizers_by_fractions(cartan: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Positive integers d with a[i][j]*d[j] == a[j][i]*d[i], propagated from
    node 0 as Fractions, then cleared of denominators and divided by their gcd;
    None for a disconnected Dynkin graph."""
    n = len(cartan)
    d: list[Optional[Fraction]] = [None] * n
    d[0] = Fraction(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                todo.append(j)
    if any(x is None for x in d):
        return None
    den = lcm(*(x.denominator for x in d))
    ints = [int(x * den) for x in d]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def positive_roots_by_strings(cartan: Sequence[Sequence[int]]) -> tuple[Root, ...]:
    """R+ sorted by height, then with alpha_1, ..., alpha_n in order.

    Grows roots breadth first from the simple ones: beta + alpha_i is a root
    when the alpha_i-string through beta reaches above it, i.e. when the
    string's length p below beta exceeds <beta, alpha_i^vee>.  Each coroot is
    sum_i (d_i m_i / d_beta) alpha_i^vee, with d the symmetrizers and d_beta
    half the squared length of beta, kept as Fractions, so that a coroot
    that is not integral compares unequal to every integer one."""
    n = len(cartan)
    d = symmetrizers_by_fractions(cartan)
    simple = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    found = set(simple)
    queue = list(simple)
    while queue:
        beta = queue.pop(0)
        for i in range(n):
            p = 0
            down = list(beta)
            while True:
                down[i] -= 1
                if tuple(down) not in found:
                    break
                p += 1
            if p - sum(beta[j] * cartan[j][i] for j in range(n)) > 0:
                up = tuple(b + (k == i) for k, b in enumerate(beta))
                if up not in found:
                    found.add(up)
                    queue.append(up)
    roots = []
    for m in sorted(found, key=lambda m: (sum(m), tuple(-x for x in m))):
        fund = tuple(sum(m[j] * cartan[j][i] for j in range(n)) for i in range(n))
        half = sum(m[i] * cartan[i][j] * d[j] * m[j] for i in range(n) for j in range(n)) // 2
        roots.append(Root(m, fund, tuple(Fraction(d[i] * m[i], half) for i in range(n))))
    return tuple(roots)


def bad_primes_by_trial_division(highest_root: Sequence[int]) -> tuple[int, ...]:
    """The primes dividing some coefficient of the highest root, sorted."""
    return tuple(q for q in range(2, max(highest_root) + 1)
                 if all(q % k for k in range(2, q)) and any(m % q == 0 for m in highest_root))


def inverse_by_fractions(m: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, num) with m^-1 = num / den: Gauss-Jordan elimination over
    Fractions, den the lcm of the entries' denominators."""
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    den = lcm(*(x.denominator for row in aug for x in row[n:]))
    return den, tuple(tuple(int(x * den) for x in row[n:]) for row in aug)


def random_poly_by_randint(rng, p: int, variables, max_terms: int = 6, max_exp: int = 6):
    """verify's random polynomial drawn by random.randint: randint(1, max_terms)
    terms, each with randint(0, max_exp) per variable and coefficient
    randint(1, p - 1)."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[e] = rng.randint(1, p - 1)
    return SparsePolynomial(p, variables, terms)


def shift_monomials_by_randint(rng, p: int, variables):
    """verify's shift draw: beta by randint(0, 2) per variable, then the
    monomials x^(p beta) and x^beta from the validating constructor."""
    beta = tuple(rng.randint(0, 2) for _ in variables)
    return (beta, SparsePolynomial.monomial(p, variables, tuple(p * b for b in beta)),
            SparsePolynomial.monomial(p, variables, beta))


def orbit_walk_by_tuples(rs: RootSystem, top: Weight) -> list[Weight]:
    """The W-orbit of the dominant weight ``top``, unvalidated, in walk order,
    on weight tuples: the library's walk before it moved to packed keys.

    Builds each member exactly once, on a tree rooted at the orbit's
    dominant member: make_dominant's reduction path read backwards.  A
    member w other than the top has a least index j with w_j < 0, and its
    one parent is s_j w = w - w_j alpha_j, which lies higher.  So from v
    the walk keeps the child s_i v (where v_i > 0) exactly when no
    coordinate of the child before i is negative.  s_i changes only
    coordinate i and raises those of i's neighbours in the Dynkin
    diagram, so every such i before v's first negative coordinate
    qualifies, and past it only a neighbour of it can.
    """
    adjacent = rs._adjacent

    def child(v: Weight, i: int) -> list[int]:
        c = v[i]
        w = list(v)
        w[i] = -c
        for k, a in adjacent[i]:
            w[k] -= c * a
        return w

    orbit = [top]
    for v in orbit:   # the list grows as it is walked
        for i, c in enumerate(v):
            if c > 0:
                orbit.append(tuple(child(v, i)))
            elif c < 0:
                # i is v's first negative coordinate: only s_j for a later
                # neighbour j of i can lift it, and nothing before j may
                # stay negative
                for j, _ in adjacent[i]:
                    if j > i and v[j] > 0:
                        w = child(v, j)
                        if min(w[:j]) >= 0:
                            orbit.append(tuple(w))
                break
    return orbit


def freudenthal_table_by_tuples(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    """Every weight of the irreducible with highest weight ``lam`` and its
    multiplicity, by the library's Freudenthal table before it moved to
    packed keys: each root string stepped by adding weight tuples, each
    orbit filled by :func:`orbit_walk_by_tuples`."""
    # Every weight of the irreducible with its multiplicity.  Dominant mu are
    # taken in order of depth, and each one's W-orbit is entered as soon as
    # its multiplicity is known.  A weight mu + k alpha above a dominant mu
    # has its dominant conjugate strictly above mu, so it is already in the
    # table when it is a weight at all: get(w, 0) reads m(mu + k alpha).
    # weyl_character has checked that lam is dominant, and every mu below is
    # dominant by construction, so their orbits are walked without validation.
    table = dict.fromkeys(orbit_walk_by_tuples(rs, lam), 1)
    roots = [(r.fund, r.simple, _weight_root_product(rs, r.fund, r.simple))
             for r in rs.positive_roots]
    for mu in _dominant_weight_system(rs, lam)[1:]:
        num = 0
        for fund, simple, norm in roots:
            w = tuple(map(add, mu, fund))
            m = table.get(w, 0)
            if m:
                # (mu + k alpha, alpha), stepped by (alpha, alpha) along the string
                ip = _weight_root_product(rs, w, simple)
                while m:
                    num += m * ip
                    ip += norm
                    w = tuple(map(add, w, fund))
                    m = table.get(w, 0)
        # denominator: (lam+rho, lam+rho) - (mu+rho, mu+rho) = (lam+mu+2rho, lam-mu)
        # with lam - mu in simple-root coordinates scaled by rs._coord_den
        both = tuple(a + b + 2 for a, b in zip(lam, mu))
        diff = rs._scaled_simple_coords(tuple(map(sub, lam, mu)))
        den, rem = divmod(
            sum(d * b * x for d, b, x in zip(rs.symmetrizers, both, diff)), rs._coord_den
        )
        if rem or den <= 0 or (2 * num) % den:
            raise InvariantError(
                f"Freudenthal multiplicity of {mu} in the character of {lam} "
                "is not an integer"
            )
        m = (2 * num) // den
        if m < 1:
            # a zero would read as "not a weight" further down
            raise InvariantError(
                f"Freudenthal multiplicity of the dominant weight {mu} in the "
                f"character of {lam} is {m}, not positive"
            )
        table.update(dict.fromkeys(orbit_walk_by_tuples(rs, mu), m))
    return table
