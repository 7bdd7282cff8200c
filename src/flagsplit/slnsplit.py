"""Explicit splitting functions for SL_{n+1} on the big chart of the
cotangent-bundle model.

The chart has coordinates y_{ij} (i > j, entries of a generic lower
unipotent g) and x_{ij} (i < j, entries of a generic strictly upper
triangular X).  The variable at matrix position (i, j) has the weight
eps_i - eps_j; ``ChartFunction.monomial_weight`` reads it off the recorded
positions and writes a monomial's weight in fundamental coordinates of A_n,
so that the built functions are weight-zero monomial by monomial.  The
polynomials themselves are plain: no weight is stored in them.

The main function multiplies the (p-1)-st powers of the leading principal
minors Delta_s of g (I + X) g^{-1}.  Every minor read lies on rows 1..k,
and left multiplication by the lower unitriangular g leaves those alone,
so all are read off one table of minors of (I + X) g^{-1} (the inverse of
a unipotent matrix by forward substitution), built row by row over column
subsets; no conjugation is formed.  Its fibre-degree N(p-1) component is
built alone from the x-degree-s parts of the Delta_s, the minors of
X g^{-1} (``build_mvk_component``).  The splitting criterion reads still
less: one coefficient, the centre, which ``splitting_check`` computes for
the Borel and every parabolic chart by fpoly's truncated product of the
powers of the minors' top parts, without the chart.  A chart is a value
with no cache behind it: the caller builds it once and passes it, or its
homogeneous component, to each check.  Sign conventions: with these
weights the x-variables carry positive-root weights; the canonical
condition translates g by the lower elementary x_k(t) = I + t E_{k+1,k}.
That changes only the k-th leading minor Delta_k, to Delta_k + t D_k, so
``canonical_check`` reads the condition off the same minor table, one
column wider, without the chart: the ring is a domain and the weight
grading torsion-free, so the t-degree and weights follow from the minors.
"""

from __future__ import annotations

from itertools import combinations
from operator import add, sub
from typing import NamedTuple, Optional, Sequence

from .errors import InvariantError
from .fpoly import (
    DEFAULT_ENUM_CAP,
    DEFAULT_TERM_CAP,
    CompatibilityCheck,
    PrimeField,
    SparsePolynomial,
    SplittingCheck,
    VariableIdeal,
    _centre_coefficient,
    _settled,
    is_splitting_function,
    splits_ideal_compatibly,
)
from .rootdata import Weight, build_root_system

Matrix = list[list[SparsePolynomial]]


class ChartFunction(NamedTuple):
    """A polynomial on a chart of the cotangent-bundle model, with the matrix
    position of each of its variables."""

    poly: SparsePolynomial
    n: int
    p: int
    positions: tuple[tuple[int, int], ...]   # matrix position per variable
    x_start: int                             # the x-variables are the trailing ones
    subset: frozenset[int]                   # parabolic subset; empty = Borel

    @property
    def num_x(self) -> int:
        return len(self.positions) - self.x_start

    def max_x_degree(self) -> int:
        x_start = self.x_start
        return max((sum(e[x_start:]) for e in self.poly.exponents()), default=0)

    def x_degree_component(self, d: int) -> SparsePolynomial:
        return _x_part(self.poly, self.x_start, d)

    def monomial_weight(self, e: Sequence[int]) -> Weight:
        """Weight of the monomial x^e in fundamental coordinates."""
        return _monomial_weight(self.n, self.positions, e)

    def is_t_invariant(self) -> bool:
        zero = (0,) * self.n
        return all(self.monomial_weight(e) == zero for e in self.poly.exponents())


def _x_part(f: SparsePolynomial, x_start: int, d: int) -> SparsePolynomial:
    # the terms of f of x-degree d, the x-variables from x_start on
    return _settled(f.p, f.variables, f.width, {
        k: c for (k, c), e in zip(f.packed.items(), f.exponents()) if sum(e[x_start:]) == d})


def _monomial_weight(n: int, positions: Sequence[tuple[int, int]], e: Sequence[int]) -> Weight:
    # the variable at position (i, j) has weight eps_i - eps_j; a weight
    # sum_i c_i eps_i pairs with the k-th simple coroot to c_k - c_{k+1}
    c = [0] * (n + 2)
    for (i, j), a in zip(positions, e):
        if a:
            c[i] += a
            c[j] -= a
    return tuple(map(sub, c[1:-1], c[2:]))


def _chart_table(n: int, subset: frozenset[int]) -> tuple[
    tuple[str, ...], tuple[tuple[int, int], ...], int
]:
    # variable names and matrix positions, the y-variables (below the
    # diagonal) first; the index of the first x-variable
    size = n + 1
    block = _block_ids(n, subset)
    lower = [(i, j) for i in range(1, size + 1) for j in range(1, i)
             if block[i - 1] != block[j - 1]]
    upper = sorted((j, i) for i, j in lower)
    names = tuple(f"y{i}{j}" for i, j in lower) + tuple(f"x{i}{j}" for i, j in upper)
    return names, tuple(lower + upper), len(lower)


def _block_ids(n: int, subset: frozenset[int]) -> list[int]:
    # 0-based positions a and a+1 share a Levi block iff simple root a+1 is in I
    ids = [0] * (n + 1)
    for a in range(1, n + 1):
        ids[a] = ids[a - 1] if a in subset else ids[a - 1] + 1
    return ids


def _block_reversal(n: int, subset: frozenset[int]) -> list[int]:
    # longest element of the Levi Weyl group as a 0-based permutation
    ids = _block_ids(n, subset)
    return sorted(range(n + 1), key=lambda a: (ids[a], -a))


# -- polynomial matrices --------------------------------------------------

def _mat_mul(a: Matrix, b: Matrix, term_cap: int) -> Matrix:
    size = len(a)
    zero = a[0][0].scale(0)
    out = [[zero for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for k in range(size):
            if a[i][k].is_zero():
                continue
            for j in range(size):
                if b[k][j].is_zero():
                    continue
                out[i][j] = out[i][j] + a[i][k].mul(b[k][j], term_cap)
    return out


def _mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[u + v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_identity(proto: SparsePolynomial, size: int) -> Matrix:
    one = SparsePolynomial.constant(proto.p, proto.variables, 1)
    zero = one.scale(0)
    return [[one if i == j else zero for j in range(size)] for i in range(size)]


def _unipotent_inverse(g: Matrix, term_cap: int) -> Matrix:
    # g h = I with h lower unipotent: h_ij = -sum_{j<=k<i} g_ik h_kj for i > j
    size = len(g)
    h = _mat_identity(g[0][0], size)
    for j in range(size):
        for i in range(j + 1, size):
            acc = h[i][j]
            for k in range(j, i):
                acc = acc + g[i][k].mul(h[k][j], term_cap)
            h[i][j] = -acc
    return h


def _minor_table(m: Matrix, width: int, term_cap: int) -> dict[int, SparsePolynomial]:
    # det(rows 1..|S|, columns S) for each set S of the first `width` columns
    # with |S| < len(m), keyed by bitmask, expanding along the last row:
    # det(rows 1..k, S) = sum_{j in S} +-m[k][j] det(rows 1..k-1, S - {j})
    one = SparsePolynomial.constant(m[0][0].p, m[0][0].variables, 1)
    zero = one.scale(0)
    table = {0: one}
    for k in range(min(width, len(m) - 1)):
        row = m[k]
        for cols in combinations(range(width), k + 1):
            mask = sum(1 << j for j in cols)
            acc = zero
            for q, j in enumerate(cols):
                minor = table[mask ^ (1 << j)]
                if row[j].is_zero() or minor.is_zero():
                    continue
                term = row[j].mul(minor, term_cap)
                acc = acc + (term if (k + q) % 2 == 0 else term.scale(-1))
            table[mask] = acc
    return table


def _chart_subset(n: int, p: int, subset: Sequence[int]) -> frozenset[int]:
    # the inputs, each by its owner: n as the rank of A_n, which rootdata
    # caps, p by PrimeField, and then the subset by rootdata
    rs = build_root_system("A", n)
    PrimeField(p)
    return rs._check_subset(subset)


def _chart_matrices(n: int, p: int, subset: frozenset[int]) -> tuple[tuple, Matrix, Matrix]:
    # the chart's variable table, the generic lower unipotent g and the
    # generic strictly upper triangular X
    table = _chart_table(n, _chart_subset(n, p, subset))
    names, positions, x_start = table
    one = SparsePolynomial.constant(p, names, 1)

    def place(m: Matrix, indices: range) -> Matrix:
        for k in indices:
            i, j = positions[k]
            m[i - 1][j - 1] = SparsePolynomial.variable(p, names, names[k])
        return m

    g = place(_mat_identity(one, n + 1), range(x_start))
    zero = one.scale(0)
    x = place([[zero] * (n + 1) for _ in range(n + 1)], range(x_start, len(names)))
    return table, g, x


def _chart_minors(
    n: int, p: int, subset: frozenset[int], width: int, term_cap: int
) -> tuple[tuple, list[SparsePolynomial], dict[int, SparsePolynomial]]:
    # the chart's variable table, Delta_1..Delta_n and the minor table at
    # `width` columns of the block-permuted g (I + X) g^{-1}.  Every minor
    # lies on rows 1..k, and (L B)[1..k, S] = L[1..k, 1..k] B[1..k, S] for
    # the lower unitriangular block-permuted g = L, so the table is read off
    # (I + X) g^{-1}.  ((I + X) g^{-1}) g = I + X and Delta_s = 1 at X=0 are
    # checked without assert so -O keeps them
    table, g, x = _chart_matrices(n, p, subset)
    names, _, x_start = table
    i_plus_x = _mat_add(_mat_identity(g[0][0], n + 1), x)
    m = _mat_mul(i_plus_x, _unipotent_inverse(g, term_cap), term_cap)
    if _mat_mul(m, g, term_cap) != i_plus_x:
        raise InvariantError(f"g^-1 for n={n}, p={p} is not the inverse of g: "
                             "((I + X) g^-1) g differs from I + X")
    perm = _block_reversal(n, subset)
    minors = _minor_table([[m[i][j] for j in perm] for i in perm], width, term_cap)
    deltas = [minors[(1 << s) - 1] for s in range(1, n + 1)]
    one = SparsePolynomial.constant(p, names, 1)
    for s, d in enumerate(deltas, 1):
        if _x_part(d, x_start, 0) != one:
            raise InvariantError(
                f"leading minor {s} for n={n}, p={p}, subset={sorted(subset)} "
                "is not 1 at X=0"
            )
    return table, deltas, minors


def _power_product(deltas: Sequence[SparsePolynomial], p: int, term_cap: int) -> SparsePolynomial:
    # prod_s Delta_s^(p-1)
    f = SparsePolynomial.constant(p, deltas[0].variables, 1)
    for d in deltas:
        f = f.mul(d.power(p - 1, term_cap), term_cap)
    return f


def _build_chart(
    n: int, p: int, subset: frozenset[int], term_cap: int
) -> ChartFunction:
    (_, positions, x_start), deltas, _ = _chart_minors(n, p, subset, n, term_cap)
    return ChartFunction(poly=_power_product(deltas, p, term_cap), n=n, p=p,
                         positions=positions, x_start=x_start, subset=subset)


def build_chart_function(n: int, p: int, term_cap: int = DEFAULT_TERM_CAP) -> ChartFunction:
    """Product of the (p-1)-st powers of the leading principal minors of
    g (I + X) g^{-1}, the chart form of the extreme-vector splitting.
    Whether it splits is ``is_splitting_function(cf.poly)``, which
    :func:`splitting_check` decides from its centre coefficient alone,
    without building it."""
    return _build_chart(n, p, frozenset(), term_cap)


def build_parabolic_chart_function(
    n: int, p: int, subset: Sequence[int], term_cap: int = DEFAULT_TERM_CAP
) -> ChartFunction:
    """Chart splitting function for a parabolic subset of simple roots.

    Realised as the leading-minor product of w0'^{-1} A w0' where w0' is the
    block-reversal permutation of the Levi factor; this is the chart form of
    the pairing against the Levi-translated extreme weight vectors, and it
    reduces to :func:`build_chart_function` when the subset is empty.
    """
    return _build_chart(n, p, _chart_subset(n, p, subset), term_cap)


def build_mvk_component(n: int, p: int, term_cap: int = DEFAULT_TERM_CAP) -> ChartFunction:
    """The fibre-degree N(p-1) component of :func:`build_chart_function`'s
    chart, built without the rest of the chart: the product of the (p-1)-st
    powers of the x-degree-s parts of the leading minors Delta_s.

    Every entry of (I + X) g^{-1} = g^{-1} + X g^{-1} has x-degree at most
    1, so the x-degree-s part of Delta_s is the s-th leading minor of
    X g^{-1}, which is that of g X g^{-1}, and the top part of a product is
    the product of the top parts.  The splitting criterion reads only
    monomials of x-degree at least N(p-1), so it gets the same verdict and
    witness here as on the whole chart.
    """
    (_, positions, x_start), deltas, _ = _chart_minors(n, p, frozenset(), n, term_cap)
    tops = [_x_part(d, x_start, s) for s, d in enumerate(deltas, 1)]
    return ChartFunction(poly=_power_product(tops, p, term_cap), n=n, p=p,
                         positions=positions, x_start=x_start, subset=frozenset())


def _weight_certificate(
    n: int, positions: Sequence[tuple[int, int]], polys: Sequence[SparsePolynomial], total: Weight
) -> Optional[list[Weight]]:
    # the weight of each of `polys` when each is homogeneous and the weights
    # sum to `total`, else None
    weights = []
    for d in polys:
        found = {_monomial_weight(n, positions, e) for e in d.exponents()}
        if len(found) != 1:
            return None
        weights.append(found.pop())
    return weights if tuple(map(sum, zip(*weights))) == total else None


def splitting_check(
    n: int, p: int, subset: Sequence[int] = (), term_cap: int = DEFAULT_TERM_CAP
) -> tuple[tuple[str, ...], SplittingCheck]:
    """The variable names of the chart of :func:`build_parabolic_chart_function`
    (the Borel chart for the empty subset) and the splitting criterion on
    its function f, decided without building f.

    Every Delta_s has weight 0: the diagonal torus fixes leading minors, and
    the block permutation keeps it diagonal.  Minors that are not
    homogeneous with weights summing to 0 raise InvariantError; otherwise f
    has weight 0.  The ring is a domain, so f's top x-degree part is the
    product of the (p-1)-st powers of the minors' top parts.  A monomial y^a
    x^b with every exponent congruent to p-1 has b >= p-1.  Below x-degree
    N'(p-1), N' the number of x-variables, there is none, and the centre is
    the witness.  At N'(p-1), b = p-1.  The y-variables carry the negatives
    of the x-variables' roots, so pairing with rho-check gives sum ht(beta)
    a_beta = (p-1) sum ht(beta), and a >= p-1 forces a = p-1.  Then f splits
    iff its centre (all-(p-1)) coefficient is nonzero, and the centre lies
    in f's top x-degree part, so fpoly's truncated product of the top parts'
    powers, in two groups joined at the centre, computes it alone.  Above
    N'(p-1), which no chart reaches, f is multiplied out from the minors in
    hand.  ``term_cap`` bounds every product.
    """
    inside = _chart_subset(n, p, subset)
    (names, positions, x_start), deltas, _ = _chart_minors(n, p, inside, n, term_cap)
    if _weight_certificate(n, positions, deltas, (0,) * n) is None:
        raise InvariantError(f"the leading minors for n={n}, p={p}, subset={sorted(inside)} "
                             "are not homogeneous with weights summing to 0")
    degrees = [max(sum(e[x_start:]) for e in d.exponents()) for d in deltas]
    degree, num_x = sum(degrees), len(names) - x_start
    centre = SplittingCheck(False, (p - 1,) * len(names))
    if degree < num_x:
        return names, centre
    if degree > num_x:
        return names, is_splitting_function(_power_product(deltas, p, term_cap))
    powers = [_x_part(d, x_start, k).power(p - 1, term_cap) for d, k in zip(deltas, degrees)]
    return names, SplittingCheck(True) if _centre_coefficient(powers, term_cap) else centre


def mvk_component(cf: ChartFunction) -> ChartFunction:
    """Homogeneous component of fibre degree N(p-1), the distinguished
    homogeneous splitting, as a function on the same chart."""
    return cf._replace(poly=cf.x_degree_component(cf.num_x * (cf.p - 1)))


def levi_x_ideal(cf: ChartFunction, subset: Sequence[int]) -> Optional[VariableIdeal]:
    """Chart ideal of the parabolic subbundle: the x-variables at positions
    inside the Levi blocks of the subset.  None when the subset is empty."""
    block = _block_ids(cf.n, _chart_subset(cf.n, cf.p, subset))
    gens = [
        k for k in range(cf.x_start, len(cf.positions))
        if block[cf.positions[k][0] - 1] == block[cf.positions[k][1] - 1]
    ]
    if not gens:
        return None
    return VariableIdeal(tuple(gens))


def compat_check(
    cf: ChartFunction, subset: Sequence[int], enum_cap: int = DEFAULT_ENUM_CAP
) -> CompatibilityCheck:
    """Does the splitting defined by ``cf.poly`` preserve the chart ideal of
    the parabolic subbundle?  Pass ``mvk_component(chart)`` to ask it of the
    homogeneous splitting.  Vacuously true when the ideal has no generators,
    as for the empty subset."""
    ideal = levi_x_ideal(cf, subset)
    if ideal is None:
        return CompatibilityCheck(True)
    return splits_ideal_compatibly(cf.poly, ideal, enum_cap=enum_cap)


class DirectionReport(NamedTuple):
    simple_index: int
    t_degree: int
    degree_ok: bool
    weights_ok: bool


class CanonicalCheck(NamedTuple):
    ok: bool
    t_invariant: bool
    directions: tuple[DirectionReport, ...]

    def __bool__(self) -> bool:
        return self.ok


def canonical_check(n: int, p: int, term_cap: int = DEFAULT_TERM_CAP) -> CanonicalCheck:
    """Canonical-splitting condition for :func:`build_chart_function`'s
    chart f = prod_s Delta_s^(p-1), Delta_s the leading minors of
    M = g (I + X) g^{-1}: (a) every monomial has weight zero; (b) translating
    g by x_k(-t) expands f in t with degree at most p-1 and the t^i
    coefficient purely of weight i * alpha_k.

    Decided without f.  The translation turns Delta_k into Delta_k + t D_k
    (D_k on rows 1..k, columns 1..k-1, k+1) and leaves the other Delta_s
    alone, so the t^i coefficient is C(p-1, i) Delta_k^(p-1-i) D_k^i
    prod_{s != k} Delta_s^(p-1), with C(p-1, i) nonzero mod p.  The ring is
    a domain, so the t-degree is p-1 if D_k != 0 and 0 otherwise (the bound
    holds by construction).  The weight grading is torsion-free, so a
    product of nonzero polynomials is homogeneous iff its factors are: (a)
    holds iff the Delta_s are homogeneous with weights summing to 0, and
    then (b) iff D_k = 0 or D_k is homogeneous of weight w(Delta_k) + alpha_k.
    """
    (_, positions, _), leading, minors = _chart_minors(n, p, frozenset(), n + 1, term_cap)
    deltas = _weight_certificate(n, positions, leading, (0,) * n)
    invariant = deltas is not None
    rs = build_root_system("A", n)
    reports = []
    for k in range(1, n + 1):
        d_k, alpha = minors[((1 << (k - 1)) - 1) | (1 << k)], rs.simple_root(k).fund
        weights_ok = invariant and (d_k.is_zero() or _weight_certificate(
            n, positions, [d_k], tuple(map(add, deltas[k - 1], alpha))) is not None)
        reports.append(DirectionReport(k, 0 if d_k.is_zero() else p - 1, True, weights_ok))
    return CanonicalCheck(invariant and all(d.weights_ok for d in reports),
                          invariant, tuple(reports))


def springer_equivariance_ok(n: int, p: int, term_cap: int = DEFAULT_TERM_CAP) -> bool:
    """Chart-level equivariance of X -> I + X: conjugating I + X equals
    I + (conjugate of X), as an identity of polynomial matrices."""
    _, g, x = _chart_matrices(n, p, frozenset())
    g_inv = _unipotent_inverse(g, term_cap)
    ident = _mat_identity(g[0][0], n + 1)
    gxg = _mat_mul(_mat_mul(g, x, term_cap), g_inv, term_cap)
    lhs = _mat_mul(_mat_mul(g, _mat_add(ident, x), term_cap), g_inv, term_cap)
    return lhs == _mat_add(ident, gxg)
