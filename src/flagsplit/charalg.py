"""Formal character arithmetic for induced modules and symmetric powers.

Characters are finite signed-multiplicity maps on the weight lattice.  The
module computes irreducible (Weyl) characters by the Freudenthal recursion,
graded characters of symmetric and exterior powers of nilradicals and
truncated coordinate algebras of Frobenius kernels.  Euler characteristics
live in the Weyl-character basis as {dominant nu: coefficient}, found by
Brauer--Klimyk dot-reflection.  The good-filtration decomposition of each
graded section and the Koszul reduction identity are decided on these
coefficients (``KoszulReport.parabolic_term`` is such a dict), and weights
are expanded only for display.  On a W-invariant character given from
outside, the same map is its good-filtration decomposition.

A sum sum_nu k_nu ch(nu) is expanded in one pass: Demazure's character
formula ch(nu) = D_w0(e^nu) (Demazure, Bull. Sci. Math. 98 (1974); proved
by Frobenius splitting of Schubert varieties in Andersen, Invent. Math. 79
(1985)) applies the Demazure operators along a reduced word of w0 to
sum_nu k_nu e^nu.  A single Euler characteristic (:func:`euler_char`) is one
signed Weyl character.

A :class:`Character` is stored under packed weight keys, in rootdata's
layout of the orbit walk: each weight is packed into an int, one biased
field per coordinate with coordinate 0 most significant, sized from a
proven bound on the coordinates so that no field carries.  Every producer
hands its table over as it stands: Freudenthal's root strings, the orbits
that fill its table, the Demazure expansion and the products over roots add
a root by one int addition, and sums, scaling and shifts work on the keys.
Int order is weight order, so a character is sorted by sorting ints.
Weight tuples appear only where a character is read by weight
(``items``, ``mults``, ``multiplicity``, text output) and where
Brauer--Klimyk straightens each weight; ``--json`` output is written from
the sorted keys, a byte's worth of fields at a time by shift and mask.
Symmetric and exterior powers share one loop:
new[d] = old[d] + new[d-1] e^alpha per factor 1/(1 - q e^alpha).  The truncated character prod_alpha>0 (1 + e^alpha
+ ... + e^((p-1) alpha)) equals e^((p-1) rho) ch St, the Steinberg character
at (p-1) rho shifted (Jantzen, Representations of Algebraic Groups,
II.3.18-19), which the tests check against Freudenthal.

All arithmetic is exact.  Expensive operations take explicit caps
(``dim_cap`` on the Weyl dimension of any single irreducible piece,
``term_cap`` on the number of stored weights, checked after each Demazure
operator of an expansion and after each root of a product) and raise
:class:`ResourceLimitError` rather than truncating.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import add, mul, sub
from typing import Callable, Collection, Iterator, NamedTuple, Optional, Sequence

from .errors import InputError, InvariantError, ResourceLimitError
from .fpoly import DEFAULT_TERM_CAP, is_prime
from .rootdata import ParabolicSubset, RootSystem, Weight, _Packing, parabolic_subset

DEFAULT_DIM_CAP = 10**6


class Character:
    """Finite map from weights to nonzero integer multiplicities, stored as
    ``packed``: packed weight key -> multiplicity, in the layout ``packing``."""

    __slots__ = ("rs", "packing", "packed")

    def __init__(self, rs: RootSystem, mults: Optional[Mapping[Sequence[int], int]] = None):
        weights = {rs._check_weight(w): int(m) for w, m in (mults or {}).items() if m != 0}
        self.rs = rs
        self.packing = _Packing(rs.rank, max((max(map(abs, w)) for w in weights), default=0))
        self.packed = dict(zip(map(self.packing.pack, weights), weights.values()))

    @classmethod
    def _from_packed(cls, rs: RootSystem, packing: _Packing,
                     packed: dict[int, int]) -> "Character":
        # library results: keys in a layout that holds their weights, and
        # multiplicities nonzero ints
        ch = cls.__new__(cls)
        ch.rs = rs
        ch.packing = packing
        ch.packed = packed
        return ch

    @classmethod
    def zero(cls, rs: RootSystem) -> "Character":
        return cls(rs)

    @property
    def mults(self) -> "_Mults":
        """The multiplicities as a read-only map from weight tuples."""
        return _Mults(self)

    def multiplicity(self, w: Sequence[int]) -> int:
        # a weight of the wrong length, or outside the layout's bound, is no
        # weight of the character: it is not packed, so it cannot alias a key
        w = tuple(w)
        if len(w) != self.rs.rank or not self.packing.holds(w):
            return 0
        return self.packed.get(self.packing.pack(w), 0)

    def items(self) -> Iterator[tuple[Weight, int]]:
        """(weight, multiplicity) pairs in weight order, decoded as they are read."""
        keys = sorted(self.packed)   # int order is weight order
        return zip(map(self.packing.weight, keys), map(self.packed.__getitem__, keys))

    def dimension(self) -> int:
        return sum(self.packed.values())

    def term_count(self) -> int:
        return len(self.packed)

    def __bool__(self) -> bool:
        return bool(self.packed)

    def _meet(self, other: "Character") -> tuple[_Packing, dict[int, int], dict[int, int]]:
        # the wider of the two layouts, and both tables in it
        p, q = self.packing, other.packing
        wide = p if p.bias >= q.bias else q
        return wide, p.moved(self.packed, wide), q.moved(other.packed, wide)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, Character) and other.rs == self.rs
                and len(other.packed) == len(self.packed)):
            return False
        _, mine, theirs = self._meet(other)
        return mine == theirs

    def __add__(self, other: "Character") -> "Character":
        self._check_compatible(other)
        packing, mine, theirs = self._meet(other)
        out = dict(mine)
        get = out.get
        for x, m in theirs.items():
            out[x] = get(x, 0) + m
        return Character._from_packed(self.rs, packing, {x: m for x, m in out.items() if m})

    def __sub__(self, other: "Character") -> "Character":
        return self + (-other)

    def __neg__(self) -> "Character":
        return Character._from_packed(
            self.rs, self.packing, {x: -m for x, m in self.packed.items()})

    def __mul__(self, k: int) -> "Character":
        if not isinstance(k, int):
            return NotImplemented
        return Character._from_packed(
            self.rs, self.packing, {x: k * m for x, m in self.packed.items() if k})

    __rmul__ = __mul__

    def shift(self, lam: Sequence[int]) -> "Character":
        """Tensor with the one-dimensional character of weight ``lam``."""
        lam = self.rs._check_weight(lam)
        packing = _Packing(self.rs.rank, self.packing.bias + max(map(abs, lam)))
        return Character._from_packed(
            self.rs, packing, self.packing.moved(self.packed, packing, lam))

    def _check_compatible(self, other: "Character") -> None:
        if other.rs != self.rs:
            raise InputError("characters live over different root systems")

    def to_json_obj(self) -> list[dict]:
        return [{"weight": list(w), "mult": m} for w, m in self.items()]

    def __repr__(self) -> str:
        from heapq import nsmallest   # kept off the import path: only this method uses it

        parts = ", ".join(f"{self.packing.weight(x)}:{self.packed[x]}"
                          for x in nsmallest(6, self.packed))   # int order is weight order
        more = "" if len(self.packed) <= 6 else f", ... ({len(self.packed)} weights)"
        return f"Character({parts}{more})"


class _Mults(Mapping):
    """A character's multiplicities as a read-only map from weight tuples,
    unpacked as they are read; its length is the number of weights."""

    __slots__ = ("_ch",)

    def __init__(self, ch: Character):
        self._ch = ch

    def __len__(self) -> int:
        return len(self._ch.packed)

    def __iter__(self) -> Iterator[Weight]:
        return map(self._ch.packing.weight, self._ch.packed)

    def __getitem__(self, w: Sequence[int]) -> int:
        m = self._ch.multiplicity(w)
        if not m:
            raise KeyError(w)
        return m

    def items(self) -> list[tuple[Weight, int]]:
        # in storage order, decoded a coordinate at a time over all keys
        ch = self._ch
        return list(zip(ch.packing.unpack(list(ch.packed)), ch.packed.values()))

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class GradedCharacter(NamedTuple):
    """Finite map from symmetric-power degree to a character."""

    pieces: tuple[tuple[int, Character], ...]

    def piece(self, n: int) -> Character:
        for d, c in self.pieces:
            if d == n:
                return c
        raise InputError(f"no graded piece of degree {n}")


# -- inner products ------------------------------------------------------

def _weight_root_product(rs: RootSystem, fund: Sequence[int], root_simple: Sequence[int]) -> int:
    # (lambda, beta) with lambda in fundamental coordinates and beta a root
    # in simple-root coordinates; always an integer.
    d = rs.symmetrizers
    return sum(d[j] * fund[j] * root_simple[j] for j in range(rs.rank))


def weyl_dimension(rs: RootSystem, lam: Sequence[int]) -> int:
    """Dimension of the irreducible with highest weight ``lam`` (Weyl formula)."""
    lam = rs._check_weight(lam)
    if not rs.is_dominant(lam):
        raise InputError(f"weight {lam} is not dominant")
    num = den = 1
    lam_rho = tuple(c + 1 for c in lam)
    for r in rs.positive_roots:
        num *= sum(u * c for u, c in zip(r.coroot, lam_rho))
        den *= sum(r.coroot)  # pairing of rho with the coroot
    dim, rem = divmod(num, den)
    if rem:
        raise InvariantError(f"Weyl dimension of {lam} is not an integer: {num}/{den}")
    return dim


# -- packed weights ------------------------------------------------------------

def _root_sum_bound(roots: Sequence[Weight], k: int) -> int:
    # no coordinate of sum_r c_r r with every |c_r| <= k exceeds
    # k * sum_r |r_j| in absolute value, whichever roots are taken
    return k * max((sum(map(abs, col)) for col in zip(*roots)), default=0)


# -- Weyl characters by Freudenthal ----------------------------------------

def _dominant_weight_system(rs: RootSystem, lam: Weight) -> list[Weight]:
    # Dominant weights mu <= lam of the irreducible module, generated by
    # subtracting single positive roots while staying dominant.
    seen = {lam}
    queue = [lam]
    while queue:
        v = queue.pop()
        for r in rs.positive_roots:
            w = tuple(map(sub, v, r.fund))
            if min(w) >= 0 and w not in seen:
                seen.add(w)
                queue.append(w)
    def depth(mu: Weight) -> int:
        # height of lam - mu, scaled by the positive rs._coord_den
        return sum(rs._scaled_simple_coords(tuple(map(sub, lam, mu))))
    return sorted(seen, key=lambda mu: (depth(mu), mu))


def _freudenthal_table(rs: RootSystem, lam: Weight) -> Character:
    # Every weight of the irreducible with its multiplicity.  Dominant mu are
    # taken in order of depth, and each one's W-orbit is entered as soon as
    # its multiplicity is known.  A weight mu + k alpha above a dominant mu
    # has its dominant conjugate strictly above mu, so it is already in the
    # table when it is a weight at all: get(x, 0) reads m(mu + k alpha).
    # weyl_character has checked that lam is dominant, and every mu below is
    # dominant by construction, so their orbits are walked without validation.
    # No coordinate of a weight exceeds <lam, top coroot>, and a string reads
    # at most one root past a weight, so that plus one root step bounds the
    # packing, and each step along a string is one int addition.
    roots = rs.positive_roots
    packing = _Packing(rs.rank, sum(map(mul, rs._top_coroot, lam))
                       + max(max(map(abs, r.fund)) for r in roots))
    pack = packing.pack
    table = dict.fromkeys(rs._orbit_walk(pack(lam), packing), 1)
    strings = [(r.fund, packing.step(r.fund), r.simple,
                _weight_root_product(rs, r.fund, r.simple)) for r in roots]
    for mu in _dominant_weight_system(rs, lam)[1:]:
        top = pack(mu)
        num = 0
        for fund, a, simple, norm in strings:
            x = top + a
            m = table.get(x, 0)
            if m:
                # (mu + k alpha, alpha), stepped by (alpha, alpha) along the string
                ip = _weight_root_product(rs, tuple(map(add, mu, fund)), simple)
                while m:
                    num += m * ip
                    ip += norm
                    x += a
                    m = table.get(x, 0)
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
        table.update(dict.fromkeys(rs._orbit_walk(top, packing), m))
    return Character._from_packed(rs, packing, table)


def weyl_character(
    rs: RootSystem, lam: Sequence[int], dim_cap: int = DEFAULT_DIM_CAP
) -> Character:
    """Character of the induced module of a dominant weight (characteristic 0),
    equal to the Euler characteristic used throughout.
    """
    lam = rs._check_weight(lam)
    dim = weyl_dimension(rs, lam)   # also validates dominance
    if dim > dim_cap:
        raise ResourceLimitError(f"Weyl dimension {dim} exceeds cap {dim_cap}")
    ch = _freudenthal_table(rs, lam)
    if ch.dimension() != dim:
        raise InvariantError(
            f"Freudenthal gives dimension {ch.dimension()} for {lam}, Weyl's formula {dim}"
        )
    return ch


def _weyl_coefficients(rs: RootSystem, weights: Mapping[Weight, int]) -> dict[Weight, int]:
    # Brauer--Klimyk: the Euler characteristic of the line bundles sum_w m_w e^w
    # as {dominant nu: coefficient of weyl_character(nu)}, nonzero entries only.
    out: dict[Weight, int] = {}
    for w, m in weights.items():
        dom, steps = rs._dominant(tuple(c + 1 for c in w))
        if 0 in dom:
            continue
        nu = tuple(c - 1 for c in dom)
        v = out.get(nu, 0) + (-m if steps % 2 else m)
        if v:
            out[nu] = v
        else:
            del out[nu]
    return out


def euler_char(
    rs: RootSystem, lam: Sequence[int], dim_cap: int = DEFAULT_DIM_CAP
) -> Character:
    """Signed Euler characteristic of the line bundle of an arbitrary weight.

    Dot-reflect ``lam`` to the dominant chamber; a singular ``lam + rho``
    yields the zero character, and otherwise the result is the Weyl
    character of the dominant dot-conjugate, negated after an odd number
    of reflections.
    """
    lam = rs._check_weight(lam)
    dom, steps = rs._dominant(tuple(c + 1 for c in lam))
    if 0 in dom:
        return Character.zero(rs)
    ch = weyl_character(rs, tuple(c - 1 for c in dom), dim_cap=dim_cap)
    return -ch if steps % 2 else ch


def module_euler(
    rs: RootSystem,
    module: Character,
    lam: Sequence[int],
    dim_cap: int = DEFAULT_DIM_CAP,
    term_cap: int = DEFAULT_TERM_CAP,
) -> Character:
    """Euler characteristic of (module tensor lam), summed in the Weyl basis
    before it is expanded, so a Weyl character that cancels is never built."""
    lam = rs._check_weight(lam)
    return _expand(rs, _weyl_coefficients(rs, module.shift(lam).mults), dim_cap, term_cap)


def _w0_word(rs: RootSystem) -> list[int]:
    # A reduced word of the longest element w0, as 0-based simple indices:
    # rho is lowered to w0 rho = -rho one simple reflection s_i (v_i > 0)
    # at a time, and each such step lengthens the element by one.
    word = []
    v = rs.rho
    while max(v) > 0:
        i = next(k for k, c in enumerate(v) if c > 0)
        v = tuple(a - v[i] * b for a, b in zip(v, rs.cartan[i]))
        word.append(i)
    return word


def _expand(
    rs: RootSystem, coeffs: dict[Weight, int], dim_cap: int, term_cap: int
) -> Character:
    # sum_nu k_nu weyl_character(nu) = D_w0(sum_nu k_nu e^nu) by Demazure's
    # character formula, one Demazure operator per letter of a reduced word
    # of w0.  D_i sends e^mu, with a = mu_i, to e^mu + e^(mu - alpha_i) + ...
    # + e^(s_i mu) when a >= 0, to 0 when a = -1, and to minus the terms
    # strictly between mu and s_i mu when a <= -2.
    nus = sorted(coeffs)
    expected = 0
    for nu in nus:
        dim = weyl_dimension(rs, nu)
        if dim > dim_cap:
            raise ResourceLimitError(f"Weyl dimension {dim} exceeds cap {dim_cap}")
        expected += coeffs[nu] * dim
    # Every weight met lies in the convex hull of the orbits W nu, so no
    # coordinate exceeds the largest <nu, top coroot> in absolute value; one
    # more bounds the packing, and mu - alpha_i is one int subtraction.
    packing = _Packing(rs.rank, 1 + max(
        (sum(map(mul, rs._top_coroot, nu)) for nu in nus), default=0))
    bias, mask = packing.bias, packing.mask
    cur = {packing.pack(nu): coeffs[nu] for nu in nus}
    for i in _w0_word(rs):
        alpha = packing.step(rs.cartan[i])
        shift = packing.shifts[i]
        out: dict[int, int] = {}
        get = out.get
        for x, k in cur.items():
            a = ((x >> shift) & mask) - bias
            if a >= 0:
                for y in range(x, x - (a + 1) * alpha, -alpha):
                    out[y] = get(y, 0) + k
            elif a < -1:
                for y in range(x + alpha, x - a * alpha, alpha):
                    out[y] = get(y, 0) - k
        # a multiplicity that cancels to 0 keeps its key, which only spreads
        # zeros, until the keys exceed the cap; then only nonzero ones count
        if len(out) > term_cap:
            out = {x: k for x, k in out.items() if k}
            if len(out) > term_cap:
                raise ResourceLimitError(f"module Euler characteristic exceeds term cap {term_cap}")
        cur = out
    ch = Character._from_packed(rs, packing, {x: k for x, k in cur.items() if k})
    if ch.dimension() != expected:
        raise InvariantError(
            f"Demazure expansion gives dimension {ch.dimension()}, Weyl's formula {expected}"
        )
    return ch


# -- symmetric / exterior / truncated algebras -----------------------------

def _root_power_tables(rank: int, roots: Sequence[Weight], top: int, repeat: bool,
                       what: str, term_cap: int) -> tuple[_Packing, list[dict[int, int]]]:
    # Degrees 0..top of prod_r 1/(1 - q e^r) if repeat, else of prod_r (1 + q e^r):
    # d adds table d-1 shifted by r, read after r's update in rising d, before it in falling d
    if top > term_cap:
        raise ResourceLimitError(f"{what} exceeds term cap {term_cap}")
    packing = _Packing(rank, _root_sum_bound(roots, top if repeat else 1))
    table: list[dict[int, int]] = [{packing.pack((0,) * rank): 1}] + [{} for _ in range(top)]
    for root in roots:
        b = packing.step(root)
        for d in range(1, top + 1) if repeat else range(top, 0, -1):
            tgt = table[d]
            get = tgt.get
            for x, m in table[d - 1].items():
                y = x + b
                tgt[y] = get(y, 0) + m
            if len(tgt) > term_cap:
                raise ResourceLimitError(f"{what} exceeds term cap {term_cap}")
    return packing, table


def _sym_power_pieces(par: ParabolicSubset, n_max: int, degrees: Sequence[int],
                      term_cap: int) -> list[Character]:
    # the characters of S^d of the dual nilradical for d in degrees, all at
    # most n_max: every table up to n_max is built, only these are decoded
    if n_max < 0:
        raise InputError("degree must be nonnegative")
    packing, table = _root_power_tables(
        par.rs.rank, par.radical_weights, n_max, True, "symmetric power", term_cap)
    return [Character._from_packed(par.rs, packing, table[d]) for d in degrees]


def sym_power_graded(
    par: ParabolicSubset, n_max: int, term_cap: int = DEFAULT_TERM_CAP
) -> GradedCharacter:
    """Characters of S^0 .. S^n_max of the dual nilradical, refused if n_max > term_cap."""
    degrees = range(n_max + 1)
    return GradedCharacter(tuple(zip(degrees, _sym_power_pieces(par, n_max, degrees, term_cap))))


def sym_power_char(
    par: ParabolicSubset, n: int, term_cap: int = DEFAULT_TERM_CAP
) -> Character:
    """Character of the n-th symmetric power of the dual nilradical."""
    return _sym_power_pieces(par, n, (n,), term_cap)[0]


def exterior_power_char(
    rs: RootSystem, j: int, term_cap: int = DEFAULT_TERM_CAP
) -> Character:
    """Character of the j-th exterior power of the cotangent fibre.

    The fibre has the negative roots as weights, so the result is the
    multiset of sums of j distinct negative roots.
    """
    n = rs.num_positive_roots
    if not 0 <= j <= n:
        raise InputError(f"exterior degree {j} out of range 0..{n}")
    packing, table = _root_power_tables(
        rs.rank, rs.negative_roots, j, False, "exterior power", term_cap)
    return Character._from_packed(rs, packing, table[j])


def truncated_char(
    rs: RootSystem, p: int, term_cap: int = DEFAULT_TERM_CAP
) -> Character:
    """Character of the coordinate algebra of the first Frobenius kernel of U:
    the product over positive roots of (1 + e^alpha + ... + e^((p-1) alpha)).
    """
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    roots = [r.fund for r in rs.positive_roots]
    packing = _Packing(rs.rank, _root_sum_bound(roots, p - 1))
    out: dict[int, int] = {packing.pack((0,) * rs.rank): 1}
    for root in roots:
        a = packing.step(root)
        span = p * a
        nxt: dict[int, int] = {}
        get = nxt.get
        for x, m in out.items():
            for y in range(x, x + span, a):
                nxt[y] = get(y, 0) + m
        if len(nxt) > term_cap:
            raise ResourceLimitError(f"truncated algebra exceeds term cap {term_cap}")
        out = nxt
    return Character._from_packed(rs, packing, out)


# -- good-filtration decomposition ------------------------------------------

class GoodFiltrationDecomposition(NamedTuple):
    """Outcome of the decomposition into Weyl characters.

    On success ``ok`` is true and ``entries`` lists (dominant weight,
    multiplicity) pairs in peeling order; on failure the offending weight and
    its coefficient are reported.
    """

    ok: bool
    entries: tuple[tuple[Weight, int], ...]
    failure_weight: Optional[Weight] = None
    failure_mult: Optional[int] = None

    def to_json_obj(self) -> dict:
        obj: dict = {
            "ok": self.ok,
            "entries": [{"lambda": list(w), "mult": m} for w, m in self.entries],
        }
        if not self.ok:
            obj["failure_weight"] = list(self.failure_weight)
            obj["failure_mult"] = self.failure_mult
        return obj


def _peel_order(rs: RootSystem, weights: Collection[Weight]) -> list[Weight]:
    # Repeatedly the lexicographically largest weight that no remaining
    # weight strictly dominates: nu is above mu when nu - mu has nonnegative
    # integral simple-root coordinates, read off scaled coordinates computed
    # once per weight.
    den = rs._coord_den
    coords = {mu: tuple(rs._scaled_simple_coords(mu)) for mu in weights}
    above = {
        mu: {
            nu for nu, y in coords.items()
            if nu != mu and all(b >= a and (b - a) % den == 0 for a, b in zip(x, y))
        }
        for mu, x in coords.items()
    }
    order = []
    while above:
        top = max(mu for mu, larger in above.items() if not larger)
        del above[top]
        for larger in above.values():
            larger.discard(top)
        order.append(top)
    return order


def decompose_good_filtration(c: Character) -> GoodFiltrationDecomposition:
    """Decompose a W-invariant character into Weyl characters.

    The coefficients are Brauer--Klimyk's at weight 0, listed in peeling
    order (repeatedly a dominance-maximal weight, ties broken by the
    lexicographically largest fundamental-coordinate vector) up to the first
    negative one, where ``ok`` turns false.  A character that is not
    W-invariant fails with no entries at the first, in the same order, of
    the support weights w with c(s_i w) != c(w) for some i.
    """
    rs = c.rs
    # s_i w changes each coordinate of w by at most 3 |w_i|, so a layout of
    # four times the bound holds every reflected weight: s_i is one int step
    wide = _Packing(rs.rank, 4 * c.packing.bias)
    bias, mask = wide.bias, wide.mask
    packed = c.packing.moved(c.packed, wide)
    steps = [(s, wide.step(row)) for s, row in zip(wide.shifts, rs.cartan)]
    moved = [
        x for x, m in packed.items()
        if any(packed.get(x - (((x >> s) & mask) - bias) * a, 0) != m for s, a in steps)
    ]
    if moved:
        top = _peel_order(rs, wide.unpack(moved))[0]
        return GoodFiltrationDecomposition(
            ok=False, entries=(), failure_weight=top, failure_mult=c.multiplicity(top)
        )
    return _decomposition(rs, _weyl_coefficients(rs, c.mults))


def _decomposition(rs: RootSystem, coeffs: dict[Weight, int]) -> GoodFiltrationDecomposition:
    # Weyl-basis coefficients in peeling order, up to the first negative one
    entries: list[tuple[Weight, int]] = []
    for nu in _peel_order(rs, coeffs):
        m = coeffs[nu]
        if m < 0:
            return GoodFiltrationDecomposition(
                ok=False, entries=tuple(entries), failure_weight=nu, failure_mult=m
            )
        entries.append((nu, m))
    return GoodFiltrationDecomposition(ok=True, entries=tuple(entries))


# -- graded sections of the cotangent bundle ---------------------------------

class GradedSectionChar(NamedTuple):
    """Per-degree Euler characters of S u_P* tensor lambda with their
    good-filtration decompositions."""

    graded: GradedCharacter
    decompositions: tuple[tuple[int, GoodFiltrationDecomposition], ...]

    @property
    def all_ok(self) -> bool:
        return all(d.ok for _, d in self.decompositions)

    def counterexamples(self) -> list[int]:
        return [n for n, d in self.decompositions if not d.ok]


def graded_section_char(
    par: ParabolicSubset,
    lam: Sequence[int],
    n_max: int,
    dim_cap: int = DEFAULT_DIM_CAP,
    term_cap: int = DEFAULT_TERM_CAP,
) -> GradedSectionChar:
    """Degreewise sections of the (parabolic) cotangent bundle twisted by lam.

    Preconditions: lam in the cone C for the Borel case; a P-regular weight
    in X(P) for a proper parabolic subset.
    """
    rs = par.rs
    lam = rs._check_weight(lam)
    if not par.subset:
        if not rs.in_cone_c(lam):
            raise InputError(f"weight {lam} lies outside the cone C")
    else:
        if not rs.is_p_regular(lam, par.subset):
            raise InputError(f"weight {lam} is not P-regular for I={sorted(par.subset)}")
    graded = sym_power_graded(par, n_max, term_cap=term_cap)
    # each degree's Euler characteristic is W-invariant by construction, so
    # its Weyl-basis coefficients are decomposed as they are
    coeffs = [(n, _weyl_coefficients(rs, sym.shift(lam).mults)) for n, sym in graded.pieces]
    pieces = tuple((n, _expand(rs, k, dim_cap, term_cap)) for n, k in coeffs)
    decomps = tuple((n, _decomposition(rs, k)) for n, k in coeffs)
    return GradedSectionChar(GradedCharacter(pieces), decomps)


# -- Frobenius-kernel cohomology of induced modules ---------------------------

def g1_cohomology_char(
    rs: RootSystem,
    word: Sequence[int],
    lam: Sequence[int],
    p: int,
    i_max: int = 6,
    dim_cap: int = DEFAULT_DIM_CAP,
    term_cap: int = DEFAULT_TERM_CAP,
) -> dict[int, Character]:
    """Predicted characters of the Frobenius-kernel cohomology of the induced
    module of w.0 + p lam, reported for 0 <= i <= i_max.

    The degree-i character is the Euler characteristic of
    S^((i - l(w))/2) u* tensor lam on the parity/support set and zero off it.
    """
    lam = rs._check_weight(lam)
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if p <= rs.coxeter_number:
        raise InputError(
            f"p = {p} must exceed the Coxeter number {rs.coxeter_number}"
        )
    if not rs.is_dominant(lam):
        raise InputError(f"weight {lam} is not dominant")
    shifted = rs.dot_action(word, (0,) * rs.rank)
    target = tuple(a + p * b for a, b in zip(shifted, lam))
    if not rs.is_dominant(target):
        raise InputError(f"w.0 + p*lambda = {target} is not dominant")
    ell = rs.word_length(word)
    out: dict[int, Character] = {}
    par = parabolic_subset(rs)
    graded = sym_power_graded(par, max(0, (i_max - ell) // 2), term_cap=term_cap)
    for i in range(i_max + 1):
        if i >= ell and (i - ell) % 2 == 0:
            sym = graded.piece((i - ell) // 2)
            out[i] = module_euler(rs, sym, lam, dim_cap=dim_cap, term_cap=term_cap)
        else:
            out[i] = Character.zero(rs)
    return out


# -- Koszul / reduction identities -------------------------------------------

class KoszulReport(NamedTuple):
    """Euler-level check of the symmetric-power reduction along one simple root."""

    ok: bool
    identity_ok: bool
    vanishing_applicable: bool
    vanishing_ok: bool
    parabolic_term: dict[Weight, int]   # chi(S^n u*_{P_i} ox lam) in the Weyl basis


def koszul_check(
    rs: RootSystem,
    n: int,
    lam: Sequence[int],
    i: int,
    term_cap: int = DEFAULT_TERM_CAP,
) -> KoszulReport:
    """Check chi(S^n u* ox lam) = chi(S^{n-1} u* ox (lam+alpha_i))
    + chi(S^n u*_{P_i} ox lam), and the vanishing of the parabolic term
    whenever the pairing of lam with alpha_i-vee is -1.

    chi is linear and Weyl characters are independent, so both are decided
    on Brauer--Klimyk coefficients; no Weyl character is expanded.
    """
    lam = rs._check_weight(lam)
    return _koszul_checker(rs, n, i, term_cap)(lam)


def _koszul_checker(
    rs: RootSystem, n: int, i: int, term_cap: int
) -> Callable[[Weight], KoszulReport]:
    # koszul_check at (n, i) for any weight: its three symmetric powers are
    # built here once, and the returned step only shifts them by lam
    if n < 1:
        raise InputError("the reduction identity needs n >= 1")
    rs._check_index(i)
    below, top = _sym_power_pieces(parabolic_subset(rs), n, (n - 1, n), term_cap)
    minimal = sym_power_char(parabolic_subset(rs, [i]), n, term_cap=term_cap)
    alpha = rs.simple_root(i).fund

    def check(lam: Weight) -> KoszulReport:
        shifted = below.shift(tuple(a + b for a, b in zip(lam, alpha)))
        par = minimal.shift(lam)
        identity_ok = not _weyl_coefficients(rs, (top.shift(lam) - shifted - par).mults)
        par_term = _weyl_coefficients(rs, par.mults)
        applicable = rs.pairing(lam, i) == -1
        vanishing_ok = (not applicable) or not par_term
        return KoszulReport(
            ok=identity_ok and vanishing_ok,
            identity_ok=identity_ok,
            vanishing_applicable=applicable,
            vanishing_ok=vanishing_ok,
            parabolic_term=par_term,
        )

    return check
