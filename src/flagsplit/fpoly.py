"""Sparse multivariate polynomials over a prime field, the Frobenius trace,
and the affine splitting criterion.

A polynomial over a shared variable table is a dict from packed exponent
keys to coefficients in [1, p-1]; zero terms are never stored.  A key holds
one byte-aligned, big-endian field per variable, the first variable the most
significant, so int order on keys is lexicographic order on exponent
vectors.  Each polynomial's fields are as wide as its largest exponent
needs with one bit to spare, so two keys of the same layout add without a
carry, and equal polynomials have equal keys whichever route built them.
A polynomial carries no grading of its variables: a caller that grades
them (slnsplit's chart weights) keeps the grading itself.
fpoly owns the one truncated product, ``_centre_coefficient``.
Exponent tuples appear only at the edges: the validating constructor,
:meth:`SparsePolynomial.coefficient`, sorted and printed terms, witnesses,
and the read-only ``terms`` view.
The serialised form is the exact JSON schema
``{"p": 3, "vars": ["x", "y"], "terms": [{"e": [2, 0], "c": 1}]}`` with the
terms sorted lexicographically by exponent vector.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from functools import cache, partial, reduce
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import InputError, ResourceLimitError

DEFAULT_TERM_CAP = 10**6
DEFAULT_ENUM_CAP = 10**6


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _width(top: int) -> int:
    # bytes per field for exponents up to top, with the top bit to spare
    return top.bit_length() // 8 + 1


@cache
def _exponent_fields(nvars: int, width: int):
    """``(pack, unpack)`` between exponent vectors and keys of ``width``-byte
    fields.  One-byte fields go through bytes objects, in C."""
    if width == 1:
        return partial(int.from_bytes, byteorder="big"), lambda k: tuple(k.to_bytes(nvars, "big"))
    shifts = range(8 * width * (nvars - 1), -1, -8 * width)
    mask = (1 << 8 * width) - 1

    def pack(e: Iterable[int]) -> int:
        return sum(x << s for x, s in zip(e, shifts))

    def unpack(k: int) -> tuple[int, ...]:
        return tuple(k >> s & mask for s in shifts)

    return pack, unpack


def _relayout(packed: dict[int, int], nvars: int, width: int, new: int) -> dict[int, int]:
    if width == new:
        return packed
    pack, unpack = _exponent_fields(nvars, new)[0], _exponent_fields(nvars, width)[1]
    return {pack(unpack(k)): c for k, c in packed.items()}


@cache
def _spare_bits(nvars: int, width: int) -> int:
    # the top bit of every field: set in a key only when it needs wider fields
    return int.from_bytes((b"\x80" + bytes(width - 1)) * nvars, "big")


def _settled(p: int, variables: tuple[str, ...], width: int, packed: dict[int, int],
             may_widen: bool = False) -> "SparsePolynomial":
    # keys in a layout at least as wide as their exponents need, or, with
    # may_widen, one bit short: moved to the width their largest exponent
    # needs.  The OR of all keys has, in each field, the bit length of its
    # largest exponent; one-byte fields cannot narrow
    if width > 1 or may_widen:
        fold = _exponent_fields(len(variables), width)[1](reduce(or_, packed, 0))
        need = _width(max(fold, default=0))
        packed, width = _relayout(packed, len(variables), width, need), need
    return SparsePolynomial._from_packed(p, variables, width, packed)


def _product(left: dict[int, int], right: dict[int, int], p: int,
             term_cap: int) -> dict[int, int]:
    # the keys of the product of two polynomials of one layout, and their
    # coefficients mod p; refused as SparsePolynomial.mul says
    right = list(right.items())
    out: dict[int, int] = {}
    get = out.get
    rows = iter(left.items())
    for k1, c1 in rows:
        for k2, c2 in right:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
        if len(out) > term_cap:
            # only keys nonzero mod p count against the cap: drop the
            # others once, then go on below
            for k in [k for k, c in out.items() if not c % p]:
                del out[k]
            if len(out) > term_cap:
                raise ResourceLimitError(f"product exceeds term cap {term_cap}")
            break
    # near the cap: after the prune only a key a later row touches can
    # become 0 mod p, so each such key is reduced as it is touched and
    # len(out) stays the number of nonzero terms
    for k1, c1 in rows:
        for k2, c2 in right:
            k = k1 + k2
            c = (get(k, 0) + c1 * c2) % p
            if c:
                out[k] = c
            else:   # c1 * c2 is nonzero mod p, so k was in out
                del out[k]
        if len(out) > term_cap:
            raise ResourceLimitError(f"product exceeds term cap {term_cap}")
    return {k: r for k, c in out.items() if (r := c % p)}


def _centre_coefficient(factors: Sequence["SparsePolynomial"], term_cap: int) -> int:
    """The all-(p-1) coefficient, the centre, of the product of ``factors``.

    Exponents only grow, so a partial term is dropped once an exponent is
    above p-1, or further below it than the factors to come can add: in
    fields wide enough for 2(p-1) and for every factor's keys, each test is
    one add and one mask of the spare bits.  The factors go greedily into
    two groups by the product of their term counts; each group's reach
    counts the other's largest exponents, and the groups meet at the centre,
    where ``centre - k`` never borrows.  Refused once a group's partial
    product has more than ``term_cap`` terms after a row.
    """
    p, nvars, top = factors[0].p, len(factors[0].variables), factors[0].p - 1
    width = max(_width(2 * top), *(f.width for f in factors))
    pack, unpack = _exponent_fields(nvars, width)
    guard = 1 << 8 * width - 1
    guards, over = pack([guard] * nvars), pack([guard - p] * nvars)   # guard bit iff above p-1
    # a factor term with an exponent above p-1 reaches no kept term
    kept = sorted(([(k, c) for k, c in _relayout(f.packed, nvars, f.width, width).items()
                    if not (k + over) & guards] for f in factors), key=len, reverse=True)
    if not all(kept):
        return 0
    maxes = [list(map(max, zip(*(unpack(k) for k, _ in terms)))) for terms in kept]
    groups, sizes = ([], []), [1, 1]
    for terms, added in zip(kept, maxes):
        i = sizes[1] < sizes[0]
        groups[i].append((terms, added))
        sizes[i] *= len(terms)

    def truncated(group: list) -> dict[int, int]:
        reach, out = list(map(sum, zip(*maxes))), {0: 1}   # what the factors to come can add
        for terms, added in group:
            reach = [r - a for r, a in zip(reach, added)]
            under = pack([guard - max(top - r, 0) for r in reach])   # all guard bits iff in reach
            left, out = out, {}
            get = out.get
            for k1, c1 in left.items():
                for k2, c2 in terms:
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
        return out

    small, big = sorted(map(truncated, groups), key=len)
    centre = pack([top] * nvars)
    return sum(c * big.get(centre - k, 0) for k, c in small.items()) % p


class PrimeField(NamedTuple("PrimeField", [("p", int)])):
    """The field with p elements; primality is checked at construction."""

    __slots__ = ()

    def __new__(cls, p: int):
        if not isinstance(p, int) or not 2 <= p <= 2**31:
            raise InputError(f"characteristic must be an integer in [2, 2^31], got {p}")
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        return super().__new__(cls, p)


class SparsePolynomial:
    """A finite map from exponent vectors to nonzero coefficients mod p,
    stored as ``packed``: key -> coefficient, in ``width``-byte fields."""

    __slots__ = ("p", "variables", "width", "packed")

    def __init__(
        self,
        p: int,
        variables: Sequence[str],
        terms: Optional[dict[tuple[int, ...], int]] = None,
    ):
        PrimeField(p)
        self.p = p
        self.variables = tuple(variables)
        # one-byte fields unless an exponent is above 127 (a one-byte pack
        # refuses one above 255)
        self.width = 1
        try:
            wide = self._store(terms) & _spare_bits(len(self.variables), 1)
        except ValueError:
            wide = True
        if wide:
            top = max(max(map(int, e), default=0) for e, c in terms.items() if c % p)
            self.width = _width(top)
            self._store(terms)

    def _store(self, terms: Optional[dict]) -> int:
        # validate the terms and keep the nonzero ones, packed in this
        # layout; the OR of their keys
        p, nvars = self.p, len(self.variables)
        pack = self._fields()[0]
        self.packed, fold = {}, 0
        for e, c in (terms or {}).items():
            e = tuple(map(int, e))
            if len(e) != nvars:
                raise InputError(f"exponent vector {e} has wrong length")
            if e and min(e) < 0:
                raise InputError(f"negative exponent in {e}")
            c = c % p
            if c:
                k = pack(e)
                fold |= k
                self.packed[k] = c
        return fold

    # -- constructors -----------------------------------------------------

    @classmethod
    def _from_packed(cls, p: int, variables: tuple[str, ...], width: int,
                     packed: dict[int, int]) -> "SparsePolynomial":
        # arithmetic results: p and the variable table come from operands
        # that were validated when they were built, the terms are already
        # reduced mod p and the width is the one their exponents need, so
        # nothing is checked again
        res = cls.__new__(cls)
        res.p = p
        res.variables = variables
        res.width = width
        res.packed = packed
        return res

    @classmethod
    def constant(cls, p: int, variables: Sequence[str], value: int) -> "SparsePolynomial":
        zero = (0,) * len(variables)
        return cls(p, variables, {zero: value})

    @classmethod
    def variable(cls, p: int, variables: Sequence[str], name: str) -> "SparsePolynomial":
        if name not in variables:
            raise InputError(f"unknown variable {name!r}")
        idx = tuple(variables).index(name)
        e = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(p, variables, {e: 1})

    @classmethod
    def monomial(cls, p: int, variables: Sequence[str], exponents: Sequence[int],
                 coeff: int = 1) -> "SparsePolynomial":
        return cls(p, variables, {tuple(exponents): coeff})

    # -- basic queries ------------------------------------------------------

    def _fields(self):
        # (pack, unpack) of this polynomial's layout
        return _exponent_fields(len(self.variables), self.width)

    @property
    def terms(self) -> "_Terms":
        """The terms as a read-only map from exponent tuples to coefficients."""
        return _Terms(self)

    def exponents(self) -> Iterator[tuple[int, ...]]:
        """The terms' exponent vectors, in ``packed``'s order, unpacked one
        at a time."""
        return map(self._fields()[1], self.packed)

    def is_zero(self) -> bool:
        return not self.packed

    def coefficient(self, exponents: Sequence[int]) -> int:
        # a vector of the wrong length, or with an entry outside the fields,
        # names no term: it is not packed, so it cannot alias another key
        e = tuple(exponents)
        limit = 1 << 8 * self.width - 1
        if len(e) != len(self.variables) or not all(0 <= x < limit for x in e):
            return 0
        return self.packed.get(self._fields()[0](e), 0)

    def is_constant(self) -> bool:
        return not any(self.packed)

    def term_count(self) -> int:
        return len(self.packed)

    def sorted_terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """(exponent vector, coefficient) in lexicographic order, unpacked
        one at a time: key order is that order."""
        unpack, get = self._fields()[1], self.packed.__getitem__
        return ((unpack(k), get(k)) for k in sorted(self.packed))

    def __bool__(self) -> bool:
        return bool(self.packed)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and other.p == self.p
            and other.variables == self.variables
            and other.width == self.width
            and other.packed == self.packed
        )

    def __repr__(self) -> str:
        if not self.packed:
            return "0"
        from heapq import nsmallest   # kept off the import path: only this method uses it

        bits = []
        unpack = self._fields()[1]
        for k in nsmallest(8, self.packed):
            mono = "*".join(
                f"{v}^{x}" if x > 1 else v
                for v, x in zip(self.variables, unpack(k)) if x
            )
            c = self.packed[k]
            bits.append(f"{c}*{mono}" if mono else str(c))
        tail = "" if len(self.packed) <= 8 else f" + ... ({len(self.packed)} terms)"
        return " + ".join(bits) + tail

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "SparsePolynomial") -> tuple[int, dict, dict]:
        # refuses operands over different tables; else both operands' keys
        # in the wider of their layouts
        if self.p != other.p or self.variables != other.variables:
            raise InputError("polynomials live over different variable tables")
        if self.width == other.width:
            return self.width, self.packed, other.packed
        width, n = max(self.width, other.width), len(self.variables)
        return width, *(_relayout(f.packed, n, f.width, width) for f in (self, other))

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        width, out, right = self._check_compatible(other)
        out = dict(out)
        p = self.p
        for k, c in right.items():
            v = (out.get(k, 0) + c) % p
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        # only equal widths above one byte can narrow: of different widths,
        # the wider operand's largest exponent has no partner to cancel
        if width > 1 and self.width == other.width:
            return _settled(p, self.variables, width, out)
        return SparsePolynomial._from_packed(p, self.variables, width, out)

    def __neg__(self) -> "SparsePolynomial":
        p = self.p
        return SparsePolynomial._from_packed(
            p, self.variables, self.width, {k: p - c for k, c in self.packed.items()}
        )

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def scale(self, k: int) -> "SparsePolynomial":
        p = self.p
        k %= p
        if not k:
            return SparsePolynomial._from_packed(p, self.variables, 1, {})
        # p is prime, so c * k is nonzero mod p for nonzero c and k
        return SparsePolynomial._from_packed(
            p, self.variables, self.width, {e: c * k % p for e, c in self.packed.items()}
        )

    def mul(self, other: "SparsePolynomial", term_cap: int = DEFAULT_TERM_CAP) -> "SparsePolynomial":
        """Product, refused once a partial product (after any row of
        ``self``) has more than ``term_cap`` terms nonzero mod p.

        Both operands' keys are in one layout, so a product exponent is one
        int add that cannot carry.  Per variable, the product's largest
        exponent is the sum of the operands' (a leading term never cancels
        over a domain), so the product keeps that layout unless the sum of
        the operands' ORed keys reaches a field's spare bit; only then are
        its own keys read to widen it.  The coefficients are reduced mod p
        once, at the end.

        A one-term operand c x^e is a shift: the other operand's keys are
        offset by e's key and its coefficients scaled by c mod p (by
        :meth:`scale` when e = 0).  No two terms meet and none vanishes, so
        the product is refused exactly when that operand has more than
        ``term_cap`` terms.
        """
        width, left, right = self._check_compatible(other)
        p, variables = self.p, self.variables
        if not left or not right:
            return SparsePolynomial._from_packed(p, variables, 1, {})
        one, f = (right, left) if len(right) == 1 else (left, right)
        if len(one) == 1:
            # one term c x^e: adding e is injective and c * c2 is nonzero mod
            # the prime p, so the product has len(f) terms and every partial
            # product is a prefix of it
            if len(f) > term_cap:
                raise ResourceLimitError(f"product exceeds term cap {term_cap}")
            ((e, c),) = one.items()
            if not e:
                return (other if f is right else self).scale(c)
            out = {e + k: c * c2 % p for k, c2 in f.items()}
        else:
            out = _product(left, right, p, term_cap)
        if (reduce(or_, left) + reduce(or_, right)) & _spare_bits(len(variables), width):
            return _settled(p, variables, width, out, True)
        return SparsePolynomial._from_packed(p, variables, width, out)

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self.mul(other)

    def __pow__(self, n: int) -> "SparsePolynomial":
        return self.power(n)

    def power(self, n: int, term_cap: int = DEFAULT_TERM_CAP) -> "SparsePolynomial":
        """The n-th power by repeated squaring; ``term_cap`` bounds every
        product, as in :meth:`mul`."""
        if n < 0:
            raise InputError("negative powers are not defined")
        result = SparsePolynomial._from_packed(self.p, self.variables, 1, {0: 1})
        base = self
        while n:
            if n & 1:
                result = result.mul(base, term_cap)
            n >>= 1
            if n:
                base = base.mul(base, term_cap)
        return result

    def substitute(self, name: str, replacement: "SparsePolynomial",
                   term_cap: int = DEFAULT_TERM_CAP) -> "SparsePolynomial":
        """Replace one variable by a polynomial r over the same table.

        Writing self = sum_k f_k * name^k with no f_k involving the variable,
        the result is sum_k f_k * r^k.  ``term_cap`` bounds every power r^k
        and every partial product f_k * r^k, as in :meth:`mul`.
        """
        self._check_compatible(replacement)
        if name not in self.variables:
            raise InputError(f"unknown variable {name!r}")
        p, variables, width = self.p, self.variables, self.width
        # the variable's field: its exponent is k >> shift & mask
        shift = 8 * width * (len(variables) - 1 - variables.index(name))
        mask = (1 << 8 * width) - 1
        slices: dict[int, dict[int, int]] = {}
        for k, c in self.packed.items():
            j = k >> shift & mask
            slices.setdefault(j, {})[k - (j << shift)] = c
        out = SparsePolynomial._from_packed(p, variables, 1, {})
        power = SparsePolynomial._from_packed(p, variables, 1, {0: 1})
        for j in range(max(slices, default=-1) + 1):
            if j:
                power = power.mul(replacement, term_cap)
            f_j = slices.pop(j, None)
            if f_j is not None:
                out = out + _settled(p, variables, width, f_j).mul(power, term_cap)
        return out


class _Terms(Mapping):
    """A polynomial's terms as a read-only map from exponent tuples to
    coefficients, unpacked as they are read; its length is the term count."""

    __slots__ = ("_f",)

    def __init__(self, f: SparsePolynomial):
        self._f = f

    def __len__(self) -> int:
        return len(self._f.packed)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return self._f.exponents()

    def __getitem__(self, e: Sequence[int]) -> int:
        c = self._f.coefficient(e)
        if not c:
            raise KeyError(e)
        return c

    def items(self) -> list[tuple[tuple[int, ...], int]]:
        return list(zip(self, self._f.packed.values()))

    def __repr__(self) -> str:
        return repr(dict(self.items()))


# -- the trace operator and the splitting criterion ---------------------------

@cache
def _digits(p: int, nvars: int, width: int):
    """``(split, partner)`` for keys of one layout, a key's exponents e:
    split(k) is e mod p and the key of e // p, and partner(k) is (-1 - e)
    mod p, the residues of the terms that meet k's in a trace.  One-byte
    fields stay bytes objects and go through translate tables, in C; wider
    ones are tuples."""
    if width == 1:
        # (-1 - x) mod p is clamped to 255, which no field below 128 equals
        mod, div, comp = (bytes(x % p for x in range(256)), bytes(x // p for x in range(256)),
                          bytes(min((-1 - x) % p, 255) for x in range(256)))
        return (lambda k: ((b := k.to_bytes(nvars, "big")).translate(mod),
                           int.from_bytes(b.translate(div), "big")),
                lambda k: k.to_bytes(nvars, "big").translate(comp))
    pack, unpack = _exponent_fields(nvars, width)

    def split(k: int) -> tuple[tuple[int, ...], int]:
        e = unpack(k)
        return tuple(x % p for x in e), pack([x // p for x in e])

    return split, lambda k: tuple((-1 - x) % p for x in unpack(k))


def frobenius_trace(
    f: SparsePolynomial, g: SparsePolynomial, term_cap: int = DEFAULT_TERM_CAP
) -> SparsePolynomial:
    """Apply the trace of multiplication by f to g: x^gamma in f*g goes to
    x^((gamma+1)/p - 1) if every gamma_i is -1 mod p, else to zero.  f*g is
    never formed: a term x^a of f meets only g's terms of class (-1-a) mod p,
    and for such a pair (a + b + 1)/p - 1 = a // p + b // p, so the target's
    key is the sum of the two quotient keys.
    ``term_cap`` bounds the trace's nonzero terms after each term of f.
    Additive in f and g; semilinear: trace(f, h^p*g) = h*trace(f, g)."""
    width, left, right = f._check_compatible(g)
    p, n = f.p, len(f.variables)
    split, partner = _digits(p, n, width)
    classes: dict[Sequence[int], list] = {}
    for k, c in right.items():
        r, q = split(k)
        classes.setdefault(r, []).append((q, c))
    out: dict[int, int] = {}
    for k, c1 in left.items():
        partners = classes.get(partner(k))
        if partners:
            q1 = split(k)[1]
            for q2, c2 in partners:
                t = q1 + q2
                c = (out.pop(t, 0) + c1 * c2) % p
                if c:
                    out[t] = c
        if len(out) > term_cap:
            raise ResourceLimitError(f"trace exceeds term cap {term_cap}")
    # quotients by p >= 2 leave a spare bit, so the targets never widen
    return _settled(p, f.variables, width, out)


class SplittingCheck(NamedTuple):
    """Result of the affine splitting criterion, with a witness on failure.

    The witness is the all-(p-1) exponent vector when its coefficient
    vanishes, or an offending congruent monomial otherwise.
    """

    ok: bool
    witness: Optional[tuple[int, ...]] = None

    def __bool__(self) -> bool:
        return self.ok


def is_splitting_function(f: SparsePolynomial) -> SplittingCheck:
    """Affine criterion: the all-(p-1) coefficient is nonzero and every other
    monomial congruent to p-1 in each exponent is absent."""
    p = f.p
    center = (p - 1,) * len(f.variables)
    if f.coefficient(center) == 0:
        return SplittingCheck(False, center)
    pack, unpack = f._fields()
    n = len(f.variables)
    partner = _digits(p, n, f.width)[1]
    key = pack(center)
    # congruent to p - 1 everywhere: -1 - e is 0 mod p everywhere, the
    # layout's all-zero record
    zero = bytes(n) if f.width == 1 else (0,) * n
    offending = [k for k in f.packed if partner(k) == zero and k != key]
    if offending:
        return SplittingCheck(False, unpack(min(offending)))
    return SplittingCheck(True)


class VariableIdeal(NamedTuple("VariableIdeal", [("generators", tuple[int, ...])])):
    """Monomial ideal generated by a nonempty set of variables (0-based indices)."""

    __slots__ = ()

    def __new__(cls, generators: tuple[int, ...]):
        if not generators:
            raise InputError("a variable ideal needs at least one generator")
        if len(set(generators)) != len(generators):
            raise InputError("duplicate generators")
        return super().__new__(cls, generators)

    @classmethod
    def from_names(cls, f: SparsePolynomial, names: Iterable[str]) -> "VariableIdeal":
        idx = []
        for n in names:
            if n not in f.variables:
                raise InputError(f"unknown variable {n!r}")
            idx.append(f.variables.index(n))
        return cls(tuple(sorted(idx)))

    def contains_monomial(self, e: Sequence[int]) -> bool:
        return any(e[i] > 0 for i in self.generators)


class CompatibilityCheck(NamedTuple):
    ok: bool
    witness_exponent: Optional[tuple[int, ...]] = None
    witness_trace: Optional[SparsePolynomial] = None

    def __bool__(self) -> bool:
        return self.ok


def splits_ideal_compatibly(
    f: SparsePolynomial,
    ideal: VariableIdeal,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> CompatibilityCheck:
    """Decide whether the splitting defined by f preserves the variable ideal.

    By semilinearity it suffices to check trace(f, x^e) for exponent vectors
    e in [0, p-1]^nvars that touch a generator variable.  A term x^gamma of f
    reaches trace(f, x^e) only when gamma = -1-e (mod p), and then lands
    alone on x^((gamma+e+1)/p - 1) = x^(gamma // p), so nothing cancels.
    One pass over the terms therefore decides every e at once: e =
    (-1-gamma) mod p fails exactly when it touches a generator and that
    target monomial avoids every generator.  The witness is the failing e with the smallest flat
    index sum(e_i p^i), with its full trace.  ``enum_cap`` bounds the number
    of terms of f the pass walks.
    """
    if not is_splitting_function(f):
        raise InputError("f must satisfy the splitting criterion first")
    if len(f.packed) > enum_cap:
        raise ResourceLimitError(
            f"compatibility pass over {len(f.packed)} terms exceeds cap {enum_cap}"
        )
    split, partner = _digits(f.p, len(f.variables), f.width)
    unpack = f._fields()[1]
    failing = []
    for k in f.packed:
        e = partner(k)
        if ideal.contains_monomial(e) and not ideal.contains_monomial(unpack(split(k)[1])):
            failing.append(tuple(e))
    if not failing:
        return CompatibilityCheck(True)
    e = min(failing, key=lambda e: e[::-1])   # reversed order is flat order
    witness_trace = frobenius_trace(f, SparsePolynomial.monomial(f.p, f.variables, e))
    return CompatibilityCheck(False, e, witness_trace)


# -- serialisation -------------------------------------------------------------

def poly_to_json_obj(f: SparsePolynomial, terms=None) -> dict:
    # terms, when given, stands in for the list of term dicts (the CLI passes
    # the same records as rows written from the table)
    return {
        "p": f.p,
        "vars": list(f.variables),
        "terms": [{"e": list(e), "c": c} for e, c in f.sorted_terms()] if terms is None else terms,
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def poly_from_json_obj(obj: dict) -> SparsePolynomial:
    try:
        p, variables = obj["p"], obj["vars"]
        terms = [(t["e"], t["c"]) for t in obj["terms"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed polynomial object: {exc}") from exc
    # no coercion: 3.9, "3" and true are not the integer 3
    if not _is_int(p):
        raise InputError(f"characteristic {p!r} is not an integer")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise InputError(f"variables {variables!r} are not a list of names")
    for e, c in terms:
        if not isinstance(e, list) or not all(map(_is_int, e)):
            raise InputError(f"exponent vector {e!r} is not a list of integers")
        if not _is_int(c):
            raise InputError(f"coefficient {c!r} is not an integer")
    terms = [(tuple(e), c) for e, c in terms]
    # a repeated variable or term would let one term overwrite another
    if len(set(variables)) != len(variables):
        raise InputError(f"duplicate variable names in {variables}")
    for (prev, _), (e, _) in zip(terms, terms[1:]):
        if e == prev:
            raise InputError(f"duplicate exponent vector {list(e)}")
        if e < prev:
            raise InputError(f"terms out of order: {list(e)} after {list(prev)}")
    for e, c in terms:
        if not 1 <= c <= p - 1:
            raise InputError(f"coefficient {c} outside [1, p-1]")
    return SparsePolynomial(p, variables, dict(terms))


def save_poly(f: SparsePolynomial, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(poly_to_json_obj(f), fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write polynomial file {path}: {exc}") from exc


def load_poly(path: str) -> SparsePolynomial:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read polynomial file {path}: {exc}") from exc
    return poly_from_json_obj(obj)
