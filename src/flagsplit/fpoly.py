"""Sparse multivariate polynomials over a prime field, the Frobenius trace,
and the affine splitting criterion.

Exponent vectors are fixed-length integer tuples over a shared variable
table; coefficients are kept in [1, p-1] and zero terms are never stored.
A polynomial carries no grading of its variables: a caller that grades
them (slnsplit's chart weights) keeps the grading itself.
A product packs each exponent vector into an int, one byte-aligned field
per variable, and unpacks the result; a product with a one-term operand
(a constant, a variable, a monomial) is an exponent shift instead, with the
same term cap: it is refused when the other operand has more terms than
the cap.
The serialised form is the exact JSON schema
``{"p": 3, "vars": ["x", "y"], "terms": [{"e": [2, 0], "c": 1}]}`` with the
terms sorted lexicographically by exponent vector.
"""

from __future__ import annotations

import json
from operator import add
from typing import Iterable, NamedTuple, Optional, Sequence

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


def _exponent_fields(nvars: int, top: int):
    """``(pack, unpack, size)`` for exponent vectors with entries <= top.

    ``pack`` turns a vector into ``size`` bytes, one big-endian field per
    variable, and ``unpack`` turns such bytes back into the tuple.  Fields
    are one byte wide whenever they can be; then both directions run in C.
    """
    width = max(1, (top.bit_length() + 7) // 8)
    if width == 1:
        return bytes, tuple, nvars

    def pack(e: Sequence[int]) -> bytes:
        return b"".join(x.to_bytes(width, "big") for x in e)

    def unpack(b: bytes) -> tuple[int, ...]:
        return tuple(int.from_bytes(b[i:i + width], "big") for i in range(0, len(b), width))

    return pack, unpack, nvars * width


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
    """A finite map from exponent vectors to nonzero coefficients mod p."""

    __slots__ = ("p", "variables", "terms")

    def __init__(
        self,
        p: int,
        variables: Sequence[str],
        terms: Optional[dict[tuple[int, ...], int]] = None,
    ):
        PrimeField(p)
        self.p = p
        self.variables = tuple(variables)
        self.terms: dict[tuple[int, ...], int] = {}
        if terms:
            nvars = len(self.variables)
            for e, c in terms.items():
                e = tuple(map(int, e))
                if len(e) != nvars:
                    raise InputError(f"exponent vector {e} has wrong length")
                if e and min(e) < 0:
                    raise InputError(f"negative exponent in {e}")
                c = c % p
                if c:
                    self.terms[e] = c

    # -- constructors -----------------------------------------------------

    @classmethod
    def _from_terms(cls, p: int, variables: tuple[str, ...],
                    terms: dict[tuple[int, ...], int]) -> "SparsePolynomial":
        # arithmetic results: p and the variable table come from operands
        # that were validated when they were built, and the terms are
        # already reduced mod p, so nothing is checked again
        res = cls.__new__(cls)
        res.p = p
        res.variables = variables
        res.terms = terms
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

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponents: Sequence[int]) -> int:
        return self.terms.get(tuple(exponents), 0)

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.terms)

    def term_count(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        # the exponents are distinct: sort them alone, then look up
        keys = sorted(self.terms)
        return list(zip(keys, map(self.terms.__getitem__, keys)))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and other.p == self.p
            and other.variables == self.variables
            and other.terms == self.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        from heapq import nsmallest   # kept off the import path: only this method uses it

        bits = []
        for e in nsmallest(8, self.terms):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.variables, e) if k
            )
            bits.append(f"{c}*{mono}" if mono else str(c))
        tail = "" if len(self.terms) <= 8 else f" + ... ({len(self.terms)} terms)"
        return " + ".join(bits) + tail

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "SparsePolynomial") -> None:
        if self.p != other.p or self.variables != other.variables:
            raise InputError("polynomials live over different variable tables")

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = (out.get(e, 0) + c) % self.p
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return SparsePolynomial._from_terms(self.p, self.variables, out)

    def __neg__(self) -> "SparsePolynomial":
        p = self.p
        return SparsePolynomial._from_terms(
            p, self.variables, {e: p - c for e, c in self.terms.items()}
        )

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def scale(self, k: int) -> "SparsePolynomial":
        p = self.p
        k %= p
        # p is prime, so c * k is nonzero mod p for nonzero c and k
        terms = {e: c * k % p for e, c in self.terms.items()} if k else {}
        return SparsePolynomial._from_terms(p, self.variables, terms)

    def mul(self, other: "SparsePolynomial", term_cap: int = DEFAULT_TERM_CAP) -> "SparsePolynomial":
        """Product, refused once a partial product (after any row of
        ``self``) has more than ``term_cap`` terms nonzero mod p.

        Exponent vectors are packed into ints with one byte-aligned field per
        variable, wide enough for the largest exponent sum, so a product
        exponent is one int add that cannot carry between fields.  The
        coefficients are reduced mod p once, at the end.

        A one-term operand c x^e packs nothing: the other operand's exponents
        are shifted by e and its coefficients scaled by c mod p (by
        :meth:`scale` when e = 0).  No two terms meet and none vanishes, so
        the product is refused exactly when that operand has more than
        ``term_cap`` terms.
        """
        self._check_compatible(other)
        p = self.p
        res = SparsePolynomial._from_terms(p, self.variables, {})
        if not self.terms or not other.terms:
            return res
        one, f = (other, self) if len(other.terms) == 1 else (self, other)
        if len(one.terms) == 1:
            # one term c x^e: adding e is injective and c * c2 is nonzero mod
            # the prime p, so the product has len(f) terms and every partial
            # product is a prefix of it
            if len(f.terms) > term_cap:
                raise ResourceLimitError(f"product exceeds term cap {term_cap}")
            ((e, c),) = one.terms.items()
            if not any(e):
                return f.scale(c)
            res.terms = {tuple(map(add, e, e2)): c * c2 % p for e2, c2 in f.terms.items()}
            return res
        nvars = len(self.variables)
        top = max(map(max, self.terms)) + max(map(max, other.terms)) if nvars else 0
        pack, unpack, size = _exponent_fields(nvars, top)
        from_bytes = int.from_bytes
        right = [(from_bytes(pack(e), "big"), c) for e, c in other.terms.items()]
        out: dict[int, int] = {}
        get = out.get
        rows = iter(self.terms.items())
        for e1, c1 in rows:
            k1 = from_bytes(pack(e1), "big")
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
        for e1, c1 in rows:
            k1 = from_bytes(pack(e1), "big")
            for k2, c2 in right:
                k = k1 + k2
                c = (get(k, 0) + c1 * c2) % p
                if c:
                    out[k] = c
                else:   # c1 * c2 is nonzero mod p, so k was in out
                    del out[k]
            if len(out) > term_cap:
                raise ResourceLimitError(f"product exceeds term cap {term_cap}")
        # drain while unpacking, so the packed and the tuple dict are never
        # both at full size
        terms = res.terms
        while out:
            k, c = out.popitem()
            c %= p
            if c:
                terms[unpack(k.to_bytes(size, "big"))] = c
        return res

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self.mul(other)

    def __pow__(self, n: int) -> "SparsePolynomial":
        return self.power(n)

    def power(self, n: int, term_cap: int = DEFAULT_TERM_CAP) -> "SparsePolynomial":
        """The n-th power by repeated squaring; ``term_cap`` bounds every
        product, as in :meth:`mul`."""
        if n < 0:
            raise InputError("negative powers are not defined")
        result = SparsePolynomial._from_terms(
            self.p, self.variables, {(0,) * len(self.variables): 1}
        )
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
        p, variables = self.p, self.variables
        idx = variables.index(name)
        slices: dict[int, SparsePolynomial] = {}
        for e, c in self.terms.items():
            f_k = slices.get(e[idx])
            if f_k is None:
                f_k = slices[e[idx]] = SparsePolynomial._from_terms(p, variables, {})
            f_k.terms[e[:idx] + (0,) + e[idx + 1:]] = c
        out = SparsePolynomial._from_terms(p, variables, {})
        power = SparsePolynomial._from_terms(p, variables, {(0,) * len(variables): 1})
        for k in range(max(slices, default=-1) + 1):
            if k:
                power = power.mul(replacement, term_cap)
            f_k = slices.pop(k, None)
            if f_k is not None:
                out = out + f_k.mul(power, term_cap)
        return out


# -- the trace operator and the splitting criterion ---------------------------

def frobenius_trace(
    f: SparsePolynomial, g: SparsePolynomial, term_cap: int = DEFAULT_TERM_CAP
) -> SparsePolynomial:
    """Apply the trace of multiplication by f to g: x^gamma in f*g goes to
    x^((gamma+1)/p - 1) if every gamma_i is -1 mod p, else to zero.  f*g is
    never formed: a term x^a of f meets only g's terms of class (-1-a) mod p.
    ``term_cap`` bounds the trace's nonzero terms after each term of f.
    Additive in f and g; semilinear: trace(f, h^p*g) = h*trace(f, g)."""
    f._check_compatible(g)
    p = f.p
    classes: dict[tuple[int, ...], list] = {}
    for e, c in g.terms.items():
        classes.setdefault(tuple(x % p for x in e), []).append((e, c))
    out: dict[tuple[int, ...], int] = {}
    for a, c1 in f.terms.items():
        for b, c2 in classes.get(tuple((-1 - x) % p for x in a), ()):
            target = tuple((x + y + 1) // p - 1 for x, y in zip(a, b))
            c = (out.pop(target, 0) + c1 * c2) % p
            if c:
                out[target] = c
        if len(out) > term_cap:
            raise ResourceLimitError(f"trace exceeds term cap {term_cap}")
    return SparsePolynomial._from_terms(p, f.variables, out)


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
    offending = [
        e for e in f.terms if e != center and all(x % p == p - 1 for x in e)
    ]
    if offending:
        return SplittingCheck(False, min(offending))
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
    alone on x^((gamma+e+1)/p - 1), so nothing cancels.  One pass over the
    terms therefore decides every e at once: e = (-1-gamma) mod p fails
    exactly when it touches a generator and that target monomial avoids
    every generator.  The witness is the failing e with the smallest flat
    index sum(e_i p^i), with its full trace.  ``enum_cap`` bounds the number
    of terms of f the pass walks.
    """
    if not is_splitting_function(f):
        raise InputError("f must satisfy the splitting criterion first")
    if len(f.terms) > enum_cap:
        raise ResourceLimitError(
            f"compatibility pass over {len(f.terms)} terms exceeds cap {enum_cap}"
        )
    p = f.p
    failing = []
    for gamma in f.terms:
        e = tuple((-1 - x) % p for x in gamma)
        target = tuple((x + y + 1) // p - 1 for x, y in zip(gamma, e))
        if ideal.contains_monomial(e) and not ideal.contains_monomial(target):
            failing.append(e)
    if not failing:
        return CompatibilityCheck(True)
    e = min(failing, key=lambda e: e[::-1])   # reversed order is flat order
    witness_trace = frobenius_trace(f, SparsePolynomial.monomial(p, f.variables, e))
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
