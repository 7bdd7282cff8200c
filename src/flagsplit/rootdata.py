"""Root systems, weights and Weyl combinatorics over the integers.

Everything here is exact: weights live in fundamental (Dynkin) coordinates,
so the i-th entry of a weight is its pairing with the i-th simple coroot.
Simple-root coordinates are recovered on demand from the inverse of the
transposed Cartan matrix, held as integers over a common denominator.

The positive roots come from closing the simple roots, each with its
coroot, under the simple reflections; the symmetrizers and bad primes are
read off the highest root.  A disconnected Dynkin graph, a coroot not
pairing to 2 with its root and symmetrizers that do not symmetrise the
Cartan matrix raise :class:`InvariantError`.

Conventions:
  * ``cartan[i][j]`` is the pairing of the i-th simple root with the j-th
    simple coroot, so row i of the Cartan matrix is the i-th simple root
    written in fundamental coordinates.
  * Simple-root indices are 1-based in every public signature (matching the
    usual alpha_1, ..., alpha_n labelling); words in the Weyl group are
    sequences of 1-based indices, applied right to left.
  * Both sign conventions for the roots of the unipotent radical are
    available: ``positive_roots`` lists R+ and ``negative_roots`` lists R-.
    Consumers state which side they use.
"""

from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import InputError, InvariantError

if TYPE_CHECKING:
    from fractions import Fraction

Weight = tuple[int, ...]

MAX_RANK = 8

_VALID_TYPES = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 3,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


class _Packing:
    """Weights whose coordinates lie in [-bound, bound], packed into ints.

    One field per coordinate, biased by bound, coordinate 0 in the most
    significant field, so int order is the lexicographic order of weights.
    Packing is affine, pack(w) + step(v) == pack(w + v), and no field
    carries into the next while w + v is again within the bound; every
    caller takes bound from a proven bound on the weights it meets.
    """

    __slots__ = ("bias", "mask", "shifts")

    def __init__(self, rank: int, bound: int):
        width = (2 * bound + 1).bit_length()
        self.bias = bound
        self.mask = (1 << width) - 1
        self.shifts = range(width * (rank - 1), -1, -width)

    def pack(self, w: Sequence[int]) -> int:
        return sum((c + self.bias) << s for c, s in zip(w, self.shifts))

    def step(self, v: Iterable[int]) -> int:
        return sum(c << s for c, s in zip(v, self.shifts))

    def holds(self, w: Sequence[int]) -> bool:
        # every coordinate within the bound, so pack(w) aliases no other weight
        return all(-self.bias <= c <= self.bias for c in w)

    def columns(self, keys: Sequence[int]) -> list[list[int]]:
        # the coordinates of the keys, decoded a coordinate at a time over all keys
        mask, bias = self.mask, self.bias
        return [[((x >> s) & mask) - bias for x in keys] for s in self.shifts]

    def unpack(self, keys: Sequence[int]) -> list[Weight]:
        return list(zip(*self.columns(keys)))

    def weight(self, x: int) -> Weight:
        # one key decoded, for readers that take one weight at a time
        return tuple(((x >> s) & self.mask) - self.bias for s in self.shifts)

    def moved(self, packed: dict[int, int], dst: "_Packing",
              lam: Sequence[int] = ()) -> dict[int, int]:
        # the entries of packed with their weights shifted by lam, keyed in
        # the layout dst, which must hold the shifted weights; between fields
        # of one width that is one int addition per key
        lam = lam or (0,) * len(self.shifts)
        if dst.mask == self.mask:
            offset = dst.step(c + dst.bias - self.bias for c in lam)
            return {x + offset: m for x, m in packed.items()} if offset else packed
        keys = list(packed)
        offset = dst.step(lam)
        return dict(zip([dst.pack(w) + offset for w in zip(*self.columns(keys))],
                        map(packed.__getitem__, keys)))


class Root(NamedTuple):
    """A positive root in three coordinate systems.

    ``simple``: coefficients over the simple roots (all nonnegative).
    ``fund``: fundamental coordinates (pairings with simple coroots).
    ``coroot``: coefficients of the associated coroot over simple coroots,
    so that the pairing of a weight with this coroot is dot(coroot, weight).
    """

    simple: tuple[int, ...]
    fund: Weight
    coroot: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.simple)


def _cartan_matrix(type_label: str, rank: int) -> list[list[int]]:
    n = rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    def chain(i: int, j: int) -> None:
        a[i][j] = -1
        a[j][i] = -1
    if type_label in ("A", "B", "C", "F", "G"):
        for i in range(n - 1):
            chain(i, i + 1)
    if type_label == "B":
        a[n - 2][n - 1] = -2          # alpha_{n-1} long, alpha_n short
    elif type_label == "C":
        a[n - 1][n - 2] = -2          # alpha_n long
    elif type_label == "D":
        for i in range(n - 2):
            chain(i, i + 1)
        chain(n - 3, n - 1)
    elif type_label == "E":
        for i in range(n - 2):
            chain(i, i + 1)
        chain(2, n - 1)
    elif type_label == "F":
        a[1][2] = -2                  # alpha_2 long, alpha_3 short
    elif type_label == "G":
        a[0][1] = -3                  # alpha_1 long, alpha_2 short
    return a


def _root_walk(cartan: Sequence[Sequence[int]]) -> dict[tuple[int, ...], Root]:
    """The positive roots with their coroots, keyed by simple coordinates.

    s_i permutes the positive roots other than alpha_i (Humphreys,
    *Reflection Groups and Coxeter Groups* 1.4), so closing the simple roots
    under the s_i reaches every positive root, and each coroot moves with its
    root: s_i beta^vee = beta^vee - <alpha_i, beta^vee> alpha_i^vee."""
    n = len(cartan)
    simple_roots = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    roots = {e: Root(e, tuple(row), e) for e, row in zip(simple_roots, cartan)}
    walk = list(roots.values())
    for beta, fund, coroot in walk:   # the list grows as it is walked
        for i, c in enumerate(fund):   # c = <beta, alpha_i^vee>
            if c == 0 or beta == simple_roots[i]:
                continue
            image = beta[:i] + (beta[i] - c,) + beta[i + 1:]
            if image not in roots:
                c_dual = sum(a * u for a, u in zip(cartan[i], coroot))
                dual = coroot[:i] + (coroot[i] - c_dual,) + coroot[i + 1:]
                moved = tuple(x - c * a for x, a in zip(fund, cartan[i]))
                roots[image] = root = Root(image, moved, dual)
                walk.append(root)
    return roots


def _inverse_over_den(m: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, num) with m^-1 = num / den, den > 0 and gcd(den, *num) == 1.

    Fraction-free (Bareiss) Gauss-Jordan elimination of [m | I]: each step
    divides exactly by the previous pivot, so every entry stays an integer
    and the end is [det * I | det * m^-1], with det the last pivot."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        piv = next(r for r in range(k, n) if aug[r][k] != 0)
        aug[k], aug[piv] = aug[piv], aug[k]
        top = aug[k]
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [(top[k] * x - f * y) // prev for x, y in zip(aug[i], top)]
        prev = top[k]
    g = math.gcd(prev, *(x for row in aug for x in row[n:]))
    g = g if prev > 0 else -g
    return prev // g, tuple(tuple(x // g for x in row[n:]) for row in aug)


class RootSystem:
    """Immutable root datum of a simple type, built by :func:`build_root_system`."""

    def __init__(self, type_label: str, rank: int):
        if type_label not in _VALID_TYPES:
            raise InputError(f"unknown type label {type_label!r}")
        if rank > MAX_RANK:
            raise InputError(f"rank {rank} exceeds the cap {MAX_RANK}")
        if rank < 1 or not _VALID_TYPES[type_label](rank):
            raise InputError(f"{type_label}{rank} is not a valid simple type")
        self.type_label = type_label
        self.rank = rank
        self.cartan: tuple[tuple[int, ...], ...] = tuple(
            tuple(row) for row in _cartan_matrix(type_label, rank)
        )
        # the Dynkin neighbours of each node i, as (k, cartan[i][k]) pairs
        self._adjacent: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple((k, a) for k, a in enumerate(row) if a and k != i)
            for i, row in enumerate(self.cartan)
        )
        # Inverse of the transposed Cartan matrix over a common denominator:
        # converts fundamental coordinates to simple-root coordinates.
        self._coord_den, self._coord_num = _inverse_over_den(
            [[self.cartan[j][i] for j in range(rank)] for i in range(rank)]
        )
        # sort by height, then so that alpha_1, ..., alpha_n come in order
        self.positive_roots: tuple[Root, ...] = tuple(sorted(
            _root_walk(self.cartan).values(),
            key=lambda r: (sum(r.simple), tuple(-x for x in r.simple)),
        ))
        for r in self.positive_roots:
            pairing = sum(a * u for a, u in zip(r.fund, r.coroot))
            if pairing != 2:
                raise InvariantError(f"root {r.simple} pairs to {pairing} with its coroot, not 2")
        self.num_positive_roots = len(self.positive_roots)
        self.rho: Weight = (1,) * rank
        self.highest_root = theta = self.positive_roots[-1]
        # the highest coroot, over the simple coroots: it lies above every
        # positive coroot, so its pairing with a dominant weight bounds every
        # coordinate of the weight's orbit in absolute value
        self._top_coroot = max((r.coroot for r in self.positive_roots), key=sum)
        self.coxeter_number = theta.height + 1
        # d_i is proportional to theta^vee_i / theta_i, as beta^vee is
        # sum_i (d_i beta_i / d_beta) alpha_i^vee for every root beta
        if 0 in theta.simple:
            raise InvariantError("the Dynkin graph is not connected: "
                                 f"the highest root {theta.simple} has a zero coefficient")
        scale = math.lcm(*theta.simple)
        d = [u * (scale // m) for u, m in zip(theta.coroot, theta.simple)]
        g = math.gcd(*d)
        self.symmetrizers = d = tuple(x // g for x in d)
        if any(self.cartan[i][j] * d[j] != self.cartan[j][i] * d[i]
               for i in range(rank) for j in range(rank)):
            raise InvariantError(f"symmetrizers {d} do not symmetrise the Cartan matrix")
        # every coefficient of theta is at most 6
        self.bad_primes = tuple(q for q in (2, 3, 5) if any(m % q == 0 for m in theta.simple))

    # -- basic queries ---------------------------------------------------

    def _check_weight(self, lam: Sequence[int]) -> Weight:
        t = tuple(map(int, lam))
        if len(t) != self.rank:
            raise InputError(f"weight {t} has length {len(t)}, expected rank {self.rank}")
        return t

    def _check_index(self, i: int) -> int:
        if not 1 <= i <= self.rank:
            raise InputError(f"simple-root index {i} out of range 1..{self.rank}")
        return i - 1

    def _check_subset(self, subset: Sequence[int]) -> frozenset[int]:
        inside = frozenset(subset)
        if len(inside) != len(subset):
            raise InputError(f"duplicate simple indices in {list(subset)}")
        for i in inside:
            self._check_index(i)
        return inside

    def simple_root(self, i: int) -> Root:
        return self.positive_roots[self._check_index(i)]

    @property
    def negative_roots(self) -> tuple[Weight, ...]:
        """Fundamental coordinates of R-, the roots of the unipotent radical of B."""
        return tuple(tuple(-c for c in r.fund) for r in self.positive_roots)

    def pairing(self, lam: Sequence[int], i: int) -> int:
        """Pairing of a weight with the i-th simple coroot (a coordinate read)."""
        lam = self._check_weight(lam)
        return lam[self._check_index(i)]

    def reflect(self, i: int, lam: Sequence[int]) -> Weight:
        # s_i changes coordinate i and those of i's neighbours in the Dynkin diagram
        w = list(self._check_weight(lam))
        k = self._check_index(i)
        c = w[k]
        w[k] = -c
        for j, a in self._adjacent[k]:
            w[j] -= c * a
        return tuple(w)

    def weight_action(self, word: Sequence[int], lam: Sequence[int]) -> Weight:
        """Apply the Weyl-group element s_{w1} ... s_{wk} (rightmost letter first)."""
        out = self._check_weight(lam)
        for i in reversed(list(word)):
            out = self.reflect(i, out)
        return out

    def dot_action(self, word: Sequence[int], lam: Sequence[int]) -> Weight:
        lam = self._check_weight(lam)
        shifted = tuple(c + 1 for c in lam)
        moved = self.weight_action(word, shifted)
        return tuple(c - 1 for c in moved)

    def is_dominant(self, lam: Sequence[int]) -> bool:
        return min(self._check_weight(lam)) >= 0

    def in_cone_c(self, lam: Sequence[int]) -> bool:
        """Pairing >= -1 against every positive coroot, not only the simple ones."""
        lam = self._check_weight(lam)
        return all(
            sum(u * c for u, c in zip(r.coroot, lam)) >= -1 for r in self.positive_roots
        )

    def is_p_regular(self, lam: Sequence[int], subset: Iterable[int]) -> bool:
        """Zero pairings on the parabolic subset, strictly positive outside it."""
        lam = self._check_weight(lam)
        inside = {self._check_index(i) for i in subset}
        return all(
            (lam[k] == 0) if k in inside else (lam[k] > 0) for k in range(self.rank)
        )

    # -- good primes -----------------------------------------------------

    def is_good_prime(self, p: int) -> bool:
        """True when p divides no coefficient of the highest root over the simple roots."""
        return p not in self.bad_primes

    def minimal_good_prime(self) -> int:
        return next(p for p in (2, 3, 5, 7) if p not in self.bad_primes)

    # -- dominance order ---------------------------------------------------

    def _scaled_simple_coords(self, lam: Weight) -> Iterator[int]:
        return (sum(a * b for a, b in zip(row, lam)) for row in self._coord_num)

    def to_simple_coords(self, lam: Sequence[int]) -> tuple[Fraction, ...]:
        from fractions import Fraction   # kept off the import path: only this method uses it

        lam = self._check_weight(lam)
        return tuple(Fraction(x, self._coord_den) for x in self._scaled_simple_coords(lam))

    def dominance_leq(self, mu: Sequence[int], lam: Sequence[int]) -> bool:
        """True when lam - mu is a nonnegative integer combination of simple roots."""
        mu = self._check_weight(mu)
        lam = self._check_weight(lam)
        diff = tuple(a - b for a, b in zip(lam, mu))
        den = self._coord_den
        return all(x >= 0 and x % den == 0 for x in self._scaled_simple_coords(diff))

    # -- cone reduction ----------------------------------------------------

    def cone_reduce(self, lam: Sequence[int], n: int) -> "ReductionTrace":
        lam = self._check_weight(lam)
        if n < 0:
            raise InputError("degree must be nonnegative")
        if not self.in_cone_c(lam):
            raise InputError(f"weight {lam} lies outside the cone C")
        steps: list[int] = []
        intermediates: list[Weight] = [lam]
        cur, deg = lam, n
        while True:
            if self.is_dominant(cur):
                return ReductionTrace(
                    steps=tuple(steps),
                    intermediates=tuple(intermediates),
                    outcome="dominant",
                    dominant_weight=cur,
                    remaining_degree=deg,
                )
            if deg == 0:
                return ReductionTrace(
                    steps=tuple(steps),
                    intermediates=tuple(intermediates),
                    outcome="all_cohomology_vanishes",
                    dominant_weight=None,
                    remaining_degree=None,
                )
            # inside C a non-dominant weight has some simple pairing equal to -1
            k = next((i for i in range(self.rank) if cur[i] == -1), None)
            if k is None:
                raise InvariantError(f"weight {cur} left the cone C during reduction")
            cur = self.reflect(k + 1, cur)
            deg -= 1
            steps.append(k + 1)
            intermediates.append(cur)

    # -- Weyl group --------------------------------------------------------

    def weyl_orbit(self, lam: Sequence[int]) -> list[Weight]:
        """The W-orbit of a weight, sorted."""
        top = self.make_dominant(lam)[0]
        packing = _Packing(self.rank, sum(map(mul, self._top_coroot, top)))
        return packing.unpack(sorted(self._orbit_walk(packing.pack(top), packing)))

    def _orbit_walk(self, top: int, packing: _Packing) -> list[int]:
        """The W-orbit of the dominant weight packed as ``top``, unvalidated,
        as packed keys in walk order; ``packing`` must hold the orbit.

        Builds each member exactly once, on a tree rooted at the orbit's
        dominant member: make_dominant's reduction path read backwards.  A
        member w other than the top has a least index j with w_j < 0, and its
        one parent is s_j w = w - w_j alpha_j, which lies higher.  So from v
        the walk keeps the child s_i v (where v_i > 0) exactly when no
        coordinate of the child before i is negative.  s_i changes only
        coordinate i and raises those of i's neighbours in the Dynkin
        diagram, so every such i before v's first negative coordinate
        qualifies, and past it only a neighbour of it can.  A child is one
        int subtraction, v - v_i step(alpha_i), with v_i read from field i.
        """
        bias, mask, shifts = packing.bias, packing.mask, packing.shifts
        steps = [packing.step(row) for row in self.cartan]
        fields = list(zip(range(self.rank), shifts, steps))
        # for each node i, its later neighbours j, each with the fields i..j-1
        later = [[(shifts[j], steps[j], shifts[i:j]) for j, _ in adjacent if j > i]
                 for i, adjacent in enumerate(self._adjacent)]
        orbit = [top]
        append = orbit.append
        for v in orbit:   # the list grows as it is walked
            for i, s, a in fields:
                c = (v >> s) & mask
                if c > bias:
                    append(v - (c - bias) * a)
                elif c < bias:
                    # i is v's first negative coordinate: only s_j for a later
                    # neighbour j of i can lift it, and no coordinate of the
                    # child before j may stay negative (those before i only rise)
                    for t, b, between in later[i]:
                        d = ((v >> t) & mask) - bias
                        if d > 0:
                            w = v - d * b
                            for u in between:
                                if (w >> u) & mask < bias:
                                    break
                            else:
                                append(w)
                    break
        return orbit

    def word_length(self, word: Sequence[int]) -> int:
        """Coxeter length: the number of positive roots sent to negative ones."""
        neg = {tuple(-c for c in r.fund) for r in self.positive_roots}
        return sum(
            1 for r in self.positive_roots if self.weight_action(word, r.fund) in neg
        )

    def make_dominant(self, lam: Sequence[int]) -> tuple[Weight, int]:
        """Dominant Weyl-orbit representative and the number of reflections used."""
        return self._dominant(self._check_weight(lam))

    def _dominant(self, cur: Weight) -> tuple[Weight, int]:
        # make_dominant without validation, for weights built inside the library
        cartan = self.cartan
        count = 0
        while True:
            for k, c in enumerate(cur):
                if c < 0:
                    break
            else:
                return cur, count
            cur = tuple(a - c * b for a, b in zip(cur, cartan[k]))
            count += 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootSystem)
            and other.type_label == self.type_label
            and other.rank == self.rank
        )

    def __hash__(self) -> int:
        return hash((self.type_label, self.rank))

    def __repr__(self) -> str:
        return f"RootSystem({self.type_label}{self.rank})"


class ReductionTrace(NamedTuple):
    """Record of one run of the cone reduction."""

    steps: tuple[int, ...]
    intermediates: tuple[Weight, ...]
    outcome: str                       # "dominant" | "all_cohomology_vanishes"
    dominant_weight: Optional[Weight]
    remaining_degree: Optional[int]


class ParabolicSubset(NamedTuple):
    """A subset I of simple roots with the derived nilradical data."""

    rs: RootSystem
    subset: frozenset[int]                 # 1-based simple indices
    levi_roots: tuple[Root, ...]           # positive roots supported on I
    radical_weights: tuple[Weight, ...]    # fundamental coords of R+ \ R_I+
    delta: Weight                          # sum of the radical weights

    def __repr__(self) -> str:
        return f"ParabolicSubset({self.rs}, I={sorted(self.subset)})"


def parabolic_subset(rs: RootSystem, subset: Sequence[int] = ()) -> ParabolicSubset:
    inside = rs._check_subset(subset)
    levi = []
    radical = []
    for r in rs.positive_roots:
        support = {j + 1 for j in range(rs.rank) if r.simple[j] != 0}
        if support <= inside:
            levi.append(r)
        else:
            radical.append(r.fund)
    delta = tuple(sum(c) for c in zip(*radical)) if radical else (0,) * rs.rank
    for i in inside:
        if delta[i - 1] != 0:
            raise InvariantError(f"delta_P = {delta} pairs to {delta[i - 1]} with alpha_{i}-vee")
    return ParabolicSubset(rs, inside, tuple(levi), tuple(radical), delta)


_SYSTEM_CACHE: dict[tuple[str, int], RootSystem] = {}


def build_root_system(type_label: str, rank: int) -> RootSystem:
    """Build (or fetch the cached) root system of the given simple type."""
    key = (str(type_label).upper(), int(rank))
    if key not in _SYSTEM_CACHE:
        _SYSTEM_CACHE[key] = RootSystem(*key)
    return _SYSTEM_CACHE[key]


def parse_system(name: str) -> RootSystem:
    """Parse a name like ``A2`` or ``G2`` into a root system."""
    name = name.strip()
    if len(name) < 2 or not name[1:].isdecimal():
        raise InputError(f"cannot parse root-system name {name!r}")
    return build_root_system(name[0].upper(), int(name[1:]))

