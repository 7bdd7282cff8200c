"""Batch verification suites behind the ``verify`` subcommand.

Each suite runs the invariants of one module at desk scale and returns a
list of named check results.  A check that trips a resource guard is marked
``skip`` rather than ``fail``; recorded-but-not-asserted observations (the
non-dominant cone cases of the graded-section sweep) are also ``skip``.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import NamedTuple

from . import charalg, fpoly, slnsplit
from .errors import InputError, ResourceLimitError
from .rootdata import build_root_system, parabolic_subset

SUITES = ("rootdata", "charalg", "fpoly", "sln", "full")

# bounds nothing: kept only because recorded reports print weyl_order_cap
DEFAULT_WEYL_ORDER_CAP = 1152


class RunConfig(NamedTuple):
    term_cap: int = charalg.DEFAULT_TERM_CAP
    dim_cap: int = charalg.DEFAULT_DIM_CAP
    weyl_order_cap: int = DEFAULT_WEYL_ORDER_CAP
    enum_cap: int = fpoly.DEFAULT_ENUM_CAP
    seed: int = 0
    rank_cap: int = 3

    def to_json_obj(self) -> dict:
        return self._asdict()


class CheckResult(NamedTuple):
    name: str
    status: str            # "pass" | "fail" | "skip"
    detail: str = ""
    elapsed_s: float = 0.0   # shown in text mode only, never in --json


class Report(NamedTuple):
    command: str
    config: RunConfig
    checks: list[CheckResult]
    elapsed_s: float = 0.0

    @property
    def exit_code(self) -> int:
        return 1 if any(c.status == "fail" for c in self.checks) else 0

    def to_json_obj(self) -> dict:
        # timing is deliberately left out so identical runs serialise identically
        return {
            "command": self.command,
            "config": self.config.to_json_obj(),
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
            "status": "fail" if self.exit_code else "pass",
        }


def _run(checks: list[CheckResult], name: str, fn) -> None:
    # fn returns (ok, detail); ok None records an observation as a skip
    start = time.monotonic()
    try:
        ok, detail = fn()
    except ResourceLimitError as exc:
        status, detail = "skip", f"resource guard: {exc}"
    else:
        status = "skip" if ok is None else "pass" if ok else "fail"
    checks.append(CheckResult(name, status, detail, time.monotonic() - start))


_SMALL_SYSTEMS = ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]
_RANK2_SYSTEMS = ["A1", "A2", "B2", "C2", "G2"]


def _systems(max_rank: int, names=None):
    out = []
    for name in names or _SMALL_SYSTEMS:
        rs = build_root_system(name[0], int(name[1:]))
        if rs.rank <= max_rank:
            out.append(rs)
    return out


# -- rootdata ----------------------------------------------------------------

def suite_rootdata(cfg: RunConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    rng = random.Random(cfg.seed)

    def reflections_permute():
        for rs in _systems(cfg.rank_cap):
            pos = {r.fund for r in rs.positive_roots}
            for i in range(1, rs.rank + 1):
                alpha = rs.simple_root(i).fund
                image = {rs.reflect(i, r.fund) for r in rs.positive_roots}
                if rs.reflect(i, alpha) != tuple(-c for c in alpha):
                    return False, f"{rs}: s_{i} does not negate alpha_{i}"
                if image != (pos - {alpha}) | {tuple(-c for c in alpha)}:
                    return False, f"{rs}: s_{i} does not permute R+ minus alpha_{i}"
        return True, ""

    def unique_dominant_orbit():
        # weyl_orbit walks down from the dominant member, so closure under
        # each public, validating reflect is what tests the walk itself
        for rs in _systems(min(cfg.rank_cap, 3)):
            box = range(-3, 4)
            checked = {}   # least member: (orbit, member set) of each orbit checked
            for lam in itertools.product(box, repeat=rs.rank):
                orbit = rs.weyl_orbit(lam)
                known = checked.get(orbit[0])
                if known is None or known[0] != orbit:
                    # an orbit not seen before, member for member
                    ndom = sum(1 for w in orbit if rs.is_dominant(w))
                    if ndom != 1:
                        return False, f"{rs}: orbit of {lam} has {ndom} dominant members"
                    known = checked[orbit[0]] = orbit, set(orbit)
                    for w in orbit:
                        for i in range(1, rs.rank + 1):
                            if rs.reflect(i, w) not in known[1]:
                                return False, f"{rs}: orbit of {lam} is not closed under s_{i}"
                if lam not in known[1]:
                    return False, f"{rs}: orbit of {lam} misses {lam}"
        return True, ""

    def dot_is_action():
        for rs in _systems(cfg.rank_cap):
            for _ in range(40):
                w1 = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 4))]
                w2 = [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 4))]
                lam = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
                lhs = rs.dot_action(w1, rs.dot_action(w2, lam))
                rhs = rs.dot_action(list(w1) + list(w2), lam)
                if lhs != rhs:
                    return False, f"{rs}: dot action fails on {w1}, {w2}, {lam}"
                if rs.dot_action([], lam) != lam:
                    return False, f"{rs}: empty word moves {lam}"
        return True, ""

    def cone_reduction():
        for rs in _systems(min(cfg.rank_cap, 2), _RANK2_SYSTEMS):
            for lam in itertools.product(range(-1, 3), repeat=rs.rank):
                if not rs.in_cone_c(lam):
                    continue
                for n in range(0, 4):
                    tr = rs.cone_reduce(lam, n)
                    if len(tr.steps) > n + 1:
                        return False, f"{rs}: too many steps for {lam}, {n}"
                    if not all(rs.in_cone_c(w) for w in tr.intermediates):
                        return False, f"{rs}: reduction of {lam} left the cone"
                    if tr.outcome == "dominant":
                        if not rs.is_dominant(tr.dominant_weight) or tr.remaining_degree < 0:
                            return False, f"{rs}: bad dominant outcome for {lam}, {n}"
        return True, ""

    def good_prime_table():
        table = {
            "A2": 2, "B2": 3, "B3": 3, "C2": 3, "C3": 3, "D4": 3,
            "F4": 5, "E6": 5, "E7": 5, "G2": 5, "E8": 7,
        }
        for name, expected in table.items():
            rs = build_root_system(name[0], int(name[1:]))
            if rs.minimal_good_prime() != expected:
                return False, f"{name}: minimal good prime {rs.minimal_good_prime()} != {expected}"
            if not rs.is_good_prime(expected):
                return False, f"{name}: {expected} should be good"
            if any(rs.is_good_prime(q) for q in (2, 3, 5) if q < expected):
                return False, f"{name}: a prime below {expected} should be bad"
        return True, ""

    _run(checks, "rootdata.reflections_permute_positive_roots", reflections_permute)
    _run(checks, "rootdata.orbit_has_unique_dominant", unique_dominant_orbit)
    _run(checks, "rootdata.dot_action_is_group_action", dot_is_action)
    _run(checks, "rootdata.cone_reduction_invariants", cone_reduction)
    _run(checks, "rootdata.good_prime_table", good_prime_table)
    return checks


# -- charalg -----------------------------------------------------------------

def suite_charalg(cfg: RunConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    rng = random.Random(cfg.seed)

    def weyl_invariance():
        # the simple reflections generate W, so invariance under each s_i is
        # invariance under W
        for rs in _systems(min(cfg.rank_cap, 3)):
            simple = range(1, rs.rank + 1)
            for lam in [(0,) * rs.rank, (1,) * rs.rank, (2,) + (0,) * (rs.rank - 1)]:
                ch = charalg.weyl_character(rs, lam, dim_cap=cfg.dim_cap)
                for w, m in ch.items():
                    if any(ch.multiplicity(rs.reflect(i, w)) != m for i in simple):
                        return False, f"{rs}: character of {lam} not W-invariant"
        return True, ""

    def euler_antisymmetry():
        for rs in _systems(min(cfg.rank_cap, 3)):
            for _ in range(25):
                lam = tuple(rng.randint(-5, 4) for _ in range(rs.rank))
                i = rng.randint(1, rs.rank)
                lhs = charalg.euler_char(rs, rs.dot_action([i], lam), dim_cap=cfg.dim_cap)
                rhs = -charalg.euler_char(rs, lam, dim_cap=cfg.dim_cap)
                if lhs != rhs:
                    return False, f"{rs}: Euler reflection fails at {lam}, s_{i}"
        return True, ""

    def koszul_sweep():
        # the symmetric powers depend on (n, i) only: built once for every lam
        for rs in _systems(min(cfg.rank_cap, 2), _RANK2_SYSTEMS):
            for n in range(1, 5):
                for i in range(1, rs.rank + 1):
                    check = charalg._koszul_checker(rs, n, i, cfg.term_cap)
                    for lam in itertools.product(range(-1, 3), repeat=rs.rank):
                        if not check(lam).ok:
                            return False, f"{rs}: reduction identity fails at {lam}, n={n}, i={i}"
        return True, ""

    def filtration_round_trip():
        for rs in _systems(min(cfg.rank_cap, 2), _RANK2_SYSTEMS):
            for _ in range(20):
                picks = {}
                for _ in range(rng.randint(1, 4)):
                    lam = tuple(rng.randint(0, 3) for _ in range(rs.rank))
                    picks[lam] = picks.get(lam, 0) + rng.randint(1, 3)
                total = charalg.Character.zero(rs)
                for lam, m in picks.items():
                    total = total + m * charalg.weyl_character(rs, lam, dim_cap=cfg.dim_cap)
                dec = charalg.decompose_good_filtration(total)
                if not dec.ok or dict(dec.entries) != picks:
                    return False, f"{rs}: round trip fails for {picks}"
        return True, ""

    def truncated_dimensions():
        for rs in _systems(min(cfg.rank_cap, 3)):
            for p in (2, 3):
                ch = charalg.truncated_char(rs, p, term_cap=cfg.term_cap)
                n = rs.num_positive_roots
                top = tuple(2 * (p - 1) for _ in range(rs.rank))
                if ch.dimension() != p**n:
                    return False, f"{rs}, p={p}: dimension {ch.dimension()} != {p**n}"
                if ch.multiplicity(top) != 1:
                    return False, f"{rs}, p={p}: top weight multiplicity != 1"
                if any(not rs.dominance_leq(w, top) for w in ch.mults):
                    return False, f"{rs}, p={p}: weight above 2(p-1)rho"
        return True, ""

    _run(checks, "charalg.weyl_character_invariant", weyl_invariance)
    _run(checks, "charalg.euler_dot_antisymmetry", euler_antisymmetry)
    _run(checks, "charalg.koszul_reduction_sweep", koszul_sweep)
    _run(checks, "charalg.filtration_round_trip", filtration_round_trip)
    _run(checks, "charalg.truncated_kernel_character", truncated_dimensions)

    # graded-section sweep: asserted for dominant weights, recorded otherwise
    for rs in _systems(min(cfg.rank_cap, 2), _RANK2_SYSTEMS):
        n_max = 3 if rs.type_label == "G" else 5
        par = parabolic_subset(rs)
        for lam in itertools.product(range(-1, 3), repeat=rs.rank):
            if not rs.in_cone_c(lam):
                continue
            name = f"charalg.graded_sections[{rs.type_label}{rs.rank},{','.join(map(str, lam))}]"

            def section():
                gs = charalg.graded_section_char(
                    par, lam, n_max, dim_cap=cfg.dim_cap, term_cap=cfg.term_cap
                )
                if rs.is_dominant(lam):
                    detail = "" if gs.all_ok else f"counterexample degrees {gs.counterexamples()}"
                    return gs.all_ok, detail
                outcome = "decomposes" if gs.all_ok else f"fails at {gs.counterexamples()}"
                return None, f"recorded (non-dominant): {outcome}"

            _run(checks, name, section)

    def graded_sections_rank3():
        for name, n_max in (("A3", 4), ("B3", 3), ("C3", 3)):
            par = parabolic_subset(build_root_system(name[0], 3))
            for lam in itertools.product((0, 1), repeat=3):
                gs = charalg.graded_section_char(par, lam, n_max, cfg.dim_cap, cfg.term_cap)
                if not gs.all_ok:
                    return False, f"{name} at {lam}: counterexample degrees {gs.counterexamples()}"
        return True, ""

    if cfg.rank_cap >= 3:
        _run(checks, "charalg.graded_sections_rank3", graded_sections_rank3)
    return checks


# -- fpoly -------------------------------------------------------------------

def _random_poly(rng: random.Random, p: int, variables, max_terms=6, max_exp=6):
    # rng.randint(1, max_terms) terms, each with rng.randint(0, max_exp) per
    # variable and coefficient rng.randint(1, p - 1), drawn by randint's own
    # algorithm without its three frames per draw: randint(a, b) is a plus
    # the first getrandbits(k) below n = b - a + 1, where k = n.bit_length().
    # Each term is keyed in fpoly's one-byte layout as it is drawn; drawn
    # terms need no validation, so they go to fpoly's trusted builder
    if not 0 <= max_exp <= 127:
        raise InputError(f"exponent bound {max_exp} does not fit a one-byte field")
    if max_terms < 1:
        raise InputError(f"term bound {max_terms} is below 1")
    draw = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = draw(k)
        while r >= n:
            r = draw(k)
        return r

    n_exp, k_exp = max_exp + 1, (max_exp + 1).bit_length()
    terms = {}
    for _ in range(1 + below(max_terms)):
        k = 0
        for _ in variables:   # below(n_exp), inlined: most of the draws
            r = draw(k_exp)
            while r >= n_exp:
                r = draw(k_exp)
            k = k << 8 | r
        terms[k] = 1 + below(p - 1)
    return fpoly._settled(p, variables, 1, terms)


def _shift_monomials(rng: random.Random, p: int, variables):
    # beta by rng.randint(0, 2) per variable, and x^(p beta) and x^beta in
    # fpoly's one-byte layout: p times x^beta's key is x^(p beta)'s
    if 2 * p > 127:
        raise InputError(f"exponent 2p = {2 * p} does not fit a one-byte field")
    beta = tuple(rng.randint(0, 2) for _ in variables)
    k = int.from_bytes(beta, "big")
    return beta, *(fpoly._settled(p, variables, 1, {key: 1}) for key in (p * k, k))


def suite_fpoly(cfg: RunConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    rng = random.Random(cfg.seed)
    variables, cap = ("x1", "x2"), cfg.term_cap

    def semilinearity():
        for p in (2, 3, 5):
            for _ in range(100):
                f = _random_poly(rng, p, variables)
                g = _random_poly(rng, p, variables, max_terms=3, max_exp=3)
                h = _random_poly(rng, p, variables, max_terms=3, max_exp=2)
                lhs = fpoly.frobenius_trace(f, h.power(p, cap).mul(g, cap), cap)
                rhs = h.mul(fpoly.frobenius_trace(f, g, cap), cap)
                if lhs != rhs:
                    return False, f"p={p}: semilinearity fails for {f!r}"
        return True, ""

    def additivity():
        for p in (2, 3, 5):
            for _ in range(100):
                f1 = _random_poly(rng, p, variables)
                f2 = _random_poly(rng, p, variables)
                g1 = _random_poly(rng, p, variables)
                g2 = _random_poly(rng, p, variables)
                t11 = fpoly.frobenius_trace(f1, g1, cap)
                if fpoly.frobenius_trace(f1 + f2, g1, cap) != (
                    t11 + fpoly.frobenius_trace(f2, g1, cap)
                ):
                    return False, f"p={p}: additivity in f fails"
                if fpoly.frobenius_trace(f1, g1 + g2, cap) != (
                    t11 + fpoly.frobenius_trace(f1, g2, cap)
                ):
                    return False, f"p={p}: additivity in g fails"
        return True, ""

    def criterion_equivalence():
        for p in (2, 3, 5):
            one = fpoly.SparsePolynomial.constant(p, variables, 1)
            for _ in range(100):
                f = _random_poly(rng, p, variables, max_terms=50, max_exp=2 * p)
                tr = fpoly.frobenius_trace(f, one, cap)
                expected = bool(tr) and tr.is_constant()
                if bool(fpoly.is_splitting_function(f)) != expected:
                    return False, f"p={p}: criterion mismatch for {f!r}"
        return True, ""

    def trace_shift():
        for p in (2, 3, 5):
            for _ in range(100):
                f = _random_poly(rng, p, variables)
                g = _random_poly(rng, p, variables, max_terms=3, max_exp=2)
                beta, mono, shift = _shift_monomials(rng, p, variables)
                lhs = fpoly.frobenius_trace(f, mono.mul(g, cap), cap)
                rhs = shift.mul(fpoly.frobenius_trace(f, g, cap), cap)
                if lhs != rhs:
                    return False, f"p={p}: shift by {beta} fails"
        return True, ""

    _run(checks, "fpoly.trace_semilinearity", semilinearity)
    _run(checks, "fpoly.trace_additivity", additivity)
    _run(checks, "fpoly.criterion_equivalence", criterion_equivalence)
    _run(checks, "fpoly.trace_shift", trace_shift)
    return checks


# -- sln ---------------------------------------------------------------------

def suite_sln(cfg: RunConfig, n: int = 1, p: int = 2) -> list[CheckResult]:
    """The chart checks at one (n, p).  The Borel chart and its homogeneous
    component are built once and shared by the three checks that need them;
    when the build trips a resource guard, those three are skipped, not
    retried.  The splitting criterion is decided on the centre coefficient
    of the minors, and matched against the chart when it was built; the
    homogeneous check compares a directly built component; the canonical
    condition needs only minors."""
    checks: list[CheckResult] = []
    tag = f"[n={n},p={p}]"

    def equivariance():
        ok = slnsplit.springer_equivariance_ok(n, p, term_cap=cfg.term_cap)
        return ok, "" if ok else "conjugation identity fails"

    def invariance_and_degree():
        if not cf.is_t_invariant():
            return False, "a monomial has nonzero weight"
        bound = cf.num_x * (p - 1)
        if cf.max_x_degree() > bound:
            return False, f"fibre degree exceeds {bound}"
        return True, ""

    def splitting():
        _, check = slnsplit.splitting_check(n, p, term_cap=cfg.term_cap)
        if cf is not None and fpoly.is_splitting_function(cf.poly) != check:
            return False, "the chart's verdict differs from the centre coefficient's"
        return check.ok, "" if check.ok else f"witness {check.witness}"

    def homogeneous():
        # the component built alone from the minors of X g^{-1} against the chart's
        if slnsplit.build_mvk_component(n, p, term_cap=cfg.term_cap) != comp:
            return False, "the directly built component differs from the chart's"
        check = fpoly.is_splitting_function(comp.poly)
        return check.ok, "" if check.ok else f"witness {check.witness}"

    def compatibility():
        for subset in itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), r) for r in range(n + 1)
        ):
            res = slnsplit.compat_check(comp, subset, enum_cap=cfg.enum_cap)
            if not res.ok:
                return False, f"subset {subset}: witness {res.witness_exponent}"
        return True, ""

    def canonical():
        res = slnsplit.canonical_check(n, p, term_cap=cfg.term_cap)
        return res.ok, "" if res.ok else str(res.directions)

    def parabolic():
        for i in range(1, n + 1):
            _, check = slnsplit.splitting_check(n, p, [i], term_cap=cfg.term_cap)
            if not check.ok:
                return False, f"I={{{i}}}: witness {check.witness}"
        return True, ""

    _run(checks, f"sln.springer_equivariance{tag}", equivariance)
    try:
        cf = slnsplit.build_chart_function(n, p, term_cap=cfg.term_cap)
    except ResourceLimitError as exc:
        cf, refused = None, f"resource guard: {exc}"
    else:
        comp, refused = slnsplit.mvk_component(cf), None
    for name, fn, on_chart in [
        ("weight_zero_and_degree_bound", invariance_and_degree, True),
        ("splitting_criterion", splitting, False),
        ("homogeneous_component", homogeneous, True),
        ("parabolic_compatibility", compatibility, True),
        ("canonical_condition", canonical, False),
        ("parabolic_splitting", parabolic, False),
    ]:
        if on_chart and refused:
            checks.append(CheckResult(f"sln.{name}{tag}", "skip", refused))
        else:
            _run(checks, f"sln.{name}{tag}", fn)
    return checks


def run_suite(name: str, cfg: RunConfig, n: int = 1, p: int = 2) -> Report:
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    start = time.monotonic()
    checks: list[CheckResult] = []
    if name in ("rootdata", "full"):
        checks.extend(suite_rootdata(cfg))
    if name in ("charalg", "full"):
        checks.extend(suite_charalg(cfg))
    if name in ("fpoly", "full"):
        checks.extend(suite_fpoly(cfg))
    if name in ("sln", "full"):
        checks.extend(suite_sln(cfg, n=n, p=p))
    return Report(
        command=f"verify {name}",
        config=cfg,
        checks=checks,
        elapsed_s=time.monotonic() - start,
    )
