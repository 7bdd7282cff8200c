"""Case families of the four workloads and the seeded draw.

A family is a list of strata.  A stratum holds cases of one kind and of
about the same cost: inputs related by a diagram automorphism or by B/C
duality, or cases adjacent in cost.  A run draws one case from every
stratum and shuffles their order, both from the workload seed, and keeps a
draw whose reference time is close to the family's expected total, so every
seed runs a different list of about the same work.  The seed is never
handed to flagsplit: verify cases always pass ``--seed 0``, so every case
has one recorded output.
"""

from __future__ import annotations

import random
import statistics

WORKLOADS = ("sections", "charts", "checks", "weyl")

BALANCE = 0.02
DRAW_TRIES = 1000

# Each family is laid out as strata above, a middle cluster of three or
# five strata of about equal cost, and as many strata below: the median
# case time is then the middle of that cluster whichever cases are drawn,
# not one case's time at a steep point of the cost curve.

# `filt X --weight l --max-degree d` for every X in {A1, A2, B2, C2, G2} and
# every l in [-1, 2]^rank inside the cone C, d = 5 (G2: 3): the sweep of
# `verify charalg`, 59 cases.  B2 (a,b) and C2 (b,a) are twins, as are A2
# (a,b) and (b,a); the other strata are runs of the sweep sorted by time.
SECTIONS = [
    [("C2", (2, 2)), ("B2", (2, 2)), ("G2", (2, 2)), ("C2", (1, 2)), ("B2", (2, 1))],
    [("B2", (1, 2)), ("C2", (2, 1)), ("G2", (2, 1)), ("A2", (2, 2)), ("C2", (1, 1))],
    [("G2", (1, 2)), ("B2", (2, 0)), ("B2", (1, 1)), ("C2", (0, 2))],
    # middle cluster
    [("A2", (2, 1)), ("A2", (1, 2))],
    [("B2", (0, 2)), ("C2", (2, 0))],
    [("G2", (2, 0))],
    [("B2", (1, 0)), ("C2", (0, 1))],
    [("B2", (0, 1)), ("C2", (1, 0))],
    # below the cluster
    [("G2", (1, 1)), ("A2", (0, 2)), ("C2", (-1, 2)), ("A2", (2, 0)), ("G2", (0, 2)),
     ("B2", (2, -1)), ("A2", (1, 1)), ("G2", (1, 0)), ("A2", (1, 0)), ("C2", (2, -1)),
     ("B2", (-1, 2)), ("A2", (0, 1))],
    [("G2", (2, -1)), ("B2", (0, 0)), ("C2", (0, 0)), ("C2", (-1, 1)), ("A2", (2, -1)),
     ("B2", (1, -1)), ("A2", (-1, 2)), ("A2", (0, 0)), ("G2", (0, 1)), ("A2", (1, -1)),
     ("A2", (-1, 1)), ("B2", (-1, 1))],
    [("C2", (1, -1)), ("G2", (1, -1)), ("A2", (-1, 0)), ("G2", (0, 0)), ("C2", (-1, 0)),
     ("B2", (0, -1)), ("A2", (0, -1)), ("G2", (-1, 2)), ("A1", (2,)), ("A1", (0,)),
     ("A1", (1,)), ("A1", (-1,))],
]

CHART_SIZES = [(2, 2), (2, 3), (2, 5), (2, 7), (2, 11), (2, 13), (3, 2), (3, 3), (4, 2)]


def _w(weight) -> str:
    return ",".join(str(c) for c in weight)


def _sections() -> list[list[tuple[str, ...]]]:
    return [
        [("filt", x, "--weight", _w(lam), "--max-degree", "3" if x == "G2" else "5")
         for x, lam in stratum]
        for stratum in SECTIONS
    ]


def _sln(action: str, n: int, p: int, *rest: str) -> tuple[str, ...]:
    return ("sln", action, "--n", str(n), "--p", str(p), *rest)


def _charts() -> list[list[tuple[str, ...]]]:
    # `sln check`, `sln mvk` and `sln parabolic --subset i` for every size in
    # CHART_SIZES, 40 cases.  The (4,2) charts are their own strata: they
    # hold the largest products and the peak memory.
    tiny_parabolic = [_sln("parabolic", n, p, "--subset", str(i))
                      for n, p in CHART_SIZES if n == 2 or (n, p) == (3, 2)
                      for i in range(1, n + 1)]
    return [
        [_sln("mvk", 4, 2)],
        [_sln("check", 4, 2)],
        [_sln("check", 2, 13), _sln("mvk", 2, 13)],
        [_sln("parabolic", 4, 2, "--subset", str(i)) for i in range(1, 5)],
        # middle cluster
        [_sln("check", 2, 11)],
        [_sln("check", 3, 3)],
        [_sln("mvk", 3, 3)],
        # below the cluster
        [*(_sln("parabolic", 3, 3, "--subset", str(i)) for i in range(1, 4)),
         _sln("check", 2, 7), _sln("mvk", 2, 7), _sln("mvk", 2, 11)],
        [_sln("check", 3, 2), _sln("mvk", 3, 2), _sln("check", 2, 5), _sln("mvk", 2, 5)],
        [_sln("check", 2, 2), _sln("mvk", 2, 2), _sln("check", 2, 3), _sln("mvk", 2, 3)],
        tiny_parabolic,
    ]


def _compat(n: int, p: int, *subsets: str) -> list[tuple[str, ...]]:
    return [_sln("mvk", n, p, "--compat", s) for s in subsets]


def _checks() -> list[list[tuple[str, ...]]]:
    # `sln mvk --compat I` for every nonempty I at (2,3), (2,5), (3,2);
    # `sln canonical` at (2,5), (2,7), (3,2); `verify sln` at (2,5), (3,2);
    # `verify fpoly`: 19 cases.
    return [
        [("verify", "sln", "--n", "3", "--p", "2", "--seed", "0")],
        [("verify", "sln", "--n", "2", "--p", "5", "--seed", "0")],
        [_sln("canonical", 2, 7)],
        _compat(2, 5, "1", "2", "1,2"),
        _compat(3, 2, "1,2,3"),
        # middle cluster
        _compat(3, 2, "1,2"),
        _compat(3, 2, "2,3"),
        _compat(3, 2, "1,3"),
        # below the cluster
        _compat(3, 2, "1", "3"),
        _compat(3, 2, "2"),
        [("verify", "fpoly", "--seed", "0")],
        [_sln("canonical", 2, 5), _sln("canonical", 3, 2)],
        _compat(2, 3, "1", "2", "1,2"),
    ]


def _weyl() -> list[list[tuple[str, ...]]]:
    # `char weyl` on rank 4-8 weights, `char trunc` on rank 3-4 and
    # `verify rootdata`: 17 cases.  Members of a stratum are images of each
    # other under a diagram automorphism or B/C duality, or of equal cost.
    def weyl(x, *lam):
        return ("char", "weyl", x, "--weight", _w(lam))

    return [
        [weyl("E8", 0, 0, 0, 0, 0, 0, 0, 1)],
        [weyl("E7", 0, 0, 1, 0, 0, 0, 0)],
        [("verify", "rootdata", "--seed", "0")],
        [weyl("E7", 1, 0, 0, 0, 0, 0, 1), weyl("E6", 1, 1, 0, 0, 0, 1),
         weyl("E6", 0, 0, 0, 1, 1, 1)],
        # middle cluster
        [weyl("A5", 2, 1, 1, 1, 1), weyl("A5", 1, 1, 1, 1, 2)],
        [("char", "trunc", "B3", "--p", "5"), ("char", "trunc", "C3", "--p", "5")],
        [("char", "trunc", "D4", "--p", "3")],
        # below the cluster
        [weyl("F4", 1, 1, 0, 0)],
        [weyl("B4", 1, 1, 1, 1)],
        [weyl("C4", 1, 1, 1, 1)],
        [weyl("D4", 2, 1, 1, 1), weyl("D4", 1, 1, 2, 1), weyl("D4", 1, 1, 1, 2)],
    ]


FAMILIES = {"sections": _sections, "charts": _charts, "checks": _checks, "weyl": _weyl}


def family(workload: str) -> list[list[tuple[str, ...]]]:
    """Strata of the workload; every case ends in ``--json``."""
    return [[case + ("--json",) for case in stratum] for stratum in FAMILIES[workload]()]


def all_cases() -> list[tuple[str, ...]]:
    return [case for w in WORKLOADS for stratum in family(w) for case in stratum]


def draw(workload: str, seed: int, ref_s: dict[str, float]) -> list[tuple[str, ...]]:
    """One case from every stratum, in an order, both fixed by the seed.

    Among the first draws, take one whose reference time (``ref_s``, by
    case id) is within BALANCE of the family's expected total, so that
    seeds differ in their cases and not in how much work they hold.
    """
    rng = random.Random(f"{workload}:{seed}")
    strata = family(workload)
    target = sum(statistics.fmean(ref_s[case_id(c)] for c in s) for s in strata)
    best, best_gap = None, None
    for _ in range(DRAW_TRIES):
        cases = [rng.choice(s) for s in strata]
        gap = abs(sum(ref_s[case_id(c)] for c in cases) - target) / target
        if best is None or gap < best_gap:
            best, best_gap = cases, gap
        if gap <= BALANCE:
            break
    rng.shuffle(best)
    return best


def case_id(case: tuple[str, ...]) -> str:
    return " ".join(case)
