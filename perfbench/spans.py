"""Spans and counters wrapped around flagsplit's public functions.

The wrappers live here, in the benchmark, so the program itself is
unchanged.  Each wrapped call is one span.  Spans are aggregated in memory
as they close: per name, a call count, the self time (span duration minus
the time covered by its child spans) and the named sizes.  Holding
aggregates instead of span records keeps memory flat on cases that make
millions of calls.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

MODULES = ("rootdata", "charalg", "fpoly", "slnsplit", "verify", "cli")

# Methods wrapped as spans, with the span name they report under.  The
# remaining methods (reflect, pairing, coefficient, ...) are leaf helpers
# whose per-call cost is close to a wrapper's own.
METHODS = {
    "rootdata": {
        "RootSystem": {
            "weyl_orbit": "weyl_orbit",
            "make_dominant": "make_dominant",
            "to_simple_coords": "to_simple_coords",
            "dot_action": "dot_action",
        },
    },
    "fpoly": {
        "SparsePolynomial": {
            "mul": "mul",
            "__add__": "add",
            "__pow__": "pow",
            "substitute": "substitute",
        },
    },
}

# Private functions traced under a public name.  Every chart, Borel or
# parabolic, is built by _build_chart, so its calls count chart builds.
PRIVATE = {"slnsplit": {"_build_chart": "build_chart"}}


def _weyl_character_sizes(stats, args, kwargs, result):
    rs = args[0] if args else kwargs["rs"]
    lam = args[1] if len(args) > 1 else kwargs["lam"]
    stats.distinct.add((rs.type_label, rs.rank, tuple(lam)))


def _decompose_sizes(stats, args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    stats.sizes["support_in"] += len(c.mults)
    stats.sizes["entries_out"] += len(result.entries)


def _orbit_sizes(stats, args, kwargs, result):
    stats.sizes["weights_out"] += len(result)


def _mul_sizes(stats, args, kwargs, result):
    other = args[1] if len(args) > 1 else kwargs["other"]
    stats.sizes["term_pairs"] += len(args[0].terms) * len(other.terms)
    stats.sizes["terms_out"] += len(result.terms)


def _compat_sizes(stats, args, kwargs, result):
    # The enumeration walks flat indices 0.. in order and stops at the first
    # failing exponent, so its length follows from the witness.
    f = args[0] if args else kwargs["f"]
    if result.witness_exponent is None:
        stats.sizes["exponents_enumerated"] += f.p ** len(f.variables)
    else:
        flat = sum(x * f.p**i for i, x in enumerate(result.witness_exponent))
        stats.sizes["exponents_enumerated"] += flat + 1


def _chart_sizes(stats, args, kwargs, result):
    stats.distinct.add(tuple(args[:3]))
    stats.sizes["terms_out"] += result.poly.term_count()


SIZERS = {
    "charalg.weyl_character": (_weyl_character_sizes, ()),
    "charalg.decompose_good_filtration": (_decompose_sizes, ("support_in", "entries_out")),
    "rootdata.weyl_orbit": (_orbit_sizes, ("weights_out",)),
    "fpoly.mul": (_mul_sizes, ("term_pairs", "terms_out")),
    "fpoly.splits_ideal_compatibly": (_compat_sizes, ("exponents_enumerated",)),
    "slnsplit.build_chart": (_chart_sizes, ("terms_out",)),
}


class SpanStats:
    __slots__ = ("calls", "self_s", "sizes", "distinct")

    def __init__(self, size_names=()):
        self.calls = 0
        self.self_s = 0.0
        self.sizes = dict.fromkeys(size_names, 0)
        self.distinct: set = set()


class Tracer:
    """Installs span wrappers into the loaded flagsplit modules."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        # one open frame per active span: [time covered by its children];
        # the bottom frame collects the time of top-level spans
        self._stack: list[list[float]] = [[0.0]]
        self.originals: dict[int, object] = {}

    def _wrap(self, name: str, fn):
        sizer, size_names = SIZERS.get(name, (None, ()))
        stats = self.stats[name] = SpanStats(size_names)
        stack = self._stack

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
            if sizer is not None:
                sizer(stats, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        self.originals[id(fn)] = fn
        return span

    def install(self) -> None:
        """Wrap every public function of MODULES, the METHODS and PRIVATE,
        then rebind each reference that any flagsplit module holds."""
        replaced: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[f"flagsplit.{short}"]
            for attr, value in list(vars(mod).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    replaced[id(value)] = self._wrap(f"{short}.{attr}", value)
            for attr, public in PRIVATE.get(short, {}).items():
                value = getattr(mod, attr)
                replaced[id(value)] = self._wrap(f"{short}.{public}", value)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for attr, public in methods.items():
                    setattr(cls, attr, self._wrap(f"{short}.{public}", vars(cls)[attr]))
        for mod in flagsplit_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and self._is_original(value):
                    setattr(mod, attr, wrapper)

    def _is_original(self, value) -> bool:
        return self.originals.get(id(value), self) is value

    def unwrapped_references(self) -> list[str]:
        """Names under which a flagsplit module still holds a wrapped
        function's original object; empty after a complete install."""
        left = []
        for mod in flagsplit_modules():
            for attr, value in vars(mod).items():
                if self._is_original(value):
                    left.append(f"{mod.__name__}.{attr}")
            for cls in vars(mod).values():
                if isinstance(cls, type) and cls.__module__ == mod.__name__:
                    for attr, value in vars(cls).items():
                        if self._is_original(value):
                            left.append(f"{mod.__name__}.{cls.__name__}.{attr}")
        return left

    def snapshot(self) -> dict[str, dict]:
        return {
            name: {
                "calls": s.calls,
                "self_s": s.self_s,
                "distinct": len(s.distinct),
                **s.sizes,
            }
            for name, s in self.stats.items()
        }


def flagsplit_modules() -> list[types.ModuleType]:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "flagsplit" or name.startswith("flagsplit."))
    ]
