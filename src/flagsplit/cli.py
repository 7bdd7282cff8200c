"""Command-line front end.

Subcommands: rs, weight, char, filt, g1, poly, sln, verify.  Exit codes:
0 when the requested property holds (or the report is clean), 1 when a
checked property fails, 2 for usage or input errors.  With ``--json`` the
output is a single deterministic JSON document (stable key order, no
timing fields), so identical inputs and seed produce identical bytes.
"""

from __future__ import annotations

import json
import sys
import types
from functools import partial, reduce
from json.encoder import encode_basestring_ascii as _escape
from operator import or_
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from . import charalg, fpoly, slnsplit, verify
from .errors import InputError, InvariantError, ResourceLimitError
from .rootdata import parabolic_subset, parse_system

if TYPE_CHECKING:
    import argparse

# flags whose values may start with "-" (e.g. --weight -1,1); merged into
# --flag=value before argparse sees them
_VALUE_FLAGS = {"--weight", "--word", "--parabolic", "--subset", "--ideal", "--compat"}


def _preprocess(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse integer list {text!r}") from exc


_BLOCK = 2048   # records per join


def _texts(values: set, template: str, shifts: list, mask: int, bias: int) -> dict:
    # value -> template % its numbers: for each shift, the value's bits from
    # that shift up, masked and less bias.  One % format for all the values,
    # split at NULs, which no template holds (json escapes them)
    numbers = tuple([(v >> s & mask) - bias for v in values for s in shifts])
    return dict(zip(values, ("\0".join([template] * len(values)) % numbers).split("\0")))


def _columns(value: str, key: str, bits: int, spans: Sequence[int], nl: str) -> tuple:
    """(head, columns) for records of fields of ``bits`` bits at ``nl``, whose
    values use ``spans[i]`` bits in field i: the template of a record's value,
    and for each column of the key its shift and mask, the shifts of its
    fields in it and its template; the last one ends the record.  A column
    holds as many whole fields as fit in 8 bits of their values, or one
    wider field, so it takes at most 256 values."""
    n = len(spans)
    inner = nl + "  "
    head = ",%s{%s  %s: %%d,%s  %s: [" % (inner, inner, _escape(value), inner, _escape(key))
    tail = (inner + "  " if n else "") + "]" + inner + "}"
    groups: list = []
    for i, span in enumerate(spans):
        if groups and used + span <= 8:
            groups[-1].append(i)
            used += span
        else:
            groups.append([i])
            used = span
    ends = [""] * (len(groups) - 1) + [tail]
    columns = []
    for at, end in zip(groups, ends):
        low = bits * (n - 1 - at[-1])
        columns.append((low, (1 << bits * len(at)) - 1, [bits * (n - 1 - i) - low for i in at],
                        "".join(("," if i else "") + inner + "    %d" for i in at) + end))
    return head + ("" if n else tail), columns


def _record_blocks(table: dict, value: str, key: str, bits: int, spans: Sequence[int],
                   bias: int, nl: str) -> Iterator[str]:
    """json's text of the records {value: table[k], key: [f1, ..., fn]} of a
    packed table (character entries, polynomial terms), one per key in key
    order, at the line whose newline and indent are ``nl``.  Each key holds
    n = len(spans) fields of ``bits`` bits, f1 in the most significant, each
    read as its bits minus bias; no key sets a bit of field i above its
    lowest ``spans[i]``.  ``value`` sorts before ``key``, the order json's
    sort_keys writes.  The records are written ``_BLOCK`` at a time from the
    sorted keys, and no piece holds more than one block.

    A record is the text of its value, then one text per column of its key.
    A text holds json's layout around its numbers and is built once per
    value that occurs in its column in the block; the spans only decide how
    fields are grouped into columns, never what is written."""
    head, columns = _columns(value, key, bits, spans, nl)
    field = (1 << bits) - 1
    stride = len(columns) + 1
    keys = sorted(table)   # int order is the order of the fields
    for start in range(0, len(keys), _BLOCK):
        block = keys[start:start + _BLOCK]
        out = [""] * (stride * len(block))
        col = list(map(table.__getitem__, block))
        out[::stride] = map(_texts(set(col), head, [0], -1, 0).__getitem__, col)
        for c, (low, mask, shifts, template) in enumerate(columns, 1):
            col = [k >> low & mask for k in block]
            out[c::stride] = map(_texts(set(col), template, shifts, field, bias).__getitem__, col)
            # a column of several fields holds ints above the cached small
            # ones: free them before the next column's are made
            del col
        if not start:
            out[0] = "[" + out[0][1:]
        yield "".join(out)
    yield nl + "]" if keys else "[]"


def _emit(obj, lines: Callable[[], Iterable[str]], as_json: bool) -> None:
    """Print ``lines()`` one at a time, or with ``as_json`` the document
    ``json.dumps(obj, sort_keys=True, indent=2)``, where a packed table is a
    ``partial`` of ``_record_blocks`` that stands for its list of records.

    json hands the tables to ``default`` in document order and writes each
    as ``-Infinity``.  No document holds a float and no JSON string a raw
    newline, so a ``-Infinity`` followed by a newline or by a comma and a
    newline is a table, and any other is text inside a string.  The rest of
    the document is held whole; each table is streamed in its place."""
    if not as_json:
        for line in lines():
            print(line)
        return
    tables: list = []
    text = json.dumps(obj, sort_keys=True, indent=2,
                      default=lambda table: tables.append(table) or float("-inf"))
    head, *chunks = (text + "\n").split("-Infinity")
    markers = sum(chunk.startswith(("\n", ",\n")) for chunk in chunks)
    if markers != len(tables):
        raise InvariantError(f"{markers} -Infinity markers for {len(tables)} tables in --json")
    pending = iter(tables)
    for chunk in chunks:
        if not chunk.startswith(("\n", ",\n")):   # text inside a string
            head += "-Infinity" + chunk
            continue
        line = head.rpartition("\n")[2]
        sys.stdout.write(head)
        sys.stdout.writelines(next(pending)("\n" + " " * (len(line) - len(line.lstrip(" ")))))
        head = chunk
    sys.stdout.write(head)


def _char_rows(ch: charalg.Character) -> partial:
    # ch.to_json_obj()'s entries, written from its packed table; every field
    # counts at its full width
    p = ch.packing
    bits = p.mask.bit_length()
    return partial(_record_blocks, ch.packed, "mult", "weight", bits, [bits] * ch.rs.rank, p.bias)


def _poly_obj(f: fpoly.SparsePolynomial) -> dict:
    # fpoly.poly_to_json_obj(f) with its terms written from its packed table.
    # The OR of all keys has, in each field, the bit length of its largest
    # exponent: the bits that field's values use
    fold = f._fields()[1](reduce(or_, f.packed, 0))
    return fpoly.poly_to_json_obj(f, partial(_record_blocks, f.packed, "c", "e", 8 * f.width,
                                             [x.bit_length() for x in fold], 0))


def _char_lines(ch: charalg.Character) -> Iterator[str]:
    for w, m in ch.items():
        yield f"  {list(w)}  x{m}"
    yield f"  dimension {ch.dimension()}"


def _cap(text: str) -> int:
    # a resource cap is a positive int; --seed takes any int
    if int(text) < 1:
        import argparse

        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


_cap.__name__ = "int"  # argparse's message for a non-integer: "invalid int value"

# the common flags that take a value, with their types and their defaults on the root parser
_COMMON_VALUE_FLAGS = {
    "--seed": (int, 0),
    "--term-cap": (_cap, charalg.DEFAULT_TERM_CAP),
    "--dim-cap": (_cap, charalg.DEFAULT_DIM_CAP),
    "--weyl-cap": (_cap, verify.DEFAULT_WEYL_ORDER_CAP),
    "--enum-cap": (_cap, fpoly.DEFAULT_ENUM_CAP),
}


def _common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # placed on the root parser (with real defaults) and on every leaf
    # subparser (with SUPPRESS), so the flags are accepted in both positions
    import argparse

    parser.add_argument("--json", action="store_true",
                        **({"default": argparse.SUPPRESS} if suppress else {}),
                        help="machine-readable output")
    for flag, (kind, default) in _COMMON_VALUE_FLAGS.items():
        parser.add_argument(flag, type=kind, default=argparse.SUPPRESS if suppress else default)


_SYSTEM = ("system", {})
_WEIGHT = ("--weight", {"required": True})
_FILE = ("--file", {"required": True})
_REQUIRED_INT = {"type": int, "required": True}
_N_P = [("--n", _REQUIRED_INT), ("--p", _REQUIRED_INT)]

# command -> (help, arguments of its leaf) or (help, {action: arguments});
# every leaf also takes the common flags
_COMMANDS = {
    "rs": ("root-system data", {"show": [_SYSTEM]}),
    "weight": ("weight operations", {"reduce": [_SYSTEM, _WEIGHT, ("--degree", _REQUIRED_INT)]}),
    "char": ("character computations", {
        "weyl": [_SYSTEM, _WEIGHT],
        "euler": [_SYSTEM, _WEIGHT],
        "sym": [_SYSTEM, ("--degree", _REQUIRED_INT), ("--parabolic", {"default": ""})],
        "ext": [_SYSTEM, ("--j", _REQUIRED_INT)],
        "trunc": [_SYSTEM, ("--p", _REQUIRED_INT)],
    }),
    "filt": ("graded sections with decompositions",
             [_SYSTEM, _WEIGHT, ("--max-degree", _REQUIRED_INT), ("--parabolic", {"default": ""})]),
    "g1": ("Frobenius-kernel cohomology characters",
           [_SYSTEM, ("--word", {"default": ""}), _WEIGHT, ("--p", _REQUIRED_INT),
            ("--max-i", {"type": int, "default": 6})]),
    "poly": ("polynomial splitting checks", {
        "check": [_FILE],
        "trace": [_FILE, ("--times", {"required": True}), ("--out", {})],
        "compat": [_FILE, ("--ideal", {"required": True})],
    }),
    "sln": ("type-A chart splittings", {
        "build": [*_N_P, ("--out", {})],
        "check": _N_P,
        "mvk": [*_N_P, ("--compat", {"default": ""})],
        "canonical": _N_P,
        "parabolic": [*_N_P, ("--subset", {"required": True})],
    }),
    "verify": ("batch invariant suites",
               [("suite", {"choices": verify.SUITES}), ("--n", {"type": int, "default": 1}),
                ("--p", {"type": int, "default": 2}), ("--rank-cap", {"type": _cap, "default": 3})]),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole parser tree: help, usage errors and what ``_direct`` declines."""
    import argparse   # only here and for errors: a plain argv never loads it

    parser = argparse.ArgumentParser(
        prog="flagsplit",
        description="Exact root-system, character and Frobenius-splitting checks.",
    )
    _common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, body) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        if isinstance(body, dict):
            actions = command.add_subparsers(dest="action", required=True)
            leaves = [(actions.add_parser(act), arguments) for act, arguments in body.items()]
        else:
            leaves = [(command, body)]
        for leaf, arguments in leaves:
            _common_flags(leaf, suppress=True)
            for arg, kwargs in arguments:
                leaf.add_argument(arg, **kwargs)
    return parser


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _direct(argv: list[str]) -> Optional[types.SimpleNamespace]:
    """``build_parser().parse_args(argv)`` for a plain argv (README), read
    straight from ``_COMMANDS``; None for help, an abbreviated or misplaced
    flag, a missing or bad value: the whole tree parses those."""
    args = {"json": False, **{_dest(f): d for f, (_, d) in _COMMON_VALUE_FLAGS.items()}}
    flags = {f: {"type": kind} for f, (kind, _) in _COMMON_VALUE_FLAGS.items()}
    words, leaf, given = [], None, set()
    tokens = iter(argv)
    for tok in tokens:
        if not tok.startswith("-"):
            words.append(tok)
        elif words and leaf is None:
            return None   # a flag between command and action
        elif tok == "--json":
            args["json"] = True
        else:
            flag, eq, value = tok.partition("=")
            value = value if eq else next(tokens, "--")   # no value reads as "--": refused
            if flag not in flags or value == "--" or (not eq and value.startswith("-")):
                return None
            try:
                args[_dest(flag)] = flags[flag].get("type", str)(value)
            except Exception:   # int's ValueError or _cap's ArgumentTypeError
                return None
            given.add(flag)
        if leaf is None and words:   # the command, then its action if it has actions
            body = _COMMANDS[words[0]][1] if words[0] in _COMMANDS else None
            if isinstance(body, dict) and len(words) == 1:
                continue
            if isinstance(body, dict):
                args["action"], body = words[1], body.get(words[1])
            if body is None:
                return None
            args["command"], leaf, start = words[0], body, len(words)
            for name, kwargs in leaf:
                flags[name] = kwargs
                args[_dest(name)] = kwargs.get("default")
    positionals = [(name, kwargs) for name, kwargs in leaf or () if not name.startswith("-")]
    if leaf is None or len(words) - start != len(positionals) or any(
            kwargs.get("required") and name not in given for name, kwargs in leaf):
        return None
    for (name, kwargs), value in zip(positionals, words[start:]):
        if value not in kwargs.get("choices", [value]):
            return None
        args[name] = value
    return types.SimpleNamespace(**args)


def _parse_args(argv: list[str]) -> types.SimpleNamespace:
    # the whole tree; argparse drops a "--" value (--weight=--), leaving []
    parser = build_parser()
    args = parser.parse_args(argv, types.SimpleNamespace())
    for dest, value in vars(args).items():
        if value == []:
            parser.error(f"argument --{dest.replace('_', '-')}: expected one argument")
    return args


# -- handlers -----------------------------------------------------------------

def _cmd_rs(args) -> int:
    rs = parse_system(args.system)
    obj = {
        "type": rs.type_label,
        "rank": rs.rank,
        "N": rs.num_positive_roots,
        "coxeter_number": rs.coxeter_number,
        "rho": list(rs.rho),
        "cartan": [list(row) for row in rs.cartan],
        "symmetrizers": list(rs.symmetrizers),
        "highest_root": list(rs.highest_root.simple),
        "bad_primes": list(rs.bad_primes),
        "min_good_prime": rs.minimal_good_prime(),
        "positive_roots": [
            {"simple": list(r.simple), "fund": list(r.fund), "coroot": list(r.coroot)}
            for r in rs.positive_roots
        ],
    }

    def lines() -> Iterator[str]:
        yield (f"{rs.type_label}{rs.rank}: {rs.num_positive_roots} positive roots, "
               f"Coxeter number {rs.coxeter_number}")
        yield f"rho = {list(rs.rho)}"
        yield f"good primes: p >= {rs.minimal_good_prime()} (bad: {list(rs.bad_primes) or 'none'})"
        yield "positive roots (simple | fundamental):"
        for r in rs.positive_roots:
            yield f"  {list(r.simple)} | {list(r.fund)}"

    _emit(obj, lines, args.json)
    return 0


def _cmd_weight_reduce(args) -> int:
    rs = parse_system(args.system)
    lam = _parse_ints(args.weight)
    trace = rs.cone_reduce(lam, args.degree)
    obj = {
        "type": rs.type_label,
        "rank": rs.rank,
        "weight": list(lam),
        "degree": args.degree,
        "steps": list(trace.steps),
        "intermediates": [list(w) for w in trace.intermediates],
        "outcome": trace.outcome,
    }
    if trace.outcome == "dominant":
        obj["dominant_weight"] = list(trace.dominant_weight)
        obj["remaining_degree"] = trace.remaining_degree

    def lines() -> Iterator[str]:
        if trace.outcome == "dominant":
            yield (f"Dominant({list(trace.dominant_weight)}, {trace.remaining_degree}) "
                   f"via steps {list(trace.steps)}")
        else:
            yield f"AllCohomologyVanishes via steps {list(trace.steps)}"

    _emit(obj, lines, args.json)
    return 0


def _cmd_char(args) -> int:
    rs = parse_system(args.system)
    if args.action == "weyl":
        ch = charalg.weyl_character(rs, _parse_ints(args.weight), dim_cap=args.dim_cap)
    elif args.action == "euler":
        ch = charalg.euler_char(rs, _parse_ints(args.weight), dim_cap=args.dim_cap)
    elif args.action == "sym":
        par = parabolic_subset(rs, _parse_ints(args.parabolic))
        ch = charalg.sym_power_char(par, args.degree, term_cap=args.term_cap)
    elif args.action == "ext":
        ch = charalg.exterior_power_char(rs, args.j, term_cap=args.term_cap)
    else:
        ch = charalg.truncated_char(rs, args.p, term_cap=args.term_cap)
    obj = {
        "type": rs.type_label,
        "rank": rs.rank,
        "action": args.action,
        "character": _char_rows(ch),
        "dimension": ch.dimension(),
    }
    _emit(obj, lambda: _char_lines(ch), args.json)
    return 0


def _cmd_filt(args) -> int:
    rs = parse_system(args.system)
    par = parabolic_subset(rs, _parse_ints(args.parabolic))
    lam = _parse_ints(args.weight)
    gs = charalg.graded_section_char(
        par, lam, args.max_degree, dim_cap=args.dim_cap, term_cap=args.term_cap
    )
    degrees = []
    for (n, ch), (_, dec) in zip(gs.graded.pieces, gs.decompositions):
        degrees.append(
            {
                "degree": n,
                "character": _char_rows(ch),
                "dimension": ch.dimension(),
                "decomposition": dec.to_json_obj(),
            }
        )
    obj = {
        "type": rs.type_label,
        "rank": rs.rank,
        "weight": list(lam),
        "parabolic": sorted(par.subset),
        "degrees": degrees,
        "all_ok": gs.all_ok,
    }

    def lines() -> Iterator[str]:
        for d in degrees:
            dec = d["decomposition"]
            summary = (
                " + ".join(f"{e['mult']}*H0({e['lambda']})" for e in dec["entries"])
                if dec["ok"] else f"FAILS at {dec['failure_weight']} x{dec['failure_mult']}"
            )
            yield f"degree {d['degree']}: dim {d['dimension']} = {summary or '0'}"
        yield "all degrees decompose" if gs.all_ok else "counterexample found"

    _emit(obj, lines, args.json)
    return 0 if gs.all_ok else 1


def _cmd_g1(args) -> int:
    rs = parse_system(args.system)
    word = _parse_ints(args.word)
    lam = _parse_ints(args.weight)
    table = charalg.g1_cohomology_char(
        rs, word, lam, args.p, i_max=args.max_i,
        dim_cap=args.dim_cap, term_cap=args.term_cap,
    )
    obj = {
        "type": rs.type_label,
        "rank": rs.rank,
        "word": list(word),
        "weight": list(lam),
        "p": args.p,
        "cohomology": [
            {"i": i, "character": _char_rows(ch), "dimension": ch.dimension()}
            for i, ch in sorted(table.items())
        ],
    }
    _emit(obj, lambda: (
        f"H^{i}: dim {ch.dimension()}" for i, ch in sorted(table.items())
    ), args.json)
    return 0


def _cmd_poly(args) -> int:
    if args.action == "check":
        f = fpoly.load_poly(args.file)
        res = fpoly.is_splitting_function(f)
        obj = {"splitting": res.ok}
        if res.witness is not None:
            obj["witness"] = list(res.witness)
        _emit(obj, lambda: [
            "splitting" if res.ok else f"not a splitting; witness {res.witness}"
        ], args.json)
        return 0 if res.ok else 1
    if args.action == "trace":
        f = fpoly.load_poly(args.file)
        g = fpoly.load_poly(args.times)
        out = fpoly.frobenius_trace(f, g, term_cap=args.term_cap)
        if args.out:
            fpoly.save_poly(out, args.out)
        obj = _poly_obj(out)
        _emit(obj, lambda: [repr(out)], args.json or not args.out)
        return 0
    f = fpoly.load_poly(args.file)
    ideal = fpoly.VariableIdeal.from_names(f, args.ideal.split(","))
    res = fpoly.splits_ideal_compatibly(f, ideal, enum_cap=args.enum_cap)
    obj = {"compatible": res.ok}
    if res.witness_exponent is not None:
        obj["witness_exponent"] = list(res.witness_exponent)
        obj["witness_trace"] = _poly_obj(res.witness_trace)
    _emit(obj, lambda: [
        "compatibly split" if res.ok
        else f"ideal not preserved; witness exponent {res.witness_exponent}"
    ], args.json)
    return 0 if res.ok else 1


def _cmd_sln(args) -> int:
    if args.action == "build":
        cf = slnsplit.build_chart_function(args.n, args.p, term_cap=args.term_cap)
        if args.out:
            fpoly.save_poly(cf.poly, args.out)
            _emit(
                {"written": args.out, "terms": cf.poly.term_count()},
                lambda: [f"wrote {cf.poly.term_count()} terms to {args.out}"],
                args.json,
            )
        else:
            _emit(_poly_obj(cf.poly), lambda: [repr(cf.poly)], args.json)
        return 0
    if args.action == "check":
        _, res = slnsplit.splitting_check(args.n, args.p, term_cap=args.term_cap)
        obj = {"splitting": res.ok}
        if res.witness is not None:
            obj["witness"] = list(res.witness)
        _emit(obj, lambda: [
            "splitting" if res.ok else f"FAILS; witness {res.witness}"
        ], args.json)
        return 0 if res.ok else 1
    if args.action == "mvk":
        comp = slnsplit.build_mvk_component(args.n, args.p, term_cap=args.term_cap)
        res = fpoly.is_splitting_function(comp.poly)
        obj = {
            "component_terms": comp.poly.term_count(),
            "splitting": res.ok,
            "component": _poly_obj(comp.poly),
        }
        code = 0 if res.ok else 1
        if args.compat:
            subset = _parse_ints(args.compat)
            cres = slnsplit.compat_check(comp, subset, enum_cap=args.enum_cap)
            obj["compatible"] = cres.ok
            if cres.witness_exponent is not None:
                obj["witness_exponent"] = list(cres.witness_exponent)
            code = max(code, 0 if cres.ok else 1)

        def lines() -> Iterator[str]:
            yield f"component has {comp.poly.term_count()} terms; splitting: {res.ok}"
            if args.compat:
                yield f"compatibility with I={list(subset)}: {cres.ok}"

        _emit(obj, lines, args.json)
        return code
    if args.action == "canonical":
        res = slnsplit.canonical_check(args.n, args.p, term_cap=args.term_cap)
        obj = {
            "canonical": res.ok,
            "t_invariant": res.t_invariant,
            "directions": [
                {
                    "simple_index": d.simple_index,
                    "t_degree": d.t_degree,
                    "degree_ok": d.degree_ok,
                    "weights_ok": d.weights_ok,
                }
                for d in res.directions
            ],
        }

        def lines() -> Iterator[str]:
            yield f"canonical: {res.ok} (T-invariant: {res.t_invariant})"
            for d in res.directions:
                yield (f"  direction {d.simple_index}: t-degree {d.t_degree}, "
                       f"degree ok {d.degree_ok}, weights ok {d.weights_ok}")

        _emit(obj, lines, args.json)
        return 0 if res.ok else 1
    subset = _parse_ints(args.subset)
    variables, res = slnsplit.splitting_check(args.n, args.p, subset, term_cap=args.term_cap)
    obj = {
        "subset": list(subset),
        "variables": list(variables),
        "splitting": res.ok,
    }
    if res.witness is not None:
        obj["witness"] = list(res.witness)
    _emit(obj, lambda: [f"parabolic splitting for I={list(subset)}: {res.ok}"], args.json)
    return 0 if res.ok else 1


def _cmd_verify(args) -> int:
    cfg = verify.RunConfig(
        term_cap=args.term_cap,
        dim_cap=args.dim_cap,
        weyl_order_cap=args.weyl_cap,
        enum_cap=args.enum_cap,
        seed=args.seed,
        rank_cap=args.rank_cap,
    )
    report = verify.run_suite(args.suite, cfg, n=args.n, p=args.p)

    def lines() -> Iterator[str]:
        marks = {"pass": "ok  ", "fail": "FAIL", "skip": "skip"}
        for c in report.checks:
            yield (f"[{marks[c.status]}] {c.name}  {c.elapsed_s:.2f}s"
                   + (f"  ({c.detail})" if c.detail else ""))
        n_fail = sum(1 for c in report.checks if c.status == "fail")
        yield f"{len(report.checks)} checks, {n_fail} failures, {report.elapsed_s:.2f}s"

    _emit(report.to_json_obj(), lines, args.json)
    return report.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _preprocess(list(sys.argv[1:] if argv is None else argv))
    try:
        args = _direct(argv) or _parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        handler = {"rs": _cmd_rs, "weight": _cmd_weight_reduce, "char": _cmd_char, "filt": _cmd_filt,
                   "g1": _cmd_g1, "poly": _cmd_poly, "sln": _cmd_sln, "verify": _cmd_verify}
        return handler[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
