"""Command-line interface: dispatch, exit codes, JSON determinism."""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import pathlib
import random
import re
import tracemalloc
import types
from functools import partial

import pytest

from flagsplit import charalg, cli, fpoly, rootdata, slnsplit, verify
from flagsplit.cli import main
from flagsplit.fpoly import SparsePolynomial, poly_to_json_obj, save_poly
from flagsplit.rootdata import parabolic_subset, parse_system


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if "--json" in argv and captured.out:
        # every --json document is exactly what json.dumps writes for it
        _assert_dumps(captured.out, json.loads(captured.out))
    return code, captured.out, captured.err


def _emitted(capsys, obj):
    # what _emit writes for obj as a --json document
    cli._emit(obj, list, True)
    return capsys.readouterr().out


def _assert_dumps(text, want):
    # text is exactly json.dumps(want, sort_keys=True, indent=2) and a newline.
    # Lengths and SHA-256 digests are compared first, and a mismatch is shown
    # at its first differing offset, 200 characters either side: pytest's own
    # diff of two long documents takes minutes
    dumps = json.dumps(want, sort_keys=True, indent=2) + "\n"
    sides = [(len(t), hashlib.sha256(t.encode()).hexdigest()) for t in (text, dumps)]
    if sides[0] == sides[1] and text == dumps:
        return
    at = next((k for k, (a, b) in enumerate(zip(text, dumps)) if a != b), min(len(text), len(dumps)))
    window = slice(max(0, at - 200), at + 200)
    pytest.fail(f"written {sides[0]} != json.dumps {sides[1]}, first difference at offset {at}:\n"
                f"  written:    {text[window]!r}\n  json.dumps: {dumps[window]!r}", pytrace=False)


@pytest.mark.parametrize("obj", [
    {"quote\"back\\slash": "a\"b\\c\n\t\x01\x7f\u00e9\u20ac\U0001f600", "plain": "x"},
    [{"%d": 1, "w\u00e9\"": [1, 2]}, {"%d": 2, "w\u00e9\"": [3, 4]}],
    [], {}, [[]], [{}],
    {"a": [], "b": {}, "c": [[], {}, [[]], [{}], [[], [1]]], "d": {"e": {"f": []}}},
    [{"c": 1, "e": []}, {"c": 2, "e": []}], [{}, {}],
    [1, True, 2], [True, False], [0, False], {"flag": True, "n": 0, "off": False},
    [{"mult": True, "weight": [1]}, {"mult": 1, "weight": [2]}],
    [{"mult": 1, "weight": [2]}, {"mult": False, "weight": [2]}],
    [{"mult": 1, "weight": [True]}, {"mult": 1, "weight": [2]}],
    [None, -1, 2**70, -(2**70)], {"x": None, "y": -7}, [[None], [None]],
    [{"c": 2**80, "e": [-3, 2**65]}, {"c": -1, "e": [0, -(2**64)]}],
    (1, 2), {"t": (1, (2, 3))}, [(1, 2), (3, 4)], [{"e": (1, 2)}, {"e": (3, 4)}],
    [{"c": 1, "e": [1, 2]}, {"c": 2, "e": [1]}],
    [{"c": 1, "e": [1]}, {"c": 1, "f": [1]}],
    [{"c": 1}, {"c": 1, "e": 2}], [{"c": 1, "e": 2}, {"c": 1}],
    [{"c": 1}, 5], [{"c": 1}, {"c": "x"}], [{"c": [1]}, {"c": 1}], [{"c": 1}, {"c": [1]}],
    [{"c": [1, "x"]}, {"c": [2, 3]}], [{"c": 1.5}, {"c": 2}], [{1: 2}, {1: 3}],
    {1: "a", 10: [1, 2], 2: {"x": 1}}, {"outer": {3: [1], 1: {}, 2: [{"c": 1}]}},
    {None: 1}, [{True: [1]}], [1.5, float("inf"), -0.0], "solo", 7, None,
])
def test_dumps_matches_json(capsys, obj):
    _assert_dumps(_emitted(capsys, obj), obj)


def test_dumps_matches_json_randomised(capsys):
    rng = random.Random(5)

    def draw(depth):
        kind = rng.randrange(9 if depth < 4 else 4)
        if kind == 0:
            return rng.choice([0, -1, 2**70, True, False, None, 1.25])
        if kind == 1:
            return rng.choice(["", "a%d", "\u00e9\n", "q\"", "\\"])
        if kind in (2, 3):
            return [rng.randrange(-3, 4) for _ in range(rng.randrange(4))]
        if kind in (4, 5):
            # like-shaped int records, sometimes broken part-way
            size = rng.randrange(3)
            recs = [{"c": rng.randrange(5), "e": [rng.randrange(3) for _ in range(size)]}
                    for _ in range(rng.randrange(1, 5))]
            if rng.random() < 0.5:
                recs[rng.randrange(len(recs))][rng.choice(["c", "e", "f"])] = draw(depth + 1)
            return recs
        if kind == 6:
            return [draw(depth + 1) for _ in range(rng.randrange(4))]
        return {rng.choice(["a", "b", "%s", "\u00e9"]): draw(depth + 1)
                for _ in range(rng.randrange(4))}

    for _ in range(500):
        obj = draw(0)
        _assert_dumps(_emitted(capsys, obj), obj)


# -- record writer -------------------------------------------------------------

BLOCK = cli._BLOCK


def _records(table):
    # the character with multiplicities table, as the CLI writes it, and
    # json's records of it, built from the tuples
    ch = charalg.Character(parse_system("A3"), table)
    return cli._char_rows(ch), [{"mult": table[w], "weight": list(w)} for w in sorted(table)]


@pytest.mark.parametrize("count", [0, 1, 2, 4096, 4097])
def test_rows_match_json(capsys, count):
    rng = random.Random(count)
    rows, records = _records({(i, rng.randrange(-9, 9), -i): rng.choice([1, -2, 2**70])
                              for i in range(count)})
    # at top level, and two levels down, where the records' lines start at 8 spaces
    for wrap in (lambda x: x, lambda x: {"a": [x]}):
        _assert_dumps(_emitted(capsys, wrap({"rows": rows})), wrap({"rows": records}))


def test_rows_keep_their_order_and_shape(capsys):
    # records are written in key order, which is weight order, and a key may be empty
    rows, want = _records({(3, 0, 0): 1, (0, 1, 0): 7, (-1, -1, 0): 2})
    assert want[0]["weight"] == [-1, -1, 0]
    _assert_dumps(_emitted(capsys, [rows]), [want])
    _assert_dumps(_emitted(capsys, cli._poly_obj(SparsePolynomial(7, (), {(): 5}))),
                  {"p": 7, "terms": [{"c": 5, "e": []}], "vars": []})


def _drawn_weights(rng, rank, bound, count):
    # count distinct weights with coordinates in [-bound, bound], one of them
    # at bound, so the layout's fields are exactly as wide as bound needs
    assert (2 * bound + 1) ** rank >= count
    weights = {(bound,) + (0,) * (rank - 1)}
    while len(weights) < count:
        weights.add(tuple(rng.randint(-bound, bound) for _ in range(rank)))
    return sorted(weights)


# (bits per field, bound, system): the least bound or the largest coordinate
# of field widths Character(rs, mults) takes, byte-sized and not
WRITER_FIELDS = [(2, 1, "A8"), (3, 2, "E8"), (4, 7, "B4"), (5, 8, "A4"), (8, 127, "E6"),
                 (9, 128, "A3"), (10, 300, "A2"), (16, 16384, "A2"), (17, 40000, "A2")]


def _writer_nestings(rows, records):
    # the records at top level, in filt's degrees and in g1's cohomology
    def filt(x):
        return {"degrees": [{"character": x, "degree": 2, "dimension": 9}], "all_ok": True}

    def g1(x):
        return {"cohomology": [{"character": x, "dimension": 0, "i": 0},
                               {"character": x, "dimension": 1, "i": 1}], "p": 3}

    return [(rows, records), (filt(rows), filt(records)), (g1(rows), g1(records))]


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("bits, bound, system", WRITER_FIELDS,
                         ids=[f"{b}bit-{n}" for b, n, _ in WRITER_FIELDS])
def test_record_writer_matches_json_for_characters(capsys, bits, bound, system, count):
    # negative coordinates, signed and large multiplicities, fields of 2 to
    # 17 bits, several to a byte or spanning bytes
    rs = parse_system(system)
    rng = random.Random(f"{system} {bound} {count}")
    weights = _drawn_weights(rng, rs.rank, bound, count)
    table = {w: rng.choice([1, -1, 7, -3, 2**70, -(2**65), 12345]) for w in weights}
    ch = charalg.Character(rs, table)
    assert ch.packing.mask.bit_length() == bits
    records = [{"mult": table[w], "weight": list(w)} for w in weights]
    for obj, want in _writer_nestings(cli._char_rows(ch), records):
        _assert_dumps(_emitted(capsys, obj), want)


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("top, width", [(127, 1), (255, 2), (256, 2), (2**40, 6)])
def test_record_writer_matches_json_for_polynomials(capsys, top, width, count):
    # fpoly's whole-byte fields, one byte and wider, at the exponents that
    # set the width
    rng = random.Random(f"{top} {count}")
    terms = {(top, 0, 1): 2}
    while len(terms) < count:
        terms[tuple(rng.choice([0, 1, top, rng.randint(0, top)]) for _ in range(3))] = \
            rng.randint(1, 6)
    f = SparsePolynomial(7, ("x", "y", "z"), terms)
    assert f.width == width
    records = [{"c": terms[e], "e": list(e)} for e in sorted(terms)]
    for obj, want in _writer_nestings(cli._poly_obj(f)["terms"], records):
        _assert_dumps(_emitted(capsys, obj), want)
    _assert_dumps(_emitted(capsys, cli._poly_obj(f)), poly_to_json_obj(f))


def test_record_writer_matches_json_for_the_empty_and_the_zero_weight_character(capsys):
    # the zero weight alone takes a layout of one-bit fields
    zero = charalg.Character(parse_system("A2"), {(0, 0): -3})
    assert zero.packing.mask.bit_length() == 1
    for ch, records in ((charalg.Character(parse_system("E8")), []),
                        (zero, [{"mult": -3, "weight": [0, 0]}])):
        for obj, want in _writer_nestings(cli._char_rows(ch), records):
            _assert_dumps(_emitted(capsys, obj), want)


def _column_sizes(rows):
    # the number of fields in each column a table's writer groups its keys into
    table, value, key, bits, spans, bias = rows.args
    return [len(shifts) for _, _, shifts, _ in cli._columns(value, key, bits, spans, "\n")[1]]


@pytest.mark.parametrize("bits, bound, system", WRITER_FIELDS + [(1, 0, "A2")],
                         ids=[f"{b}bit-{n}" for b, n, _ in WRITER_FIELDS] + ["1bit-A2"])
def test_character_columns_keep_their_grouping(bits, bound, system):
    # every character field counts at its full width: max(1, 8 // bits)
    # fields to a column, whatever bits the weights use
    rs = parse_system(system)
    ch = charalg.Character(rs, {(bound,) + (0,) * (rs.rank - 1): 1})
    assert ch.packing.mask.bit_length() == bits
    per = max(1, 8 // bits)
    assert _column_sizes(cli._char_rows(ch)) == \
        [len(range(i, min(i + per, rs.rank))) for i in range(0, rs.rank, per)]


def _poly_with_spans(spans, count, seed, p=7):
    # count terms in variables whose largest exponents are exactly 2^span - 1
    # (0 for a span of 0), that top reached by one term
    rng = random.Random(seed)
    tops = [(1 << s) - 1 for s in spans]
    terms = {tuple(tops): 1}
    while len(terms) < count:
        terms[tuple(rng.choice([0, t, rng.randint(0, t)]) for t in tops)] = rng.randint(1, p - 1)
    names = tuple(f"x{i}" for i in range(len(spans)))
    return SparsePolynomial(p, names, terms), terms


def _check_poly_rows(capsys, f, terms):
    # the terms table at top level and nested as in filt and g1, and the whole
    # polynomial, each exactly as json.dumps writes them
    records = [{"c": terms[e], "e": list(e)} for e in sorted(terms)]
    for obj, want in _writer_nestings(cli._poly_obj(f)["terms"], records):
        _assert_dumps(_emitted(capsys, obj), want)
    _assert_dumps(_emitted(capsys, cli._poly_obj(f)), poly_to_json_obj(f))


# (bits each variable's exponents use, fields per column): 8, 4, 2 and 1 to a
# column, runs of exponents that are all 0, and mixed groups
POLY_SPANS = [
    ([1] * 9, [8, 1]),
    ([2] * 4, [4]),
    ([4, 4, 4], [2, 1]),
    ([7, 7], [1, 1]),
    ([3, 3, 2, 7, 1, 4], [3, 2, 1]),
    ([0, 0, 0, 4, 0, 3, 1, 0], [8]),
    ([0, 7, 0, 0, 2, 0], [4, 2]),
    ([0], [1]),
    ([0, 0, 0], [3]),
    ([1, 2, 3, 4, 0, 7, 1], [3, 2, 2]),
]


@pytest.mark.parametrize("spans, sizes", POLY_SPANS,
                         ids=["-".join(map(str, s)) for s, _ in POLY_SPANS])
def test_poly_columns_group_fields_by_the_bits_their_exponents_use(capsys, spans, sizes):
    count = min(2 ** sum(spans), 40)
    f, terms = _poly_with_spans(spans, count, f"{spans}")
    assert f.width == 1
    rows = cli._poly_obj(f)["terms"]
    assert list(rows.args[4]) == spans
    assert _column_sizes(rows) == sizes
    _check_poly_rows(capsys, f, terms)


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("spans", [[1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], [3, 7, 0, 2, 2, 4]])
def test_poly_columns_at_the_block_edges(capsys, spans, count):
    f, terms = _poly_with_spans(spans, count, f"{spans} {count}")
    assert len(terms) == count and list(cli._poly_obj(f)["terms"].args[4]) == spans
    _check_poly_rows(capsys, f, terms)


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_poly_columns_for_two_byte_fields(capsys, count):
    # exponents up to 255 and 256 take two-byte fields: 8 and 9 bits of 16,
    # one column each; a variable of exponents 0 or 1 and one of only 0 share one
    rng = random.Random(count)
    terms = {(255, 256, 1, 0): 3}
    while len(terms) < count:
        terms[(rng.randint(0, 255), rng.choice([0, 256, rng.randint(0, 256)]),
               rng.randint(0, 1), 0)] = rng.randint(1, 6)
    f = SparsePolynomial(7, ("x", "y", "z", "w"), terms)
    assert f.width == 2
    rows = cli._poly_obj(f)["terms"]
    assert list(rows.args[4]) == [8, 9, 1, 0] and _column_sizes(rows) == [1, 1, 2]
    _check_poly_rows(capsys, f, terms)


def test_poly_rows_with_random_spans_write_the_same_bytes(capsys):
    # the spans only group fields into columns: any spans at least as wide
    # as the exponents and at most the field width give json's bytes
    rng = random.Random(34)
    for width, spans in ((1, [1, 3, 0, 2, 7, 1, 1, 4]), (2, [9, 0, 8, 1, 2])):
        f, terms = _poly_with_spans(spans, BLOCK + 3, f"random {width}")
        assert f.width == width
        records = [{"c": terms[e], "e": list(e)} for e in sorted(terms)]
        for _ in range(25):
            drawn = [rng.randint(s, 8 * width) for s in spans]
            rows = partial(cli._record_blocks, f.packed, "c", "e", 8 * width, drawn, 0)
            for obj, want in _writer_nestings(rows, records):
                _assert_dumps(_emitted(capsys, obj), want)


@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK])
def test_emit_streams_rows_as_json(capsys, count):
    rng = random.Random(count)
    rows, records = _records({(i, rng.randrange(-9, 9), -i): rng.choice([1, -2, 2**70])
                              for i in range(count)})
    nest = {"rows": rows, "n": count, "in": [rows, {"deep": [rows]}, []], "z": {"rows": rows}}
    want = {"rows": records, "n": count, "in": [records, {"deep": [records]}, []],
            "z": {"rows": records}}
    # also a table as the whole document, two tables side by side in a list,
    # and a table as the last value of a nested dict
    for obj, expected in ((nest, want), ({"only": rows}, {"only": records}), (rows, records),
                          ([rows, rows], [records, records]),
                          ({"a": {"b": [1], "z": rows}}, {"a": {"b": [1], "z": records}})):
        _assert_dumps(_emitted(capsys, obj), expected)


MARKER_TEXTS = ["-Infinity", "a-Infinity", "-Infinity,", "-Infinity\n"]


@pytest.mark.parametrize("text", MARKER_TEXTS)
def test_emit_writes_marker_text_next_to_tables(capsys, text):
    # a string holding json's text for a float -inf, as a value, a list item
    # or a key beside a table, is written as itself
    rows, records = _records({(1, -2, 0): 3, (0, 0, 0): -1})

    def doc(x):
        return {text: x, "a": [text, x, text], "b": {text: text, "t": x}, "c": [x, text],
                "d": text, "e": [{text: x}, x], text + "k": [text]}

    _assert_dumps(_emitted(capsys, doc(rows)), doc(records))
    _assert_dumps(_emitted(capsys, [text, rows]), [text, records])


@pytest.mark.parametrize("obj", [[-math.inf], [-math.inf, 1], {"a": -math.inf}])
def test_emit_writes_minus_infinity_as_json_does(capsys, obj):
    # a table is known by json's call for it, not by the text json writes:
    # a float -inf alone, before a table and after one is json.dumps's -Infinity
    rows, records = _records({(0, 0, 0): 1})
    for doc, want in ((obj, obj), ([obj, rows], [obj, records]), ([rows, obj], [records, obj])):
        _assert_dumps(_emitted(capsys, doc), want)


def test_poly_trace_json_with_marker_variable_names(capsys, tmp_path):
    names = ("-Infinity", "\u0000", "x-Infinity,")
    f = SparsePolynomial(2, names, {(1, 1, 3): 1, (3, 1, 1): 1, (1, 3, 5): 1})
    g = SparsePolynomial(2, names, {(0, 0, 0): 1, (2, 0, 0): 1})
    save_poly(f, str(tmp_path / "f.json"))
    save_poly(g, str(tmp_path / "g.json"))
    code, out, _ = run(capsys, "poly", "trace", "--file", str(tmp_path / "f.json"),
                       "--times", str(tmp_path / "g.json"), "--json")
    want = poly_to_json_obj(fpoly.frobenius_trace(f, g))
    assert code == 0 and want["terms"] and want["vars"] == list(names)
    _assert_dumps(out, want)


class _Writes(io.StringIO):
    # a stdout that keeps the length of each write
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def _uniform_terms(count):
    # count terms x^a y^b z with two-digit a and b and coefficient 1: records
    # all of the same length
    return {(10 + i % 90, 10 + i // 90, 1): 1 for i in range(count)}


def _uniform_rows(count):
    return cli._poly_obj(SparsePolynomial(2, ("x", "y", "z"), _uniform_terms(count)))["terms"]


def test_emit_writes_one_block_at_a_time():
    rows = _uniform_rows(3 * BLOCK + 5)
    block = len("".join(_uniform_rows(BLOCK)("\n  ")))   # with its brackets
    out = _Writes()
    with contextlib.redirect_stdout(out):
        cli._emit({"terms": rows}, list, True)
    records = [{"c": 1, "e": list(e)} for e in sorted(_uniform_terms(3 * BLOCK + 5))]
    _assert_dumps(out.getvalue(), {"terms": records})
    assert len(out.sizes) >= 4 and max(out.sizes) <= block < len(out.getvalue()) / 2
    # main writes to the stdout in place when it is called
    out = _Writes()
    with contextlib.redirect_stdout(out):
        assert main(["char", "weyl", "E8", "--weight", "0,0,0,0,0,0,0,1", "--json"]) == 0
    assert len(json.loads(out.getvalue())["character"]) == 26401
    assert max(out.sizes) < len(out.getvalue()) / 10


class _Sink:
    # a stdout that keeps only the number, the largest and the total size of its writes
    def __init__(self):
        self.writes = self.largest = self.total = 0

    def write(self, text):
        self.writes += 1
        self.largest = max(self.largest, len(text))
        self.total += len(text)
        return len(text)

    def flush(self):
        pass


def test_emit_prints_text_one_line_at_a_time():
    # E8 at omega_8: 26,401 weight lines; text mode holds one line at a time,
    # so printing them allocates far less than the text it writes
    ch = charalg.weyl_character(parse_system("E8"), (0,) * 7 + (1,))
    out = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            cli._emit({}, lambda: cli._char_lines(ch), False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    longest = max(len(f"  {list(w)}  x{m}") for w, m in ch.items())
    assert out.writes >= 26402 and out.largest <= longest
    assert out.total > 700_000 and peak < out.total / 2, (peak, out.total)


def _two_variable_poly(tmp_path, name, p, terms):
    path = tmp_path / name
    save_poly(SparsePolynomial(p, ("x1", "x2"), terms), str(path))
    return str(path)


def _writer_calls(tmp_path):
    # (argv, [(json path, library object)]): every --json output that carries
    # records, at the edge cases of the writer
    A1, A2, C2 = parse_system("A1"), parse_system("A2"), parse_system("C2")
    one = _two_variable_poly(tmp_path, "one.json", 2, {(0, 0): 1})
    calls = [
        # an Euler character that vanishes: no records
        (["char", "euler", "A1", "--weight", "-1"], [("character", charalg.euler_char(A1, (-1,)))]),
        (["char", "weyl", "A1", "--weight", "3"],
         [("character", charalg.weyl_character(A1, (3,)))]),
        # negative coordinates and negative multiplicities
        (["char", "euler", "A2", "--weight", "-4,1"],
         [("character", charalg.euler_char(A2, (-4, 1)))]),
        (["char", "trunc", "C2", "--p", "3"], [("character", charalg.truncated_char(C2, 3))]),
        (["sln", "mvk", "--n", "2", "--p", "3", "--compat", "1"],
         [("component", slnsplit.build_mvk_component(2, 3).poly)]),
        # the zero polynomial: x1 * 1 traces to 0 at p = 3
        (["poly", "trace", "--file", _two_variable_poly(tmp_path, "x1.json", 3, {(1, 0): 1}),
          "--times", _two_variable_poly(tmp_path, "one3.json", 3, {(0, 0): 1})],
         [(None, SparsePolynomial(3, ("x1", "x2")))]),
        # a failing compatibility check with its witness trace
        (["poly", "compat", "--file", _two_variable_poly(
            tmp_path, "f2.json", 2, {(0, 0): 1, (1, 1): 1}), "--ideal", "x1"], []),
    ]
    # at p = 2 the trace sends x^(2e+1) to x^e: 4,096 terms, and one more
    for count in (4096, 4097):
        exps = [(i % 64, i // 64) for i in range(count)]
        f = _two_variable_poly(tmp_path, f"odd{count}.json", 2,
                               {(2 * a + 1, 2 * b + 1): 1 for a, b in exps})
        want = SparsePolynomial(2, ("x1", "x2"), {e: 1 for e in exps})
        calls.append((["poly", "trace", "--file", f, "--times", one], [(None, want)]))
    return calls


def test_record_writer_outputs(capsys, tmp_path):
    for argv, expected in _writer_calls(tmp_path):
        # run() checks that the output is exactly json.dumps of itself
        code, out, _ = run(capsys, *argv, "--json")
        assert code in (0, 1), argv
        obj = json.loads(out)
        for key, lib in expected:
            if isinstance(lib, charalg.Character):
                assert obj[key] == lib.to_json_obj()
            else:
                assert (obj[key] if key else obj)["terms"] == poly_to_json_obj(lib)["terms"]
    assert len(json.loads(out)["terms"]) == 4097


def test_filt_entries_keep_peel_order(capsys):
    code, out, _ = run(capsys, "filt", "C2", "--weight", "2,2", "--max-degree", "5", "--json")
    assert code == 0
    rs = parse_system("C2")
    gs = charalg.graded_section_char(parabolic_subset(rs, ()), (2, 2), 5)
    degrees = json.loads(out)["degrees"]
    unsorted = 0
    for d, (n, ch), (_, dec) in zip(degrees, gs.graded.pieces, gs.decompositions):
        assert d["degree"] == n and d["character"] == ch.to_json_obj()
        assert d["decomposition"] == dec.to_json_obj()
        unsorted += [w for w, _ in dec.entries] != sorted(w for w, _ in dec.entries)
    assert unsorted  # the peel order is not the sorted order


def test_sorted_items_match_sorting_pairs():
    E6 = parse_system("E6")
    for ch in (charalg.weyl_character(E6, (1, 1, 0, 0, 0, 1)),
               charalg.euler_char(parse_system("A2"), (-4, 1)), charalg.Character(E6)):
        assert list(ch.items()) == sorted(ch.mults.items())
    for f in (slnsplit.build_mvk_component(3, 2).poly, SparsePolynomial(5, ("x",))):
        assert list(f.sorted_terms()) == sorted(f.terms.items())


@pytest.mark.parametrize("flag", ["--term-cap", "--dim-cap", "--weyl-cap", "--enum-cap",
                                  "--rank-cap"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_resource_cap_below_one_is_a_usage_error(capsys, flag, value):
    command = ["sln", "check", "--n", "1", "--p", "2"]
    # --rank-cap is verify's own flag, so it follows verify's suite
    for argv in ([["verify", "charalg", flag, value]] if flag == "--rank-cap"
                 else [[flag, value, *command], [*command, flag, value]]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive integer, got '{value}'" in err
    # the seed takes any int
    assert main(["--seed", value, *command, "--seed", value]) == 0


def test_poly_json_outputs(capsys, tmp_path):
    f = tmp_path / "f.json"
    save_poly(SparsePolynomial(3, ("x1", "x2"), {(0, 0): 1, (2, 2): 2}), str(f))
    g = tmp_path / "g.json"
    save_poly(SparsePolynomial(3, ("x1", "x2"), {(1, 0): 1}), str(g))
    code, out, _ = run(capsys, "poly", "check", "--file", str(f), "--json")
    assert code == 0 and json.loads(out) == {"splitting": True}
    code, out, _ = run(capsys, "poly", "trace", "--file", str(f), "--times", str(g), "--json")
    assert code == 0 and json.loads(out)["p"] == 3
    code, out, _ = run(capsys, "poly", "compat", "--file", str(f), "--ideal", "x1", "--json")
    assert code == 1 and json.loads(out)["witness_trace"]["terms"]


def test_rs_show_json(capsys):
    code, out, _ = run(capsys, "rs", "show", "A2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["type"] == "A" and obj["rank"] == 2
    assert obj["rho"] == [1, 1]
    assert obj["coxeter_number"] == 3
    assert obj["min_good_prime"] == 2
    assert len(obj["positive_roots"]) == 3


def test_rs_show_g2(capsys):
    code, out, _ = run(capsys, "rs", "show", "G2", "--json")
    obj = json.loads(out)
    assert obj["min_good_prime"] == 5 and obj["N"] == 6


# sha256 of `rs show X --json` for every valid type, recorded from the
# alpha-string construction with coroots from root norms
RS_SHOW_DIGESTS = {
    "A1": "9293a9cae321a20995d6a1c7ba174598138644e60c525550a631a214f52d543f",
    "A2": "83d6f74f5d35882a3bd8702963516998f206160aa4365dfa14772f26ec499e6b",
    "A3": "63d43c976db02c4dbd2a32115227c585550f5f92cc8eec55b95ca4d4ec0e6ead",
    "A4": "857c60f5e7e21d72cd265f81f5d18232ae94d23b87ffb1f20d26750b28e12d1d",
    "A5": "88e074f8372f018abfb7cd8b7543b895a2f2a1287774cffa2f022f19a1d3f284",
    "A6": "9c09c88fc761888ed2562d71c7acc257283b689a3cec267be9bc3b734280cf40",
    "A7": "6f814c96d9290a2611cf975a6f8e00cb95354a700d3542ee02dead312ed10888",
    "A8": "8581e211dbcb90f2514b82b58e5b00d564fad70ca58df9c8b251296a8ca07a64",
    "B2": "28ac26c0205cc0df48dbdda2f4fb493c94cd642abcf543acbbbba005f8b2e0da",
    "B3": "2aa5eba5c569b8d9bae1166c64450bcf9c28bbc54c23fdc0f9fb2b132849c718",
    "B4": "0fbdeeb678df23109e8a6c579ee52689c608777a508120d9a7e03f317eafb098",
    "B5": "4bbabbabaafa0f57619e79908b84edd0eb516815402c146dafbdc57234872272",
    "B6": "7ad5dcf3abe0bcaa37aaec83cc560a6ab9c2446644f00538dd2305633a5ccdcc",
    "B7": "92e1576cb5d371fd975e1eedde0b4a552889867a2967da937fe827350f6700b6",
    "B8": "5bf78cb6c2adb535ebde7b12ddd312acf3a43d57aa9642cb6973436272ffb53b",
    "C2": "800a851afb9b0451791e21b4e4421cd9c2d0f55bc7653a1ede03d7d33713e7ff",
    "C3": "f8fd512fbbc68d80d6161af56fa52c441c25905eb7a3a143c81920fc618c8cc6",
    "C4": "99f374f6b573848ca242f503f370247de69b35d04b31d0a3065cc86379863def",
    "C5": "bf66e2cc328e83289f7aac8f26ef2a9568e75d5f46c2fbbc2160ce3d3af021a0",
    "C6": "8598f924dd1c0468f8b2024b0d776ef744a153ddf3b322c002bfde71d2a06ac2",
    "C7": "21303903fd717d3d596e41ba1dff5fe795549abaf3d5c44932f078688839a282",
    "C8": "2725afbd3ef24165219639a986eedf7bd5ad1f238a28eee491d478c40b0cf979",
    "D3": "e77f12253f2f62387806f86fc69cc8225fa36884ace0104f90d7862c9b7ae065",
    "D4": "74b5381734f796eb409594cc7202ac157c19e52aef1817f68307129f524eec92",
    "D5": "29ca4313fd131528873e320e0f5e2f9a36f426225acc4d7908763bd8363ced3f",
    "D6": "a4e6ca11b4a7f0362647af4469023859699a815d2736d863750afe94c1b10534",
    "D7": "d4866455cb538dc5c87b1d657bf0aba906fcd319faab3611122a75d81606a10f",
    "D8": "36fe3b72602315eab3beb2c85075539bff5a7045fb86c9cef9ab2b5c66c20e20",
    "E6": "1ce8f2818cda8d14bbd68d30f9d574f371ec2e073f5d5820de4c4ad5a6a3d864",
    "E7": "d7a4f0fb76f7c32463c4787e288e0a89f4c59b3a91ec917808cc0eafb54dfaaf",
    "E8": "f90029cd2baabfa120a2186825362ef227379f77cc49b4d5a678018e1f94b58e",
    "F4": "d53ff5945e210a26f05c8eba743e4dce5273fd1d82f610be95296952b27c3fd0",
    "G2": "f40720eb37f908c7e7233b2c1201da16306fd0dae10ff49242cf3067b7e8db34",
}


def test_rs_show_json_bytes_are_pinned_for_every_type(capsys):
    # positive roots in order with all three coordinate tuples, symmetrizers,
    # bad primes and the minimal good prime, byte for byte
    assert sorted(RS_SHOW_DIGESTS) == sorted(
        f"{label}{rank}" for label, valid in rootdata._VALID_TYPES.items()
        for rank in range(1, rootdata.MAX_RANK + 1) if valid(rank))
    for name, digest in RS_SHOW_DIGESTS.items():
        code, out, _ = run(capsys, "rs", "show", name, "--json")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_rs_show_rejects_a_superscript_rank(capsys):
    # '\u00b2'.isdigit() is true, and int() of it used to escape as a ValueError
    code, out, err = run(capsys, "rs", "show", "A\u00b2")
    assert code == 2 and out == ""
    assert err == "input error: cannot parse root-system name 'A\u00b2'\n"


def test_symmetric_degree_above_the_term_cap_exits_2(capsys):
    # the degree is checked against the cap before any table is allocated
    code, out, err = run(capsys, "--term-cap", "10", "char", "sym", "A1", "--degree", "11")
    assert code == 2 and out == ""
    assert err == "resource limit: symmetric power exceeds term cap 10\n"
    code, out, err = run(capsys, "--term-cap", "10", "char", "sym", "A1", "--degree", "10")
    assert code == 0 and err == "" and "[20]" in out


def test_weight_reduce(capsys):
    code, out, _ = run(capsys, "weight", "reduce", "A2",
                       "--weight", "-1,1", "--degree", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["steps"] == [1]
    assert obj["outcome"] == "dominant"
    assert obj["dominant_weight"] == [1, 0]
    assert obj["remaining_degree"] == 0


def test_weight_reduce_vanishes(capsys):
    code, out, _ = run(capsys, "weight", "reduce", "A1",
                       "--weight", "-1", "--degree", "0")
    assert code == 0
    assert "AllCohomologyVanishes" in out


def test_weight_outside_cone_is_input_error(capsys):
    code, _, err = run(capsys, "weight", "reduce", "A2",
                       "--weight", "-2,0", "--degree", "1")
    assert code == 2
    assert "input error" in err


def test_char_commands(capsys):
    code, out, _ = run(capsys, "char", "weyl", "A2", "--weight", "1,1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension"] == 8
    code, out, _ = run(capsys, "char", "euler", "A1", "--weight", "-5", "--json")
    obj = json.loads(out)
    assert obj["dimension"] == -4
    code, out, _ = run(capsys, "char", "sym", "A2", "--degree", "1", "--json")
    assert json.loads(out)["dimension"] == 3
    code, out, _ = run(capsys, "char", "sym", "A2", "--degree", "1",
                       "--parabolic", "1", "--json")
    assert json.loads(out)["dimension"] == 2
    code, out, _ = run(capsys, "char", "ext", "A2", "--j", "3", "--json")
    assert json.loads(out)["character"] == [{"weight": [-2, -2], "mult": 1}]
    # A3 at j = 6 and F4 at j = 24 are one weight each, and so is every table
    # that feeds them: a cap below j refuses neither
    for system, j, cap in (("A3", "6", "2"), ("F4", "24", "5")):
        code, out, _ = run(capsys, "char", "ext", system, "--j", j, "--term-cap", cap, "--json")
        assert code == 0 and json.loads(out)["dimension"] == 1
    code, out, _ = run(capsys, "char", "trunc", "A2", "--p", "2", "--json")
    assert json.loads(out)["dimension"] == 8


@pytest.mark.parametrize("argv, listed", [
    (["sln", "parabolic", "--n", "2", "--p", "3", "--subset", "1,1"], "[1, 1]"),
    (["sln", "mvk", "--n", "2", "--p", "3", "--compat", "1,1"], "[1, 1]"),
    (["filt", "A2", "--weight", "0,2", "--max-degree", "2", "--parabolic", "2,2"], "[2, 2]"),
    (["char", "sym", "A2", "--degree", "1", "--parabolic", "1,1"], "[1, 1]"),
], ids=["sln-parabolic", "sln-mvk-compat", "filt", "char-sym"])
def test_duplicate_simple_indices_exit_2(capsys, argv, listed):
    # a repeated index is refused, not read as the set it spells
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, *argv, *json_flag)
        assert code == 2 and out == ""
        assert err == f"input error: duplicate simple indices in {listed}\n"


_HUGE_PRIME = 1000000000000000003   # prime and above 2^31: trial division takes minutes


@pytest.mark.parametrize("argv", [
    ["sln", "check", "--n", "2"], ["sln", "parabolic", "--n", "2", "--subset", "1"],
    ["sln", "canonical", "--n", "2"], ["sln", "mvk", "--n", "2"], ["verify", "sln", "--n", "2"],
    ["char", "trunc", "A1"], ["g1", "A1", "--weight", "0"],
], ids=lambda argv: "-".join(argv[:2]))
def test_characteristic_range_is_checked_before_primality(argv):
    # every command reads p as PrimeField does, its range before trial division
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(fpoly.__file__))
    run = subprocess.run([sys.executable, "-m", "flagsplit.cli", *argv, "--p", str(_HUGE_PRIME)],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=10)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == ("input error: characteristic must be an integer in [2, 2^31], "
                          f"got {_HUGE_PRIME}\n")


@pytest.mark.parametrize("argv, message", [
    (["sln", "check", "--n", "2", "--p", "6"], "6 is not prime"),
    (["char", "trunc", "A1", "--p", "6"], "6 is not prime"),
    (["g1", "A1", "--weight", "0", "--p", "6"], "6 is not prime"),
    (["sln", "check", "--n", "2", "--p", "1"], "characteristic must be an integer in [2, 2^31], got 1"),
    (["g1", "A1", "--weight", "0", "--p", "2147483659"],
     "characteristic must be an integer in [2, 2^31], got 2147483659"),
    (["sln", "check", "--n", "0", "--p", "3"], "A0 is not a valid simple type"),
    (["sln", "mvk", "--n", "9", "--p", "3"], "rank 9 exceeds the cap 8"),
    (["verify", "sln", "--n", "9", "--p", "3"], "rank 9 exceeds the cap 8"),
    (["sln", "parabolic", "--n", "2", "--p", "3", "--subset", "3"],
     "simple-root index 3 out of range 1..2"),
    (["sln", "mvk", "--n", "2", "--p", "3", "--compat", "3"], "simple-root index 3 out of range 1..2"),
    (["sln", "parabolic", "--n", "0", "--p", "3", "--subset", "1,1"], "A0 is not a valid simple type"),
    (["sln", "parabolic", "--n", "2", "--p", "4", "--subset", "3"], "4 is not prime"),
    (["g1", "A1", "--weight", "0", "--p", "5", "--max-i", "-1"],
     "top degree i_max must be nonnegative"),
], ids=["sln-p6", "trunc-p6", "g1-p6", "sln-p1", "g1-p2^31+11", "sln-n0", "mvk-n9", "verify-n9",
        "parabolic-subset3", "mvk-compat3", "parabolic-n0-before-subset",
        "parabolic-p4-before-subset", "g1-max-i-1"])
def test_inputs_are_refused_by_their_owners(capsys, argv, message):
    # n and the subset by rootdata, p by PrimeField, n and p before the subset
    for json_flag in ([], ["--json"]):
        assert run(capsys, *argv, *json_flag) == (2, "", f"input error: {message}\n")


def test_char_trunc_above_the_term_cap_builds_no_table(capsys):
    # A1's only table holds p weights: p = 4000037 once took 341 MB to refuse
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "char", "trunc", "A1", "--p", "4000037")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "resource limit: truncated algebra exceeds term cap 1000000\n")
    assert peak < 2**20


def test_json_builds_no_text_lines(capsys, monkeypatch):
    text, _ = run(capsys, "char", "weyl", "A2", "--weight", "1,1")[1:]
    assert text.splitlines()[-1] == "  dimension 8"

    def refuse(ch):
        raise AssertionError("text lines built under --json")

    monkeypatch.setattr(cli, "_char_lines", refuse)
    code, out, _ = run(capsys, "char", "weyl", "A2", "--weight", "1,1", "--json")
    assert code == 0 and json.loads(out)["dimension"] == 8


def test_filt_command(capsys):
    code, out, _ = run(capsys, "filt", "A1", "--weight", "0",
                       "--max-degree", "4", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_ok"] is True
    dims = [d["dimension"] for d in obj["degrees"]]
    assert dims == [1, 3, 5, 7, 9]


def test_filt_parabolic(capsys):
    code, out, _ = run(capsys, "filt", "A2", "--weight", "0,2",
                       "--max-degree", "2", "--parabolic", "1", "--json")
    assert code == 0
    assert json.loads(out)["all_ok"] is True


def test_g1_command(capsys):
    code, out, _ = run(capsys, "g1", "A1", "--word", "1", "--weight", "1",
                       "--p", "3", "--max-i", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    dims = {c["i"]: c["dimension"] for c in obj["cohomology"]}
    assert dims == {0: 0, 1: 2, 2: 0, 3: 4}


def test_g1_bad_p(capsys):
    code, _, err = run(capsys, "g1", "A1", "--word", "", "--weight", "1", "--p", "2")
    assert code == 2


def test_poly_check_exit_codes(capsys, tmp_path):
    good = tmp_path / "good.json"
    save_poly(SparsePolynomial(3, ("x",), {(2,): 1}), str(good))
    code, out, _ = run(capsys, "poly", "check", "--file", str(good))
    assert code == 0 and "splitting" in out

    bad = tmp_path / "bad.json"
    save_poly(SparsePolynomial(3, ("x",), {(1,): 1}), str(bad))
    code, out, _ = run(capsys, "poly", "check", "--file", str(bad))
    assert code == 1

    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, _, err = run(capsys, "poly", "check", "--file", str(broken))
    assert code == 2

    # a repeated variable name used to let the second term overwrite the first
    ambiguous = tmp_path / "ambiguous.json"
    ambiguous.write_text(json.dumps({"p": 3, "vars": ["x", "x"], "terms": [
        {"e": [1, 0], "c": 1}, {"e": [1, 0], "c": 2}]}))
    code, out, err = run(capsys, "poly", "check", "--file", str(ambiguous))
    assert code == 2 and out == "" and "duplicate variable" in err

    # a key the format does not name is refused, not dropped
    for extra in ({"q": 5}, {"terms": [{"e": [2], "c": 1, "z": 3}]}):
        unknown = tmp_path / "unknown.json"
        unknown.write_text(json.dumps({"p": 3, "vars": ["x"], "terms": [{"e": [2], "c": 1}],
                                       **extra}))
        code, out, err = run(capsys, "poly", "check", "--file", str(unknown))
        assert code == 2 and out == "" and "unknown key" in err


@pytest.mark.parametrize("field, value", [
    ("p", 3.9), ("p", "3"), ("vars", "x"), ("e", [2.5]), ("e", "2"), ("c", True),
], ids=["float-p", "string-p", "string-vars", "float-exponent", "string-exponents",
        "bool-coefficient"])
def test_poly_check_rejects_wrongly_typed_file(capsys, tmp_path, field, value):
    # coercing the value would read each of these as a polynomial over F_3
    obj = {"p": 3, "vars": ["x"], "terms": [{"e": [2], "c": 2}]}
    if field in ("e", "c"):
        obj["terms"][0][field] = value
    else:
        obj[field] = value
    path = tmp_path / "f.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "poly", "check", "--file", str(path))
    assert code == 2 and out == "" and "not a" in err


def test_poly_trace(capsys, tmp_path):
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    save_poly(SparsePolynomial(3, ("x",), {(2,): 1}), str(f))
    save_poly(SparsePolynomial(3, ("x",), {(3,): 1}), str(g))
    out_path = tmp_path / "out.json"
    code, _, _ = run(capsys, "poly", "trace", "--file", str(f),
                     "--times", str(g), "--out", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["terms"] == [{"e": [1], "c": 1}]


def test_poly_trace_term_cap_bounds_the_trace(capsys, tmp_path):
    # f*g has 41 nonzero terms mod 3, its trace 13: a cap in between bounds
    # the trace, not the product, which is never formed
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    save_poly(SparsePolynomial(3, ("x",), {(i,): 1 for i in range(40)}), str(f))
    save_poly(SparsePolynomial(3, ("x",), {(0,): 1, (1,): 1}), str(g))
    argv = ["poly", "trace", "--file", str(f), "--times", str(g), "--json"]
    code, want, _ = run(capsys, *argv)
    assert code == 0 and len(json.loads(want)["terms"]) == 13
    for cap in ("13", "20", "40"):
        assert run(capsys, "--term-cap", cap, *argv) == (0, want, "")
    code, out, err = run(capsys, "--term-cap", "12", *argv)
    assert (code, out) == (2, "") and "trace exceeds term cap 12" in err


def test_out_to_a_missing_directory_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    save_poly(SparsePolynomial(3, ("x",), {(2,): 1}), str(f))
    save_poly(SparsePolynomial(3, ("x",), {(3,): 1}), str(g))
    missing = tmp_path / "missing" / "x.json"
    for argv in (["sln", "build", "--n", "2", "--p", "3", "--out", str(missing)],
                 ["poly", "trace", "--file", str(f), "--times", str(g), "--out", str(missing)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"input error: cannot write polynomial file {missing}: "), err
    assert not missing.parent.exists()


def test_poly_compat(capsys, tmp_path):
    f = tmp_path / "f.json"
    save_poly(SparsePolynomial(2, ("x1", "x2"), {(1, 1): 1}), str(f))
    code, out, _ = run(capsys, "poly", "compat", "--file", str(f), "--ideal", "x1")
    assert code == 0
    f2 = tmp_path / "f2.json"
    save_poly(SparsePolynomial(2, ("x1", "x2"), {(0, 0): 1, (1, 1): 1}), str(f2))
    code, out, _ = run(capsys, "poly", "compat", "--file", str(f2), "--ideal", "x1")
    assert code == 1


def test_sln_commands(capsys, tmp_path):
    code, _, _ = run(capsys, "sln", "check", "--n", "1", "--p", "3")
    assert code == 0
    out_path = tmp_path / "chart.json"
    code, _, _ = run(capsys, "sln", "build", "--n", "1", "--p", "3",
                     "--out", str(out_path))
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["p"] == 3 and obj["vars"] == ["y21", "x12"]
    # the written chart passes the generic poly checker
    code, _, _ = run(capsys, "poly", "check", "--file", str(out_path))
    assert code == 0

    code, out, _ = run(capsys, "sln", "mvk", "--n", "2", "--p", "2",
                       "--compat", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["splitting"] is True and obj["compatible"] is True

    code, out, _ = run(capsys, "sln", "canonical", "--n", "1", "--p", "3", "--json")
    assert code == 0
    assert json.loads(out)["canonical"] is True

    code, out, _ = run(capsys, "sln", "parabolic", "--n", "2", "--p", "2",
                       "--subset", "1", "--json")
    assert code == 0
    assert json.loads(out)["splitting"] is True


def test_sln_check_and_mvk_build_only_the_component(capsys, monkeypatch):
    # no command builds or filters the whole chart; `sln mvk` builds the
    # component once, while `sln check` and `sln parabolic` decide the
    # criterion on the x^(p-1) slice of the minors and build neither
    from flagsplit import slnsplit
    calls = []
    build, component = slnsplit._build_chart, slnsplit.ChartFunction.x_degree_component
    direct = slnsplit.build_mvk_component
    monkeypatch.setattr(slnsplit, "_build_chart",
                        lambda *args: calls.append("build") or build(*args))
    monkeypatch.setattr(slnsplit.ChartFunction, "x_degree_component",
                        lambda cf, d: calls.append("filter") or component(cf, d))
    monkeypatch.setattr(slnsplit, "build_mvk_component",
                        lambda *args, **kw: calls.append("component") or direct(*args, **kw))
    code, out, _ = run(capsys, "sln", "mvk", "--n", "3", "--p", "2", "--compat", "1,3", "--json")
    obj = json.loads(out)
    assert code == 0 and obj["splitting"] is True and obj["compatible"] is True
    assert calls == ["component"]
    code, out, _ = run(capsys, "sln", "check", "--n", "3", "--p", "2", "--json")
    assert code == 0 and json.loads(out) == {"splitting": True}
    code, out, _ = run(capsys, "sln", "parabolic", "--n", "3", "--p", "2", "--subset", "1,3",
                       "--json")
    assert code == 0 and json.loads(out)["splitting"] is True
    assert calls == ["component"]


def test_verify_fpoly(capsys):
    code, out, _ = run(capsys, "verify", "fpoly", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    assert all(c["status"] in ("pass", "skip") for c in obj["checks"])


def test_verify_fpoly_obeys_the_term_cap(capsys):
    # every trace, product and power of the suite is bounded by --term-cap
    names = ["fpoly.trace_semilinearity", "fpoly.trace_additivity",
             "fpoly.criterion_equivalence", "fpoly.trace_shift"]
    code, out, _ = run(capsys, "--term-cap", "1", "verify", "fpoly", "--json")
    checks = json.loads(out)["checks"]
    assert code == 0 and [c["name"] for c in checks] == names
    assert all(c["status"] == "skip" and c["detail"].startswith("resource guard: ")
               for c in checks), checks
    code, out, _ = run(capsys, "verify", "fpoly", "--json")
    checks = json.loads(out)["checks"]
    assert code == 0 and [(c["name"], c["status"]) for c in checks] == [
        (name, "pass") for name in names]


def test_verify_sln(capsys):
    code, out, _ = run(capsys, "verify", "sln", "--n", "1", "--p", "5", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    names = [c["name"] for c in json.loads(out)["checks"]]
    code, text, _ = run(capsys, "verify", "sln", "--n", "1", "--p", "5")
    lines = text.splitlines()
    assert code == 0 and len(lines) == len(names) + 1
    for name, line in zip(names, lines):
        assert re.fullmatch(rf"\[ok  \] {re.escape(name)}  \d+\.\d\ds", line), line
    assert re.fullmatch(rf"{len(names)} checks, 0 failures, \d+\.\d\ds", lines[-1])


def test_verify_charalg_rank_capped(capsys):
    code, out, _ = run(capsys, "verify", "charalg", "--rank-cap", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "pass"
    names = [c["name"] for c in obj["checks"]]
    assert any(name.startswith("charalg.graded_sections[A1") for name in names)
    assert "charalg.graded_sections_rank3" not in names


def test_verify_times_every_check_in_text_only(capsys, monkeypatch):
    # a clock that advances one second per reading: every check, each case of
    # the graded-section sweep included, reads it once before and once after
    ticks = itertools.count()
    monkeypatch.setattr(verify, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
    code, text, _ = run(capsys, "verify", "charalg", "--rank-cap", "1")
    lines = text.splitlines()
    assert code == 0 and any("charalg.graded_sections[A1," in line for line in lines)
    assert all(re.fullmatch(r"\[(ok  |skip)\] \S+  1\.00s(  \(.*\))?", line) for line in lines[:-1])
    code, out, _ = run(capsys, "verify", "charalg", "--rank-cap", "1", "--json")
    assert code == 0 and all(set(c) == {"name", "status", "detail"}
                             for c in json.loads(out)["checks"])


def test_verify_charalg_asserts_rank3_sections(capsys):
    code, out, _ = run(capsys, "verify", "charalg", "--json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert {"name": "charalg.graded_sections_rank3", "status": "pass", "detail": ""} in checks
    # every skip is a recorded non-dominant graded section, not a resource guard
    skips = [c["detail"] for c in checks if c["status"] == "skip"]
    assert skips and all(d.startswith("recorded (non-dominant)") for d in skips)


def test_json_reports_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "verify", "fpoly", "--seed", "42", "--json")
    _, out2, _ = run(capsys, "verify", "fpoly", "--seed", "42", "--json")
    assert out1 == out2
    _, out3, _ = run(capsys, "verify", "fpoly", "--seed", "43", "--json")
    assert json.loads(out3)["config"]["seed"] == 43


def test_usage_error(capsys):
    assert main(["nonsense"]) == 2
    assert main(["rs", "show", "Z9"]) == 2
    # the equivariance check, which runs first, validates (n, p) as well
    assert main(["verify", "sln", "--n", "-1", "--p", "2"]) == 2


def test_subprocess_byte_determinism():
    import os
    import subprocess
    import sys

    import flagsplit

    src = os.path.dirname(os.path.dirname(flagsplit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "flagsplit.cli", "verify", "fpoly",
           "--seed", "7", "--json"]
    r1 = subprocess.run(cmd, capture_output=True, text=True, env=env)
    r2 = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert r1.returncode == 0 and r1.stdout == r2.stdout


def _benchmark_argvs():
    # every case of the benchmark, from perfbench/cases.py loaded by path
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "cases.py"
    spec = importlib.util.spec_from_file_location("perfbench_cases", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [list(case) for case in module.all_cases()]


LEAVES = [["rs", "show"], ["weight", "reduce"], ["char", "weyl"], ["char", "euler"],
          ["char", "sym"], ["char", "ext"], ["char", "trunc"], ["filt"], ["g1"],
          ["poly", "check"], ["poly", "trace"], ["poly", "compat"], ["sln", "build"],
          ["sln", "check"], ["sln", "mvk"], ["sln", "canonical"], ["sln", "parabolic"],
          ["verify"]]
# help at each level, unknown commands and actions, root flags before the
# command (abbreviated, negative-number-like, missing a value), leaf flags
# that only the root knows, values starting with "-" and a positional
# after the flags
PARSE_CORPUS = [
    [], ["-h"], ["nonsense"], ["sln"], ["sln", "-h"], ["sln", "bogus"], ["sln", "bogus", "check"],
    ["bogus", "sln"], ["--seed", "sln", "check"], ["--se", "3", "sln", "check", "--n", "2", "--p", "3"],
    ["-5", "sln"], ["sln", "--json", "check", "--n", "2", "--p", "2"],
    ["sln", "check", "--n", "2", "--p", "2", "--bogus"], ["sln", "check"],
    ["--json", "--seed", "3", "--term-cap=9", "sln", "check", "--n", "2", "--p", "2"],
    ["--seed", "3"], ["--json=1", "sln", "check"], ["--", "sln", "check"],
    ["rs", "show", "A2", "extra"], ["sln", "check", "--n", "2", "--p", "2", "--se", "5"],
    ["verify", "bogus"], ["char", "weyl", "A2", "--weight", "-1,1"],
    ["sln", "build", "--n", "2", "--p", "2", "--out", "-x"],
    ["sln", "build", "--n", "2", "--p", "2", "--out", "--json"],
    ["sln", "build", "--n", "2", "--p", "2", "--out="],
    ["sln", "check", "--n", "2", "--p", "2", "--seed", "-2"], ["verify", "--n", "2", "sln"],
] + [leaf + ["-h"] for leaf in LEAVES]


def _whole_tree(argv):
    # what the whole parser tree makes of argv: (Namespace or None, exit code, stdout, stderr)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli._parse_args(cli._preprocess(argv)), 0, "", ""
        except SystemExit as exc:
            code = 2 if exc.code not in (0, None) else 0
    return None, code, out.getvalue(), err.getvalue()


def _assert_main_parses_as_whole_tree(capsys, monkeypatch, argv):
    # main reads a plain argv straight from the command table and hands any
    # other to the whole tree; either way it must accept and reject exactly
    # what the whole tree does, with the same Namespace, output and code
    parsed = []
    for name in [n for n in vars(cli) if n.startswith("_cmd_")]:
        monkeypatch.setattr(cli, name, lambda args: parsed.append(args) or 0)
    code = main(list(argv))
    out, err = capsys.readouterr()
    args, want_code, want_out, want_err = _whole_tree(list(argv))
    assert (code, out, err) == (want_code, want_out, want_err)
    assert parsed == ([] if args is None else [args])
    direct = cli._direct(cli._preprocess(list(argv)))
    assert direct is None or direct == args
    return direct


@pytest.mark.parametrize("argv", PARSE_CORPUS + _benchmark_argvs(),
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_pruned_parse_matches_whole_tree(capsys, monkeypatch, argv):
    # the corpus and every benchmark argv; the direct parse reads only the
    # leaf that argv names
    _assert_main_parses_as_whole_tree(capsys, monkeypatch, argv)


def test_benchmark_argvs_take_the_direct_path(capsys, monkeypatch):
    assert all(cli._direct(cli._preprocess(argv)) is not None for argv in _benchmark_argvs())
    monkeypatch.setattr(cli, "build_parser", None)
    assert main(["sln", "check", "--n", "2", "--p", "3", "--seed=-2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"splitting": True}


# tokens a mutant inserts or puts in place of another: help, an abbreviation,
# "--", values that are bad, negative or need stripping, and tokens that
# keep a mutant plain
MUTATION_TOKENS = ["--", "-h", "--se", "--json=1", "-3", "--seed=-2", "--weyl-cap=0", "--p=x",
                   "", " 3", "--json", "--seed", "3", "--n", "--p=5", "2", "A2", "check",
                   "--weight", "-1,1", "--compat=1,2", "--term-cap=7", "--weight=--", "1"]


def _mutants(seed, count):
    # benchmark argvs with 1-3 tokens inserted, deleted or replaced
    rng = random.Random(seed)
    cases = _benchmark_argvs()
    out = []
    for _ in range(count):
        argv = list(rng.choice(cases))
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(argv) + 1)
            op = rng.choice(["insert", "delete", "replace"])
            if op == "insert" or not argv:
                argv.insert(i, rng.choice(MUTATION_TOKENS))
            elif op == "delete":
                del argv[min(i, len(argv) - 1)]
            else:
                argv[min(i, len(argv) - 1)] = rng.choice(MUTATION_TOKENS)
        out.append(argv)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_direct_parse_matches_whole_tree_on_mutants(capsys, monkeypatch, seed):
    direct = [_assert_main_parses_as_whole_tree(capsys, monkeypatch, argv)
              for argv in _mutants(seed, 150)]
    # both paths are taken
    assert 10 <= sum(d is not None for d in direct) <= 140


# a valid argv of every leaf, in LEAVES order
LEAF_ARGVS = [
    ["rs", "show", "A2"], ["weight", "reduce", "A2", "--weight", "1,0", "--degree", "1"],
    ["char", "weyl", "A2", "--weight", "1,0"], ["char", "euler", "A2", "--weight", "1,0"],
    ["char", "sym", "A2", "--degree", "1"], ["char", "ext", "A2", "--j", "1"],
    ["char", "trunc", "A2", "--p", "2"], ["filt", "A1", "--weight", "0", "--max-degree", "1"],
    ["g1", "A1", "--weight", "0", "--p", "2"], ["poly", "check", "--file", "f.json"],
    ["poly", "trace", "--file", "f.json", "--times", "g.json"],
    ["poly", "compat", "--file", "f.json", "--ideal", "x1"],
    ["sln", "build", "--n", "1", "--p", "2"], ["sln", "check", "--n", "1", "--p", "2"],
    ["sln", "mvk", "--n", "1", "--p", "2"], ["sln", "canonical", "--n", "1", "--p", "2"],
    ["sln", "parabolic", "--n", "1", "--p", "2", "--subset", "1"], ["verify", "fpoly"],
]


@pytest.mark.parametrize("argv", LEAF_ARGVS, ids=" ".join)
def test_double_dash_value_is_a_usage_error(capsys, monkeypatch, argv):
    # argparse drops a "--" value, so --weight -- (made --weight=-- to take
    # values like -1,1) reached the handler as [] and crashed, and
    # --compat -- ran as if no --compat had been given
    named = LEAVES[LEAF_ARGVS.index(argv)]
    assert argv[:len(named)] == named
    body = cli._COMMANDS[argv[0]][1]
    leaf = body[argv[1]] if isinstance(body, dict) else body
    flags = [name for name, kwargs in leaf if name.startswith("-")] + list(cli._COMMON_VALUE_FLAGS)
    for flag in flags:
        for tail in ([flag, "--"], [flag + "=--"]):
            assert _assert_main_parses_as_whole_tree(capsys, monkeypatch, argv + tail) is None
            assert main(argv + tail) == 2
            err = capsys.readouterr().err
            assert f"argument {flag}: expected one argument" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["char", "weyl", "A2", "--weight", "--"],
                                  ["sln", "mvk", "--n", "2", "--p", "3", "--compat", "--"],
                                  ["sln", "mvk", "--n", "2", "--p", "3", "--compat=--"]])
def test_double_dash_value_exits_2_without_a_traceback(argv):
    import os
    import subprocess
    import sys

    import flagsplit

    src = os.path.dirname(os.path.dirname(flagsplit.__file__))
    run = subprocess.run([sys.executable, "-m", "flagsplit.cli", *argv], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 2 and run.stdout == ""
    assert "expected one argument" in run.stderr and "Traceback" not in run.stderr


def test_cli_import_leaves_out_the_heavy_standard_modules():
    # every call pays for what importing flagsplit.cli loads; records are
    # NamedTuples and argparse runs only for help and usage errors, while the
    # benchmark's tracer needs every flagsplit module loaded (-S: no site hooks)
    import os
    import subprocess
    import sys

    import flagsplit

    src = os.path.dirname(os.path.dirname(flagsplit.__file__))
    probe = ("import json, sys\n"
             "from flagsplit import cli\n"
             "code = cli.main(['sln', 'check', '--n', '2', '--p', '3', '--json'])\n"
             "print(json.dumps([code, sorted(sys.modules)]))\n")
    run = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    code, modules = json.loads(run.stdout.splitlines()[-1])
    assert code == 0 and json.loads("".join(run.stdout.splitlines()[:-1])) == {"splitting": True}
    assert not {"dataclasses", "argparse", "fractions", "decimal", "inspect"} & set(modules)
    assert {f"flagsplit.{name}" for name in
            ("rootdata", "charalg", "fpoly", "slnsplit", "verify", "cli")} <= set(modules)
