"""Checks of the benchmark itself: seeding, recorded digests, trace coverage.

Run from the root of a flagsplit checkout:

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cases  # noqa: E402
import run  # noqa: E402

with open(run.DIGESTS, encoding="utf-8") as _fh:
    DIGESTS = json.load(_fh)
REF_S = {k: v["ref_s"] for k, v in DIGESTS.items()}
SEEDS = range(20)


def _cheapest(workload: str, seed: int, k: int) -> list[tuple[str, ...]]:
    drawn = cases.draw(workload, seed, REF_S)
    return sorted(drawn, key=lambda c: REF_S[cases.case_id(c)])[:k]


def _counts(rep: dict) -> dict:
    # everything the trace records except times
    return {span: {k: v for k, v in fields.items() if k != "self_s"}
            for span, fields in rep["layers"].items()}


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_same_seed_same_list(workload):
    for seed in SEEDS:
        assert cases.draw(workload, seed, REF_S) == cases.draw(workload, seed, REF_S)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_different_seed_different_list(workload):
    lists = [cases.draw(workload, seed, REF_S) for seed in SEEDS]
    assert all(a != b for i, a in enumerate(lists) for b in lists[i + 1:])


def test_every_case_has_a_recorded_digest():
    ids = [cases.case_id(c) for c in cases.all_cases()]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(DIGESTS)
    assert all(d["code"] == 0 and len(d["sha256"]) == 64 for d in DIGESTS.values())


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_draws_balance_reference_time(workload):
    totals = [sum(REF_S[cases.case_id(c)] for c in cases.draw(workload, seed, REF_S))
              for seed in SEEDS]
    assert max(totals) <= (1 + 2 * cases.BALANCE) * min(totals)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_same_seed_same_counts(workload):
    # The two cheapest cases of the draw keep this test short; the counts
    # include .calls, fpoly.mul.term_pairs and exponents_enumerated.
    for case in _cheapest(workload, 7, 2):
        first, second = run.execute(case, 1), run.execute(case, 1)
        assert first["ok"] and second["ok"], (first, second)
        assert _counts(first) == _counts(second)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_traced_output_matches_untraced_and_record(workload):
    for case in _cheapest(workload, 3, 2):
        plain, traced = run.execute(case, 0), run.execute(case, 1)
        assert plain["ok"] and traced["ok"], (plain, traced)
        assert plain["sha256"] == traced["sha256"] == DIGESTS[cases.case_id(case)]["sha256"]


def test_trace_leaves_no_original_function_reachable():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import flagsplit.cli\n"
        "from flagsplit import charalg, cli, slnsplit\n"
        "from spans import Tracer\n"
        "t = Tracer(); t.install()\n"
        "assert t.unwrapped_references() == [], t.unwrapped_references()\n"
        "for f in (slnsplit.is_splitting_function, slnsplit.build_root_system,\n"
        "          charalg.parabolic_subset, cli.parse_system, slnsplit._build_chart):\n"
        "    assert hasattr(f, '__wrapped__'), f\n"
        "assert hasattr(flagsplit.fpoly.SparsePolynomial.__add__, '__wrapped__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, run.SRC, run.HERE],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        run.layer_metric_specs()
    assert [w["name"] for w in bench["workloads"]] == list(cases.WORKLOADS)


def _bench(cwd: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "perfbench/run.py", "--workload", "weyl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_refuses_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_under_optimize():
    proc = _bench(run.ROOT, "-O")
    assert proc.returncode != 0
    assert proc.stdout == ""
