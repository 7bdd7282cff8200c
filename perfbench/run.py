"""Benchmark of the flagsplit command line, one fresh interpreter per case.

Run from the root of a flagsplit checkout:

    python3 perfbench/run.py --workload sections --seed 1 --seconds 30 --trace 0

The seed draws the run's cases from the workload's family (see cases.py).
A closed loop with one client runs them one at a time, each as
``flagsplit.cli.main(ARGS)`` in its own interpreter (worker.py), and checks
each output against the SHA-256 recorded in digests.json.  With --trace 0
the drawn list is run in passes for --seconds and the end-to-end metrics are
reported; with --trace 1 the list runs once untraced and once with spans
around every public function, and the per-layer metrics are reported.  The
last line of stdout is one JSON object; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from cases import WORKLOADS, all_cases, case_id, draw

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")

CASE_TIMEOUT_S = 60
# The speed probe's time on a quiet 2-core Xeon VM at 2.1 GHz; case times
# are scaled to the speed at which the probe takes this long.
PROBE_REF_S = 0.003
# Cases not started by then count as failed, so a run ends within 180 s.
RUN_DEADLINE_S = 110

# (span, reported fields) in the order they are printed; every span's
# `calls` and `self_s` come from the same wrapper, the other fields are
# sizes recorded by spans.SIZERS.
LAYERS = [
    ("charalg.decompose_good_filtration", ("calls", "self_s", "support_in", "entries_out")),
    ("charalg.weyl_character", ("calls", "self_s", "distinct")),
    ("charalg.sym_power_graded", ("calls", "self_s")),
    ("charalg.module_euler", ("calls", "self_s")),
    ("charalg.graded_section_char", ("calls", "self_s")),
    ("charalg.truncated_char", ("calls", "self_s")),
    ("rootdata.weyl_orbit", ("calls", "self_s", "weights_out")),
    ("rootdata.make_dominant", ("calls", "self_s")),
    ("rootdata.to_simple_coords", ("calls", "self_s")),
    ("rootdata.dot_action", ("calls", "self_s")),
    ("rootdata.build_root_system", ("calls",)),
    ("fpoly.mul", ("calls", "self_s", "term_pairs", "terms_out")),
    ("fpoly.pow", ("calls", "self_s")),
    ("fpoly.add", ("calls", "self_s")),
    ("fpoly.substitute", ("calls", "self_s")),
    ("fpoly.frobenius_trace", ("calls", "self_s")),
    ("fpoly.splits_ideal_compatibly", ("calls", "self_s", "exponents_enumerated")),
    ("fpoly.is_splitting_function", ("calls", "self_s")),
    ("slnsplit.build_chart", ("calls", "self_s", "distinct", "terms_out")),
    ("slnsplit.mvk_component", ("calls", "self_s")),
    ("slnsplit.check_chart_splitting", ("calls", "self_s")),
    ("slnsplit.compat_check", ("calls", "self_s")),
    ("slnsplit.canonical_check", ("calls", "self_s")),
    ("slnsplit.springer_equivariance_ok", ("calls", "self_s")),
    ("verify.run_suite", ("calls", "self_s")),
    ("verify.suite_rootdata", ("self_s",)),
    ("verify.suite_fpoly", ("self_s",)),
    ("verify.suite_sln", ("self_s",)),
    ("cli.main", ("self_s", "out_bytes")),
]

# Derived ratios: (name, numerator, denominator, unit, better).  The
# denominator is the base count, reported as its own metric.
RATIOS = [
    ("charalg.weyl_character.distinct_per_call",
     "charalg.weyl_character.distinct", "charalg.weyl_character.calls", "ratio", "higher"),
    ("slnsplit.build_chart.distinct_per_call",
     "slnsplit.build_chart.distinct", "slnsplit.build_chart.calls", "ratio", "higher"),
    ("fpoly.mul.term_pairs_per_call",
     "fpoly.mul.term_pairs", "fpoly.mul.calls", "pairs/call", "lower"),
]

END_TO_END = [("wall_s", "s"), ("case_ms_p50", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s")]


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for span, fields in LAYERS:
        for field in fields:
            unit = {"self_s": "s", "out_bytes": "bytes"}.get(field, "count")
            specs.append((f"{span}.{field}", unit, "lower"))
    specs += [(name, unit, better) for name, _, _, unit, better in RATIOS]
    specs.append(("trace.overhead_frac", "ratio", "lower"))
    return specs


def speed_probe() -> float:
    """Fastest of five runs of a fixed pure-Python loop, in seconds.

    It runs in this process, which never imports flagsplit, so nothing the
    program does to its own interpreter can change it.
    """
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    return best


def execute(case: tuple[str, ...], trace: int) -> dict:
    """Run one case in a fresh worker; the report, or why there is none.

    ``main_s`` is the worker's time in ``cli.main`` scaled by the speed
    probes taken just before and just after it, so that the drift of a
    shared machine's speed over seconds and minutes cancels out.
    """
    probe_before = speed_probe()
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, SRC, str(trace), "--", *case],
            capture_output=True, text=True, timeout=CASE_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"case": case_id(case), "ok": False, "why": f"timed out after {CASE_TIMEOUT_S} s"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"case": case_id(case), "ok": False,
                "why": f"worker exited {proc.returncode}: {proc.stderr[-400:]}"}
    rep = json.loads(lines[-1])
    scale = 2 * PROBE_REF_S / (probe_before + speed_probe())
    rep.update(case=case_id(case), ok=True, setup_s=rep["ready"] - spawn,
               scale=scale, main_s=rep["case_s"] * scale)
    return rep


class Runner:
    """Runs cases and checks each against its recorded exit code and digest."""

    def __init__(self, digests: dict[str, dict]):
        self.digests = digests
        self.start = time.monotonic()

    def run_case(self, case: tuple[str, ...], trace: int) -> dict:
        if time.monotonic() - self.start > RUN_DEADLINE_S:
            return {"case": case_id(case), "ok": False,
                    "why": "not started before the run deadline"}
        rep = execute(case, trace)
        expected = self.digests[case_id(case)]
        if rep["ok"] and rep["code"] != expected["code"]:
            rep.update(ok=False, why=f"exit code {rep['code']}, recorded {expected['code']}")
        elif rep["ok"] and rep["sha256"] != expected["sha256"]:
            rep.update(ok=False, why="output differs from the recorded digest")
        return rep

    def run_pass(self, cases, trace: int) -> list[dict]:
        return [self.run_case(case, trace) for case in cases]


def end_to_end(runner: Runner, cases, seconds: float) -> tuple[list[dict], dict]:
    # Whole passes over the drawn list; a pass starts only if one more of
    # the last pass's length still fits in the run.
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(runner.run_pass(cases, 0))
        took = time.monotonic() - t0
        if time.monotonic() - runner.start + took > seconds:
            break
    results = [r for p in passes for r in p]
    per_case = []
    for i in range(len(cases)):
        times = [p[i]["main_s"] for p in passes if "main_s" in p[i]]
        if times:
            per_case.append(statistics.median(times))
    setups = [r["setup_s"] for r in results if "setup_s" in r]
    rss = [r["rss_kb"] for r in results if "rss_kb" in r]
    values = {
        "wall_s": sum(per_case),
        "case_ms_p50": 1000 * statistics.median(per_case) if per_case else 0.0,
        "peak_rss_mb": max(rss) / 1024 if rss else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
    }
    print(f"{len(passes)} passes of {len(cases)} cases", file=sys.stderr)
    return results, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(runner: Runner, cases) -> tuple[list[dict], dict]:
    plain = runner.run_pass(cases, 0)
    traced = runner.run_pass(cases, 1)
    for p, t in zip(plain, traced):
        if t.get("ok") and p.get("sha256") != t["sha256"]:
            t.update(ok=False, why="traced output differs from the untraced output")
    totals: dict[str, float] = {}
    for rep in traced:
        for span, fields in rep.get("layers", {}).items():
            for field, v in fields.items():
                key = f"{span}.{field}"
                totals[key] = totals.get(key, 0) + (v * rep["scale"] if field == "self_s" else v)
        if "out_bytes" in rep:
            totals["cli.main.out_bytes"] = totals.get("cli.main.out_bytes", 0) + rep["out_bytes"]
    for name, num, den, _, _ in RATIOS:
        totals[name] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
    plain_s = sum(r.get("main_s", 0.0) for r in plain)
    traced_s = sum(r.get("main_s", 0.0) for r in traced)
    totals["trace.overhead_frac"] = traced_s / plain_s - 1 if plain_s else 0.0
    for name, num, den, _, _ in RATIOS:
        print(f"{name}: {totals.get(num, 0):.0f} / {totals.get(den, 0):.0f} {den}"
              f" = {totals[name]:.4f}", file=sys.stderr)
    metrics = {name: {"value": totals.get(name, 0), "unit": unit}
               for name, unit, _ in layer_metric_specs()}
    return plain + traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        print("run.py: refusing to run under -O: flagsplit checks its invariants "
              "with assert, and -O would time a program that skips them", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "flagsplit", "cli.py")):
        print(f"run.py: no flagsplit sources under {SRC}; run from a flagsplit checkout",
              file=sys.stderr)
        return 2
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    missing = [case_id(c) for c in all_cases() if case_id(c) not in digests]
    if missing:
        print(f"run.py: no recorded digest for {missing}", file=sys.stderr)
        return 2
    cases = draw(args.workload, args.seed, {k: v["ref_s"] for k, v in digests.items()})

    # Compile the sources once, so no timed case pays for writing bytecode.
    subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); "
                    "import flagsplit.cli"], cwd=ROOT, capture_output=True, timeout=CASE_TIMEOUT_S)

    runner = Runner(digests)
    if args.trace:
        results, metrics = per_layer(runner, cases)
    else:
        results, metrics = end_to_end(runner, cases, args.seconds)
    failed = [r for r in results if not r["ok"]]
    for r in failed:
        print(f"failed: {r['case']}: {r['why']}", file=sys.stderr)
    print(f"failed_frac {len(failed)}/{len(results)} = {len(failed) / len(results):.4f}",
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
