"""Record the exit code, stdout SHA-256 and reference time of every case.

Run from the root of a flagsplit checkout whose outputs are the reference:

    python3 perfbench/record.py

It runs every case of every family once per round, for ROUNDS rounds, so a
case's runs lie minutes apart, and writes perfbench/digests.json.  It
refuses to record a case that does not exit 0, because every case of the
benchmark is one that succeeds, or whose output differs between runs.  The
reference time, the median of a case's scaled times (run.execute), is what
cases.draw balances the drawn lists on.
"""

from __future__ import annotations

import json
import statistics
import sys

from cases import all_cases, case_id
from run import DIGESTS, execute


ROUNDS = 5


def main() -> int:
    reps: dict[str, list[dict]] = {case_id(c): [] for c in all_cases()}
    for _ in range(ROUNDS):
        for case in all_cases():
            rep = execute(case, 0)
            if not rep["ok"] or rep["code"] != 0:
                print(f"record.py: {case_id(case)}: {rep.get('why') or rep['code']}",
                      file=sys.stderr)
                return 1
            reps[case_id(case)].append(rep)
    digests = {}
    for cid, runs in reps.items():
        if len({r["sha256"] for r in runs}) != 1:
            print(f"record.py: {cid}: output differs between runs", file=sys.stderr)
            return 1
        ref_s = statistics.median(r["main_s"] for r in runs)
        digests[cid] = {"code": 0, "sha256": runs[0]["sha256"], "ref_s": round(ref_s, 4)}
        print(f"{ref_s:8.3f} s  {cid}", file=sys.stderr)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
