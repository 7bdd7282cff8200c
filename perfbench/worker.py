"""Run one flagsplit command in this fresh interpreter and report on it.

Usage: python3 perfbench/worker.py SRC_DIR TRACE -- ARG...

Imports flagsplit from SRC_DIR, calls ``flagsplit.cli.main(ARGS)`` with
stdout captured, and prints one JSON line: the monotonic time at which the
import finished, the exit code, the time spent in ``main``, the SHA-256 and
size of the captured output, and the peak RSS.  With TRACE=1 it wraps the
public functions in spans first and adds their aggregates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    if sys.flags.optimize:
        print("worker: refusing to run under -O; flagsplit checks invariants with assert",
              file=sys.stderr)
        return 3
    src, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 3
    src = os.path.realpath(src)
    sys.path.insert(0, src)
    import flagsplit.cli as cli
    ready = time.monotonic()
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"worker: imported flagsplit from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        left = tracer.unwrapped_references()
        if left:
            print(f"worker: trace left original functions in place: {left}", file=sys.stderr)
            return 3

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    case_s = time.perf_counter() - start
    out = buf.getvalue().encode("utf-8")
    report = {
        "ready": ready,
        "code": code,
        "case_s": case_s,
        "sha256": hashlib.sha256(out).hexdigest(),
        "out_bytes": len(out),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["layers"] = tracer.snapshot()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
