"""One benchmark workload in a fresh interpreter; started by run.py.

    python3 -I perfbench/worker.py MODE WORKLOAD SEED SECONDS

MODE is `setup` (import the package, load the pinned inputs, report when
they were ready and exit), `timed` (the closed loop, untraced) or `traced`
(every check run untraced and then traced, back to back).  The last line of
standard output is one JSON object.

Only os, sys and time are imported before `bssyt`, so the import time it
reports includes every module the package pulls in.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
FAILURES_SHOWN = 5


def main():
    mode, workload, seed, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    started = time.perf_counter()
    import bssyt.cli  # noqa: F401  (timed as the import layer)

    import_s = time.perf_counter() - started
    import json

    from harness import load_slots, timed, traced

    slots, rng = load_slots(workload, seed)
    ready = time.monotonic()
    if mode == "setup":
        result = {"ready": ready, "import_s": import_s}
    elif mode == "timed":
        result = timed(slots, rng, seconds, workload)
    elif mode == "traced":
        result = traced(slots, rng, seconds, workload, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["checks_per_pass"] = len(slots)
    failures = result.pop("failures", [])
    result["failed"] = len(failures)
    result["failures_shown"] = failures[:FAILURES_SHOWN]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
