"""The closed loop, the answer check and the traced run of one workload.

The loop is closed, with one caller: each check is a `bssyt.cli.main(argv)`
call that starts only when the previous one has returned.  The run is made
of whole passes.  A pass holds one check from each slot of the workload in
pins.json: the seeded generator draws the slot's alternative afresh for
every pass and sets the order of the pass.  Each answer is compared with
its pinned value; an exception, a non-zero exit or a differing value counts
as a failed check and the loop goes on.
"""

import io
import json
import math
import os
import random
import resource
import statistics
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout

from bssyt import cli

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The tail percentile of each workload: p98 where a run holds thousands of
# checks, p75 where it holds tens.  check_ms.tail is the median time of the
# checks beyond it.  A batch of a few checks of very different cost leaves
# gaps between them, and the order statistic at p75 of large-shapes fell in
# one and jumped across it from run to run; the median of the checks beyond
# lies among the batch's slowest checks, and, unlike their mean, it is not
# moved by the few checks the host happens to stall.  A run goes on past its
# deadline until at least TAIL_BEYOND checks lie beyond the percentile.  It
# is fixed per workload so that runs of different lengths stay comparable.
TAIL_PERCENTILE = {"desk-sweep": 98, "hecke-words": 75, "large-shapes": 75}
TAIL_BEYOND = 10
# No pass starts after this many seconds, whatever the deadline.
HARD_STOP_S = 120


def load_slots(workload, seed):
    """The workload's slots, each a list of (argv, pinned answer)
    alternatives, and the seeded generator that draws the passes."""
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)
    slots = [
        [(entry["argv"] + ["--format", "json"], entry["expect"]) for entry in slot]
        for slot in pins[workload]
    ]
    return slots, random.Random(seed)


def check(main, argv, expect):
    """Run one check; return its time in seconds and why it failed, if it did."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        return time.perf_counter() - start, f"raised {exc!r}"
    took = time.perf_counter() - start
    if code != 0:
        return took, f"exit code {code}: {err.getvalue().strip()[:200]}"
    try:
        doc = json.loads(out.getvalue())
    except ValueError:
        return took, "output is not JSON"
    for key, want in expect.items():
        if doc.get(key) != want:
            return took, f"{key!r} differs from its pinned value"
    return took, None


def run_passes(slots, rng, mains, budget_s, min_samples=1, after_pass=None):
    """Whole passes over the slots until the budget is spent.

    Each check runs once through every entry point in `mains`, back to back,
    so a traced call is paired in time with its untraced twin.  Times are
    kept per entry point.
    """
    # Times are kept unboxed, so the benchmark's own memory hardly grows with
    # the number of checks and peak_rss_mb stays the program's.
    samples = [array("d") for _ in mains]
    pass_s = [[] for _ in mains]
    walls, failures = [], []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        busy = [0.0] * len(mains)
        batch = [rng.choice(slot) for slot in slots]
        rng.shuffle(batch)
        for argv, expect in batch:
            for m, main in enumerate(mains):
                took, why = check(main, argv, expect)
                samples[m].append(took * 1e3)
                busy[m] += took
                if why is not None:
                    failures.append(f"{' '.join(argv)}: {why}")
        for m, seconds in enumerate(busy):
            pass_s[m].append(seconds)
        if after_pass is not None:
            after_pass(len(walls))
        now = time.perf_counter()
        walls.append(now - pass_started)
        elapsed = now - started
        if elapsed > HARD_STOP_S:
            break
        if len(samples[0]) >= min_samples and elapsed + statistics.median(walls) > budget_s:
            break
    return {"check_ms": samples, "pass_s": pass_s, "failures": failures}


def timed(slots, rng, seconds, workload):
    """The end-to-end figures of one untraced run.

    Whole passes run until the next one would end after the deadline, or
    until the tail percentile has TAIL_BEYOND checks beyond it if that takes
    longer.
    """
    percentile = TAIL_PERCENTILE[workload]
    needed = math.ceil(TAIL_BEYOND / (1 - percentile / 100))
    run = run_passes(slots, rng, (cli.main,), seconds, min_samples=needed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = sorted(run["check_ms"][0])
    rank = math.ceil(percentile / 100 * len(samples))
    if len(samples) - rank < TAIL_BEYOND:
        raise RuntimeError(f"{len(samples)} checks are too few for the p{percentile} tail")
    return {
        "checks_per_s": len(samples) / sum(run["pass_s"][0]),
        "check_ms.p50": statistics.median(samples),
        "check_ms.tail": statistics.median(samples[rank:]),
        "peak_rss_mb": peak_rss_mb,
        "tail_percentile": percentile,
        "beyond_tail": len(samples) - rank,
        "attempted": len(samples),
        "passes": len(run["pass_s"][0]),
        "failures": run["failures"],
    }


def traced(slots, rng, seconds, workload, seed):
    """Every check untraced, then traced; per-layer figures per pass.

    The overhead is the median over passes of traced minus untraced time;
    both come from the same passes, so drift in machine speed cancels.
    """
    tracer = Tracer()
    per_pass, spans = [], []

    def after_pass(index):
        per_pass.append(tracer.pass_metrics())
        spans.extend(tracer.span_records(index))
        tracer.reset()

    def traced_main(argv):
        tracer.install()
        try:
            return tracer.span("cli.main", "cli", cli.main, argv)
        finally:
            tracer.uninstall()

    run = run_passes(slots, rng, (cli.main, traced_main), seconds, after_pass=after_pass)
    absent = tracer.absent_metrics()
    layers = {
        name: statistics.median(p[name] for p in per_pass)
        for name in per_pass[0]
        if name not in absent
    }
    plain_s, traced_s = run["pass_s"]
    overhead = statistics.median(t - p for p, t in zip(plain_s, traced_s))
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_frac"] = overhead / statistics.median(plain_s)

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans_file = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    with open(spans_file, "w") as fh:
        json.dump({
            "workload": workload,
            "seed": seed,
            "columns": ["pass", "id", "parent", "name", "start_s", "dur_s", "self_s"],
            "spans": spans,
            "per_pass": per_pass,
        }, fh)
    return {
        "attempted": sum(len(samples) for samples in run["check_ms"]),
        "failures": run["failures"],
        "layers": layers,
        "absent_metrics": absent,
        "absent_bindings": tracer.absent,
        "passes": len(plain_s),
        "spans_file": os.path.relpath(spans_file, ROOT),
    }
