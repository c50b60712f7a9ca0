"""The bssyt benchmark: one workload per call, each in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`, so
nothing needs installing.  The workloads are desk-sweep, large-shapes and
hecke-words; perfbench/README.md describes them, and their pools and pinned
answers live in perfbench/pins.json, written by perfbench/pin.py.

With `--trace 0` the run is untraced and prints the end-to-end metrics;
with `--trace 1` it prints the per-layer metrics of a separate traced run
and the tracing overhead.  The seed draws each pass's checks from the pools
and sets their order; the program only ever sees the generated argv.  Every
answer is compared with its pinned value.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("desk-sweep", "large-shapes", "hecke-words")

# set-up is timed in this many fresh interpreters after one discarded warm-up
SETUP_RUNS = 7
WORKER_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def start_worker(mode, workload, seed, seconds, timeout):
    """Run worker.py in a fresh, isolated interpreter; return its JSON result."""
    cmd = [sys.executable, "-I", WORKER, mode, workload, str(seed), str(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish within {timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload, seed):
    """Median time from spawning an interpreter to its inputs being ready."""
    setup, imports = [], []
    for _ in range(SETUP_RUNS + 1):
        spawned = time.monotonic()
        doc = start_worker("setup", workload, seed, 0, 60)
        setup.append(doc["ready"] - spawned)
        imports.append(doc["import_s"])
    return statistics.median(setup[1:]), statistics.median(imports[1:])


def commit_of_checkout():
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    setup_s, _ = measure_setup(workload, seed)
    run = start_worker("timed", workload, seed, seconds, WORKER_TIMEOUT_S)
    units = {"checks_per_s": "1/s", "check_ms.p50": "ms", "check_ms.tail": "ms", "peak_rss_mb": "MB"}
    metrics = {"setup_s": metric(setup_s, "s")}
    metrics.update((name, metric(run[name], unit)) for name, unit in units.items())
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
        "checks_per_s": f"{run['passes']} passes of {run['checks_per_pass']} checks",
        "check_ms.tail": f"median of the {run['beyond_tail']} checks beyond "
                         f"p{run['tail_percentile']} of {run['attempted']}",
    }
    detail = {
        "tail_percentile": run["tail_percentile"],
        "samples": run["attempted"],
        "beyond_tail": run["beyond_tail"],
        "passes": run["passes"],
    }
    return run, metrics, notes, detail


def per_layer(workload, seed, seconds):
    _, import_s = measure_setup(workload, seed)
    run = start_worker("traced", workload, seed, seconds, WORKER_TIMEOUT_S)
    units = layer_units()
    metrics = {"setup.import_s": metric(import_s, "s")}
    for name, value in run["layers"].items():
        metrics[name] = metric(value, units[name])
    notes = {name: "absent: a binding it needs is gone" for name in run["absent_metrics"]}
    detail = {
        "absent_metrics": run["absent_metrics"],
        "absent_bindings": run["absent_bindings"],
        "passes": run["passes"],
        "spans_file": run["spans_file"],
    }
    return run, metrics, notes, detail


def layer_units():
    sys.path.insert(0, HERE)
    from tracer import METRICS

    units = {name: unit for name, (unit, _) in METRICS.items()}
    units.update({"trace.overhead_s": "s", "trace.overhead_frac": "fraction"})
    return units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bssyt", "__init__.py")):
        print(f"error: no bssyt package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        run, metrics, notes, detail = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = run["attempted"], run["failed"]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"python={sys.version.split()[0]} nproc={os.cpu_count()} commit={commit_of_checkout()}"
    )
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{note}")
    for name in detail.get("absent_metrics", ()):
        print(f"  {name:34s} absent")
    print(f"  {'failed_frac':34s} {failed / attempted:.6g}  ({failed} of {attempted} checks)")
    for line in run["failures_shown"]:
        print(f"  FAILED {line}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit_of_checkout(),
        "checks_per_pass": run["checks_per_pass"],
        "failed_frac": failed / attempted,
        **detail,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
