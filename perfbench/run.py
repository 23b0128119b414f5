"""Benchmark of bichroma: one seeded workload per run, one process, one client.

    python3 perfbench/run.py --workload cloud6 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ./src.
The run builds the workload's inputs from the seed (set-up), repeats the
workload's fixed round of requests until --seconds are spent (at least
the workload's MIN_ROUNDS, one unless it says otherwise), then checks
the outputs of the last round against independent computations and that
every round gave the same outputs.  Times are the best of the rounds:
wall_s is the fastest round, query_p50_ms the median over requests of
each request's fastest latency.  With --trace 1 it then runs one more
round with every public function of the package traced (tracing.py) and
reports the per-layer metrics instead, with the tracing overhead against
the untraced best round.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

import time

_STARTED = time.perf_counter()  # fallback for the process start time

import os

# The program calls no BLAS routine (numpy only does elementwise work), so
# OpenBLAS's pool of nproc threads is never used; started at import it
# only adds thread start-up jitter to setup_s on a small shared machine.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import API, WORKLOADS, call  # noqa: E402

MODULES = ("engine", "enumeration", "graphs", "invariance", "polynomial", "roots")
SHOWN_ERRORS = 20
P99_SAMPLES = 1000  # so that ten requests lie beyond the 99th percentile


def since_process_start():
    """Seconds since the kernel started this process (10 ms ticks), or
    since this file began to run where /proc is not available."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - started
        if 0 < elapsed < 600:
            return elapsed
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _STARTED


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def client_api(modules, tracer=None):
    """The functions a workload calls, and `call`, through which it makes
    each request; all wrapped when tracing."""
    api = {"call": tracer.wrap("client", "request", call) if tracer else call}
    for layer, names in API.items():
        for name in names:
            fn = getattr(modules[layer], name)
            api[name] = tracer.wrap(layer, name, fn) if tracer else fn
    return SimpleNamespace(**api)


def run_rounds(workload, api, seconds):
    """Whole rounds, at least the workload's MIN_ROUNDS, then more while
    the next one should end within `seconds`.

    Only one round's output is kept at a time, so a round allocates as a
    single call of the program would.  Returns the last round's output,
    the wall time of each round, the latency of every request of every
    round in round order (None where it failed), the failures and
    whether every round's output had the same digest.
    """
    walls, latencies, failures = [], [], []
    output, digest, same = None, None, True
    min_rounds = getattr(workload, "MIN_ROUNDS", 1)
    begin = time.perf_counter()
    while True:
        output = None
        start = time.perf_counter()
        output = workload.run_round(api, latencies, failures)
        walls.append(time.perf_counter() - start)
        if digest is None:
            digest = workload.digest(output)
        else:
            same = same and workload.digest(output) == digest
        if (len(walls) >= min_rounds
                and time.perf_counter() - begin + statistics.median(walls) > seconds):
            return output, walls, latencies, failures, same


def best_latencies(latencies, rounds):
    """Each request's fastest latency over the rounds; requests that
    failed (None) are left out."""
    per_round = len(latencies) // rounds
    best = []
    for i in range(per_round):
        times = [t for t in latencies[i::per_round] if t is not None]
        if times:
            best.append(min(times))
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "bichroma" / "__init__.py").is_file():
        print("perfbench: no package source at %s" % (src / "bichroma"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bichroma
    modules = {name: importlib.import_module("bichroma." + name) for name in MODULES}
    workload = WORKLOADS[args.workload](bichroma, args.seed)
    setup_s = since_process_start()

    last, walls, latencies, failures, same = run_rounds(
        workload, client_api(modules), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = min(walls)
    attempted = len(latencies)
    latencies = best_latencies(latencies, len(walls))

    check_start = time.perf_counter()
    errors = workload.check(last)
    if not same:
        errors.append("the rounds' outputs differ from one another")
    digest = workload.digest(last)
    check_s = time.perf_counter() - check_start
    del last

    if args.trace:
        tracer, traced_failures = Tracer(), []
        tracer.install(modules)
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            output = workload.run_round(client_api(modules, tracer), [], traced_failures)
        finally:
            traced_s = time.perf_counter() - start
            cpu_s = time.process_time() - cpu
            tracer.uninstall()
        if traced_failures or workload.digest(output) != digest:
            errors.append("the traced round's outputs differ from the untraced round's")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / ("trace-%s-%d.json" % (args.workload, args.seed)),
                           {"workload": args.workload, "seed": args.seed,
                            "traced_s": traced_s, "untraced_s": wall_s})
        metrics = tracer.metrics(cpu_s, traced_s / wall_s - 1)
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "query_p50_ms": (percentile(latencies, 50) * 1e3 if latencies else 0.0, "ms"),
        }

    print("workload %s, seed %d: %d round(s) of %s s, %d calls attempted, %d failed"
          % (args.workload, args.seed, len(walls), "/".join("%.2f" % w for w in walls),
             attempted, len(failures)))
    for message in failures[:SHOWN_ERRORS]:
        print("  failed: %s" % message)
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, unit))
    if not args.trace and len(latencies) >= P99_SAMPLES:
        # shown, not reported: too unsteady on a shared machine to gate on
        print("  %-32s %14.6g ms (%d requests, not in the result)"
              % ("query_p99_ms", percentile(latencies, 99) * 1e3, len(latencies)))
    print("checks: %s in %.1f s" % ("passed" if not errors else "%d failed" % len(errors),
                                    check_s))
    for message in errors[:SHOWN_ERRORS]:
        print("  check: %s" % message)
    passes = getattr(workload, "root_passes", None)
    if passes:
        print("numeric roots within the residual bound: %d; within the distance bound,"
              " where no double can meet the residual bound: %d"
              % (passes["residual"], passes["distance"]))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
