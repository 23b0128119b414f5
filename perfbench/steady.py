"""Steadiness of the benchmark: the same code measured as two sets of runs.

    python3 perfbench/steady.py [--runs 10] [--workloads cloud6,query] [--first-seed 1]

Runs perfbench/run.py one run at a time, each with its own seed and the
run length of BENCHMARK.json, for every workload (from BENCHMARK.json
unless --workloads is given), as two sets of --runs runs.  For each
end-to-end metric and set it prints the median, the quartiles and the
spread (interquartile range over median) against the metric's bound,
and the shift of the second set's median from the first's.  It fails
(exit 1) when a spread exceeds its bound (setup_s's too), when the
median shifts the worse way by more than its bound, or when the share
of failed operations differs between the sets.  Every run's result line,
with its seed and elapsed time, goes to perfbench/out/steady-runs.jsonl
and the summary to perfbench/out/steady.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d: %s"
                           % (workload, seed, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    summary, ok = {}, True
    with open(out_dir / "steady-runs.jsonl", "a") as log:
        for workload in args.workloads.split(","):
            results = []
            for s in range(SETS):
                batch = []
                for i in range(args.runs):
                    seed = args.first_seed + s * args.runs + i
                    start = time.perf_counter()
                    result = run_once(workload, seed, spec["run_seconds"])
                    log.write(json.dumps(dict(result, workload=workload, seed=seed,
                                              elapsed_s=time.perf_counter() - start)) + "\n")
                    log.flush()
                    if not result["correct"]:
                        print("%s seed %d: checks failed" % (workload, seed))
                        ok = False
                    batch.append(result)
                results.append(batch)
            summary[workload], workload_ok = report(workload, results, metrics)
            ok = ok and workload_ok
    (out_dir / "steady.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


def report(workload, results, metrics):
    """Print and return each metric's two set summaries; ok is False when
    a spread or the worse-way shift exceeds the bound, or when the share
    of failed operations differs between the sets."""
    ok = True
    first, second = ({"failed": sum(r["failed"] for r in batch),
                      "attempted": sum(r["attempted"] for r in batch)} for batch in results)
    print("%s: failed/attempted per set %d/%d, %d/%d" % (
        workload, first["failed"], first["attempted"], second["failed"], second["attempted"]))
    if first["failed"] * second["attempted"] != second["failed"] * first["attempted"]:
        ok = False
    out = {}
    for name, m in metrics.items():
        sets = [summarize([r["metrics"][name]["value"] for r in batch]) for batch in results]
        shift = sets[1]["median"] / sets[0]["median"] - 1
        worse = shift if m["better"] == "lower" else -shift
        for i, st in enumerate(sets):
            bad = st["spread"] > m["bound"] or (i == 1 and worse > m["bound"])
            ok = ok and not bad
            print("  %-14s set %d  median %12.6g %-3s  q1 %12.6g  q3 %12.6g  "
                  "spread %6.3f  shift %+6.3f  bound %.3f%s"
                  % (name, i + 1, st["median"], m["unit"], st["q1"], st["q3"],
                     st["spread"], shift if i else 0.0, m["bound"], "  OVER" if bad else ""))
        out[name] = {"sets": sets, "shift": shift}
    return out, ok

if __name__ == "__main__":
    sys.exit(main())
