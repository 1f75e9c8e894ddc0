"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py --runs 10

Runs every workload for BENCHMARK.json's ``run_seconds`` in N fresh
processes, one seed per round, alternating the order of the workloads
between rounds.  For each workload and metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread (q3 - q1) /
median, which is what the bounds in BENCHMARK.json are checked against,
plus the share of failed operations.  Raw results go to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RUN_TIMEOUT_S = 300


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1, help="round r uses seed seed0 + r")
    p.add_argument("--blas-threads", type=int, default=1)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]

    results = {w: [] for w in WORKLOADS}
    for r in range(args.runs):
        order = WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]
        for w in order:
            cmd = [sys.executable, RUN, "--workload", w, "--seed", str(args.seed0 + r),
                   "--seconds", str(run_seconds), "--trace", "0",
                   "--blas-threads", str(args.blas_threads)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                                  cwd=ROOT)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            results[w].append(result)
            values = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"round {r} {w} seed {args.seed0 + r}: {values}", flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "results": results}, fh, indent=1)

    print(f"\n{'workload':8} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7}")
    for w, runs in results.items():
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(f"{w:8} {name:12} {med:10.4g} {q1:10.4g} {q3:10.4g} {(q3 - q1) / med:7.2%}")
        shares = {run["failed"] / run["attempted"] for run in runs}
        correct = all(run["correct"] for run in runs)
        print(f"{w:8} failed share {sorted(shares)}, correct {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
