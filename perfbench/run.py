"""erasurelab benchmark: one workload per run, timed in a single process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; erasurelab is imported from its
``src/`` directory.  The run imports the package once, builds the
workload's inputs from ``--seed``, discards one warm-up pass over the
command grid, then calls ``erasurelab.cli.main(argv)`` in-process over the
grid until ``--seconds`` have passed, capturing stdout.  Afterwards every
captured report is checked against ``oracle.py`` and the method's
properties.  BLAS is pinned to one thread before numpy loads (see
README.md).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 1`` the
metrics are the per-layer ones from extra traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("certify", "repair", "share")
SETUP_PROBES = 9  # fresh interpreters whose median set-up time is setup_s
TRACE_PASSES = 2
PROBE_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1,
                   help="threads for BLAS; 0 leaves the library default (reference runs only)")
    p.add_argument("--probe", action="store_true",
                   help="set up, print the time set-up ended, and exit (used for setup_s)")
    return p.parse_args(argv)


def import_erasurelab():
    """Import the package from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "erasurelab", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: {init} not found; run from the root of an erasurelab checkout")
    sys.path.insert(0, SRC)
    import erasurelab
    import erasurelab.cli

    if os.path.abspath(erasurelab.__file__) != init:
        sys.exit(f"error: imported erasurelab from {erasurelab.__file__}, not {init}")
    return erasurelab.cli


def run_command(cli, argv: list[str]) -> tuple[float, int, str, str]:
    """(seconds, exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        code = f"raised {exc!r}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_pass(cli, commands) -> tuple[float, list]:
    start = time.perf_counter()
    results = [run_command(cli, cmd.argv) for cmd in commands]
    return time.perf_counter() - start, results


def setup_probes(args) -> list[float]:
    """Set-up time of fresh interpreters doing exactly this run's set-up."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--blas-threads", str(args.blas_threads)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.blas_threads > 0:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            os.environ[var] = str(args.blas_threads)
    cli = import_erasurelab()
    import workloads  # imports numpy, so only after the thread count is set

    work_dir = os.path.join(OUT, f"inputs-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        commands = workloads.build(args.workload, args.seed, work_dir)
        if args.probe:
            print(time.monotonic())
            return 0
        result = measure(args, cli, commands, setup_probes(args))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, cli, commands, probes) -> dict:
    import spans
    import workloads

    run_pass(cli, commands)  # warm-up, discarded
    # the peak through set-up and one whole pass; later passes repeat the same
    # work, and how far the allocator's heap grows over them depends on how
    # many passes fit in the run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = []
    start = time.perf_counter()
    # stop before a pass that would end past --seconds
    while not passes or time.perf_counter() - start + passes[-1][0] <= args.seconds:
        passes.append(run_pass(cli, commands))
    pass_times = [t for t, _ in passes]
    print(f"{args.workload} seed {args.seed}: {len(passes)} timed passes, set-up probes "
          f"{', '.join(f'{p:.3f}' for p in probes)} s", file=sys.stderr)

    traced = []  # (pass seconds, results, {label: (calls, self ms)}, counts)
    if args.trace:
        tracer = spans.Tracer()
        missing = tracer.install()
        try:
            for _ in range(TRACE_PASSES):
                first, before = len(tracer.spans), dict(tracer.counts)
                elapsed, results = run_pass(cli, commands)
                counts = {k: tracer.counts[k] - before.get(k, 0) for k in spans.COUNTS}
                traced.append((elapsed, results, spans.summarize(tracer.spans, first), counts))
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(OUT, f"trace_{args.workload}.jsonl"))

    # every operation of every measured pass must give what the method must give
    attempted = failed = 0
    correct = True
    for results in [r for _, r in passes] + [t[1] for t in traced]:
        for cmd, (_, code, out, err) in zip(commands, results):
            attempted += 1
            problems = workloads.check_report(cmd, code, out, err)
            if problems:
                failed += 1
                # a command that produced a report and got it wrong is a wrong result
                correct = correct and not (isinstance(code, int) and out)
                print(f"FAILED {cmd.label}: {'; '.join(problems)}", file=sys.stderr)
    problems = workloads.library_checks(args.seed)
    for problem in problems:
        print(f"library check: {problem}", file=sys.stderr)
    correct = correct and not problems

    if args.trace:
        # a traced function that is gone would read 0 calls, not an improvement
        for name in missing:
            print(f"traced function {name} not found", file=sys.stderr)
            correct = False
        tables = [{label: calls for label, (calls, _) in t[2].items()} for t in traced]
        if any(t != tables[0] for t in tables) or any(t[3] != traced[0][3] for t in traced):
            print("traced passes disagree on call counts", file=sys.stderr)
            correct = False
        metrics = layer_metrics(traced, pass_times, spans)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "cmd_p50_ms": {"value": statistics.median(
                r[0] for _, results in passes for r in results) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_metrics(traced, pass_times, spans) -> dict:
    metrics = {}
    for label in spans.LABELS:
        metrics[f"{label}.calls"] = {"value": traced[0][2][label][0], "unit": "count"}
        self_ms = statistics.median(t[2][label][1] for t in traced)
        metrics[f"{label}.self_ms"] = {"value": self_ms, "unit": "ms"}
    for name, unit in spans.COUNTS.items():
        metrics[name] = {"value": traced[0][3][name], "unit": unit}
    traced_pass = statistics.median(t[0] for t in traced)
    untraced_pass = statistics.median(pass_times)
    metrics["trace.overhead_pct"] = {
        "value": (traced_pass - untraced_pass) / untraced_pass * 100, "unit": "%"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
