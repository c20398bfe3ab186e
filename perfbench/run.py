"""qhaar benchmark: exact Gram matrices and linear-system oracles, end to end
and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass of the workload runs in a fresh
interpreter (perfbench/worker.py), so the library's caches start empty.  A
round is two passes side by side, one per core.  A run makes rounds until
their timed loops add up to --seconds (at least one round) and reports
medians over its passes.  With --trace 0 the second pass takes the items
in the reverse of the seed's order, since what the caches hold when an
item starts depends on the order, and the run prints the end-to-end
metrics.  With --trace 1 the second pass takes the same order, traced, and
the run prints the per-layer metrics; the tracing overhead is the
difference of the two passes' wall times, which share the same machine
load.  Every item's exact output is checked against an independent route
and against the digest recorded from the seed library; a disagreement
counts as failed and makes "correct" false.  The last line of standard
output is the JSON result.
"""

import argparse
import itertools
import signal
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("gram-direct-cold", "gram-closed", "oracle")
RUN_LIMIT_S = 170.0
# set-up-only processes per untraced run, besides the two timed passes
SETUP_PROBES = 4

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "max_item_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "algebra.product_s": "s",
    "algebra.product_terms": "count",
    "haar.state_s": "s",
    "haar.terms_per_s": "1/s",
    "haar.pseudo_check_s": "s",
    "corep.closed_check_s": "s",
    "corep.gram_closed_s": "s",
    "corep.gram_schmidt_s": "s",
    "scalars.evaluate_s": "s",
    "corep.entries": "count",
    "corep.entries_per_s": "1/s",
    "linsys.build_s": "s",
    "linsys.solve_s": "s",
    "linsys.source_s": "s",
    "linsys.rows": "count",
    "linsys.unknowns": "count",
    "linsys.useful_row_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def start(workload, seed, trace, *flags):
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--spawn", repr(time.monotonic()), *flags]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def finish(procs, deadline):
    """Wait for every started pass; the JSON result of each, in order."""
    results = []
    try:
        for proc in procs:
            try:
                out, err = proc.communicate(
                    timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail("a pass did not finish within the run's time limit")
            sys.stderr.write(err)
            if proc.returncode != 0:
                fail("a pass exited with code %d" % proc.returncode)
            results.append(json.loads(out.splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return results


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not (ROOT / "src" / "qhaar" / "__init__.py").is_file():
        fail("no qhaar sources under %s" % (ROOT / "src"))
    # on SIGTERM, exit through finish(), which stops the passes it started
    signal.signal(signal.SIGTERM, lambda *_: fail("terminated"))

    deadline = time.monotonic() + RUN_LIMIT_S
    plain, traced = [], []
    measured = 0.0
    for round_ in itertools.count():
        seed = args.seed + 7919 * round_
        started = time.monotonic()
        flags = () if args.trace else ("--reverse",)
        first, second = finish([start(args.workload, seed, 0),
                                start(args.workload, seed, args.trace,
                                      *flags)], deadline)
        plain.append(first)
        (traced if args.trace else plain).append(second)
        measured += first["wall_s"]
        took = time.monotonic() - started
        if measured >= args.seconds or time.monotonic() + took > deadline:
            break
    setups = [r["setup_s"] for r in plain]
    if not args.trace:
        setups += [finish([start(args.workload, args.seed, 0,
                                 "--setup-only")], deadline)[0]["setup_s"]
                   for _ in range(SETUP_PROBES)]

    med = statistics.median
    if args.trace:
        values = {name: med(r["layers"][name] for r in traced)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (med(r["wall_s"] for r in traced)
                                      - med(r["wall_s"] for r in plain))
        units = PER_LAYER
    else:
        values = {
            "setup_s": med(setups),
            "wall_s": med(r["wall_s"] for r in plain),
            "items_per_s": med(r["items"] / r["wall_s"] for r in plain),
            "max_item_s": med(r["max_item_s"] for r in plain),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    timed = plain + traced
    attempted = sum(r["items"] for r in timed)
    failed = sum(r["failed"] for r in timed)

    print("workload %s, seed %d: %d untraced and %d traced passes"
          % (args.workload, args.seed, len(plain), len(traced)))
    for name, value in values.items():
        print("  %-26s %16.6f %s" % (name, value, units[name]))
    print("  %-26s %16.6f ratio  (%d of %d items)"
          % ("mismatch_ratio", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))


if __name__ == "__main__":
    main()
