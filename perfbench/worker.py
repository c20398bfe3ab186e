"""One pass of one workload, in a fresh interpreter.

Started by run.py, so the library's caches begin empty and no pass depends
on another.  Prints one JSON line: set-up time (from process start, as
stamped by the parent, to the first timed call), wall time of the timed
loop, per-item maximum, peak resident memory, items and mismatches, and,
when traced, per-layer self times and counts.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --spawn MONOTONIC_SECONDS [--reverse] [--setup-only]
"""

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from run import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SPANS_DIR = ROOT / ".perfbench"


def layer_metrics(tr, wall):
    """Per-layer self times and counts of a traced pass.  The span of layer
    metric "x_s" is named "x"; run.py adds trace.overhead_s, which needs the
    untraced pass too."""
    self_s = tr.self_times()
    layers = {name: self_s.get(name[:-2], 0.0)
              for name, unit in PER_LAYER.items()
              if unit == "s" and not name.startswith("trace.")}
    c = tr.counts
    terms = c.get("algebra.product_terms", 0)
    entries = c.get("corep.entries", 0)
    rows = c.get("linsys.rows", 0)
    unknowns = c.get("linsys.unknowns", 0)
    haar_s = layers["haar.state_s"]
    return dict(layers, **{
        "algebra.product_terms": terms,
        "haar.terms_per_s": terms / haar_s if haar_s else 0.0,
        "corep.entries": entries,
        "corep.entries_per_s": entries / wall,
        "linsys.rows": rows,
        "linsys.unknowns": unknowns,
        "linsys.useful_row_ratio": unknowns / rows if rows else 0.0,
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(layers.values()),
        "trace.spans": len(tr.spans),
    })


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawn", type=float, required=True)
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import NullTracer, Tracer

    wl = workloads.WORKLOADS[args.workload]()
    keys = wl.items()
    recorded = json.loads(DIGESTS.read_text())[wl.name]
    if len(recorded) != len(keys):
        raise SystemExit("digests.json does not match the item list of %s"
                         % args.workload)
    expected = dict(zip(keys, recorded))
    order = list(keys)
    random.Random(args.seed).shuffle(order)
    if args.reverse:
        order.reverse()
    setup_s = time.monotonic() - args.spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tr = Tracer() if args.trace else NullTracer()
    failed = 0
    max_item = 0.0
    t0 = time.perf_counter()
    for index, key in enumerate(order):
        tr.item = index
        with tr.span("item"):
            try:
                start = time.perf_counter()
                out = wl.run(key, tr)
                max_item = max(max_item, time.perf_counter() - start)
                good = workloads.gate(wl, key, out, expected[key], tr)
            except Exception:
                traceback.print_exc()
                good = False
        if not good:
            print("mismatch on item %r" % (key,), file=sys.stderr)
            failed += 1
    wall = time.perf_counter() - t0

    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "items": len(order),
        "failed": failed,
        "max_item_s": max_item,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if args.trace:
        result["layers"] = layer_metrics(tr, wall)
        tr.write(SPANS_DIR / ("spans-%s.json" % args.workload))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
