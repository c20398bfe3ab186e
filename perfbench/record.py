"""Record the per-item output digests that the digest gate compares against.

    python3 perfbench/record.py

Runs every item of each workload once, in canonical order, checks it
against its independent route, and rewrites perfbench/digests.json.  The
committed file was recorded from the seed library; re-record only when the
benchmark's items change, never to accept a changed library output.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402


def main():
    null = NullTracer()
    out = {}
    for make in workloads.WORKLOADS.values():
        wl = make()
        keys = wl.items()
        out[wl.name] = []
        for key in keys:
            result = wl.run(key, null)
            if not wl.check(key, result, null):
                raise SystemExit("independent check failed on %s %r"
                                 % (wl.name, key))
            out[wl.name].append(workloads.digest(wl.lines(key, result)))
        print("%s: %d items" % (wl.name, len(keys)), flush=True)
    (HERE / "digests.json").write_text(json.dumps(out, indent=0) + "\n")


if __name__ == "__main__":
    main()
