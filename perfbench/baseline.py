"""Write perfbench/baseline.json: one untraced and one traced run of every
workload on seed 1, for BENCHMARK.json's run_seconds, with the machine they
ran on.

    python3 perfbench/baseline.py

Later changes compare their own runs against this file, made with the same
benchmark code and settings.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SEED = 1


def main():
    seconds = json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    out = {
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "seed": SEED,
        "seconds": seconds,
        "runs": {},
    }
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(SEED), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit("%s --trace %d failed:\n%s"
                         % (workload, trace, proc.stderr))
            print(proc.stdout, end="", flush=True)
            out["runs"]["%s/trace%d" % (workload, trace)] = json.loads(
                proc.stdout.splitlines()[-1])
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
