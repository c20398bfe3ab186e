"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json, run.py and workloads.py name the same workloads, and
   BENCHMARK.json and run.py the same metrics with the same units.
2. A run of gram-closed, the shortest workload, in both trace modes emits
   every named metric with its unit and reports correct outputs, and its
   traced self times add up to the traced wall time.
3. The gate accepts a real item's outputs, and the digest alone catches
   the same outputs with one exact value altered, on a gram-closed, a
   gram-direct and an oracle item.
Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402
from qhaar import ONE  # noqa: E402


def require(ok, what):
    if not ok:
        raise SystemExit("selfcheck failed: %s" % what)


def check_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    require([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
            == list(workloads.WORKLOADS),
            "BENCHMARK.json, run.py and workloads.py list other workloads")
    require({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == run.END_TO_END, "BENCHMARK.json end_to_end differs")
    require({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.PER_LAYER, "BENCHMARK.json per_layer differs")


def check_run(workload):
    for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        require(proc.returncode == 0, "run.py failed:\n" + proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        require(set(result) == {"correct", "attempted", "failed", "metrics"},
                "result keys %s" % sorted(result))
        require(result["correct"] and result["failed"] == 0
                and result["attempted"] >= 1, "outputs not correct")
        metrics = result["metrics"]
        require(set(metrics) == set(units),
                "metrics missing or extra: %s" % (set(metrics) ^ set(units)))
        for name, unit in units.items():
            require(metrics[name]["unit"] == unit, "unit of " + name)
            require(isinstance(metrics[name]["value"], (int, float)),
                    "value of " + name)
        if trace:
            value = {k: v["value"] for k, v in metrics.items()}
            layers = sum(v for k, v in value.items()
                         if units[k] == "s" and not k.startswith("trace."))
            require(abs(layers + value["trace.unattributed_s"]
                        - value["trace.wall_s"]) < 1e-6,
                    "self times do not add up to the traced wall time")
        print("run %s --trace %d: %d metrics, correct" % (workload, trace,
                                                        len(metrics)))


def check_digest_gate():
    recorded = json.loads((HERE / "digests.json").read_text())
    null = NullTracer()

    def altered_matrix(rows):
        rows = [list(r) for r in rows]
        rows[0][0] = rows[0][0] + ONE
        return tuple(map(tuple, rows))

    closed = workloads.GramClosed()
    key = ((2, 1, 0), (1, 1, 1), "L", "right_comodule")
    direct = workloads.GramDirect()
    dkey = ((3, 2, 0), "L")
    oracle = workloads.Oracle()
    cases = [(closed, key, lambda out: (altered_matrix(out[0]),) + out[1:]),
             (direct, dkey, altered_matrix),
             (oracle, "source", lambda out: out + ONE)]
    for wl, k, alter in cases:
        keys = wl.items()
        expected = recorded[wl.name][keys.index(k)]
        out = wl.run(k, null)
        require(workloads.gate(wl, k, out, expected, null),
                "%s %r: the real output fails the gate" % (wl.name, k))
        require(workloads.digest(wl.lines(k, alter(out))) != expected,
                "%s %r: the digest misses an altered output" % (wl.name, k))
        print("gate on %s %r: accepts the output; its digest rejects an "
              "altered one" % (wl.name, k))


def main():
    check_benchmark_json()
    check_digest_gate()
    check_run("gram-closed")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
