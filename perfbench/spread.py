#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's median
and quartile spread (IQR / median), against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload serve --seeds 1-10 [--trace 0]

Seeds are a range (1-10) or a comma list (3,7,11).  Every run goes
through perfbench/run.py, so the first one builds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, default=0)
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for s in seeds(a.seeds):
        t0 = time.monotonic()
        r = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", a.workload,
             "--seed", str(s), "--seconds", str(spec["run_seconds"]),
             "--trace", str(a.trace)],
            stdout=subprocess.PIPE, text=True)
        if r.returncode != 0:
            sys.exit("seed %d: exit code %d" % (s, r.returncode))
        result = json.loads(r.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: %d of %d failed" % (s, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d (%.0f s): " % (s, time.monotonic() - t0) + " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items()),
            flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        rel = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = "" if bound is None else "  bound %.2f (%s a third of it)" % (
            bound, "within" if rel < bound / 3 else "OVER")
        print("%-40s median %14.6g  spread %.4f%s" % (name, med, rel, note))


if __name__ == "__main__":
    main()
