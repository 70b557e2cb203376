#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload validate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The benchmark driver (perfbench/pb.ml) is built with dune from the
checkout's own sources, then run with the same arguments.  Its human
readable lines and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"} go to standard output.

--self-test runs every workload at a tiny input size and checks that
every metric prints with its unit, that the JSON object carries exactly
the metrics BENCHMARK.json names, and that a deliberately corrupted
expected answer is counted as a failure.
"""

import argparse
import json
import os
import re
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "pb.exe")
WORKLOADS = ["validate", "corpus-query", "serve", "aggregate"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a checkout (no dune-project or lib/ here)")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/pb.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        die("build failed")


def commit():
    """The checkout's git revision, or "none" outside a git work tree."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2:
        return "none"
    if os.path.realpath(lines[0]) != os.path.realpath("."):
        return "none"
    return lines[1][:12]


def run(args, echo=True):
    """Run pb.exe; its standard output, or exit non-zero on failure."""
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("timed out after %d s" % RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(r.stdout)
        sys.stdout.flush()
    if r.returncode != 0:
        die("benchmark exited with code %d" % r.returncode)
    return r.stdout


# ---- self-test ------------------------------------------------------------

# The end-to-end metrics each workload prints, with their units.  A
# [_p99_ms] name may print as the highest percentile with ten samples
# beyond it ([_p95_ms], ...).
PRINTED = {
    "validate": [("setup_s", "s"), ("failed_frac", "ratio"),
                 ("stream_docs_per_s", "docs/s"), ("tree_docs_per_s", "docs/s"),
                 ("peak_heap_mb", "MB")],
    "corpus-query": [("setup_s", "s"), ("failed_frac", "ratio"),
                     ("queries_per_s", "queries/s"), ("query_p50_ms", "ms"),
                     ("query_p99_ms", "ms"),
                     ("index_bytes_per_corpus_byte", "ratio")],
    "serve": [("setup_s", "s"), ("failed_frac", "ratio"),
              ("requests_per_s", "req/s"), ("request_p50_ms", "ms"),
              ("request_p99_ms", "ms")],
    "aggregate": [("setup_s", "s"), ("failed_frac", "ratio"),
                  ("docs_per_s", "docs/s")],
}


def metric_lines(out):
    found = {}
    for line in out.splitlines():
        f = line.split()
        if len(f) >= 4 and f[0] == "metric":
            found[f[1]] = (float(f[2]), f[3])
    return found


def self_test():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    def expect_json(out, metrics, what):
        result = json.loads(out.strip().splitlines()[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in metrics}
        check(got == want, what + ": JSON metrics are exactly BENCHMARK.json's")
        return result

    tiny = ["--seed", "3", "--seconds", "1", "--size", "tiny"]
    for w in WORKLOADS:
        out = run(["--workload", w, "--trace", "0"] + tiny, echo=False)
        printed = metric_lines(out)
        for name, unit in PRINTED[w]:
            pattern = re.escape(name).replace("p99", r"p\d+")
            hits = [u for n, (_, u) in printed.items() if re.fullmatch(pattern, n)]
            check(hits != [] and set(hits) == {unit},
                  "%s prints %s in %s" % (w, name, unit))
        check(out.startswith("# fingerprint nproc="), w + " prints the fingerprint")
        result = expect_json(out, spec["end_to_end"], w)
        check(result["correct"] and result["failed"] == 0,
              w + ": failed_frac is 0")
        bad = run(["--workload", w, "--trace", "0", "--corrupt"] + tiny,
                  echo=False)
        bad_result = json.loads(bad.strip().splitlines()[-1])
        check(bad_result["failed"] > 0 and not bad_result["correct"]
              and metric_lines(bad)["failed_frac"][0] > 0,
              w + ": a corrupted expected answer raises failed_frac")
    out = run(["--workload", "validate", "--trace", "1"] + tiny, echo=False)
    result = expect_json(out, spec["per_layer"], "traced run")
    check(result["correct"], "traced run: failed_frac is 0")
    if problems:
        print("self-test: %d problem(s)" % len(problems))
        sys.exit(1)
    print("self-test: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and a.workload is None:
        p.error("--workload is required")
    build()
    if a.self_test:
        self_test()
        return
    run(["--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace),
         "--commit", commit()])


if __name__ == "__main__":
    main()
