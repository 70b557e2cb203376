#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

Run from the root of a checkout:

    python3 scripts/ab.py --workloads validate --pairs 10 --seed 4242
    python3 scripts/ab.py --base HEAD --head WORKTREE --workloads serve,aggregate

Each side (--base, default HEAD^, and --head, default HEAD) is a git
revision, or WORKTREE for the files of the working tree as they stand
(tracked and untracked, minus what .gitignore excludes).  Each is
exported with `git archive` into a directory under --work named by
its tree (no worktree metadata is left in .git), and perfbench/run.py
builds and runs there.  Per workload, pair k runs both sides once with
the same --seed and --seconds, the base first on even k and the head
first on odd k.

The result goes to BENCH_<workload>.json at the root of this checkout:
both sides' revisions, and per series (one per seed and --trace
setting) the git trees that ran, every pair's gated figures (the JSON
object run.py prints last: rescaled by the calibration, or the
per-layer figures of a traced run), its raw `metric` lines including
machine_slowdown, and per figure the median and quartiles of each
side, the change of the medians and how many pairs the head won.  A
later run with the same revisions replaces the series of its seed and
trace setting and keeps the others; different revisions start the file
afresh.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))
WORKLOADS = ["validate", "corpus-query", "serve", "aggregate"]


def git(*args, env=None):
    r = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                       text=True, env=env)
    if r.returncode != 0:
        sys.exit("ab: git %s: %s" % (" ".join(args), r.stderr.strip()))
    return r.stdout.strip()


def tree_of(rev):
    """The git tree a side builds: a revision's, or the working tree's
    through a throwaway index, so the real index is left alone."""
    if rev != "WORKTREE":
        return git("rev-parse", rev + "^{tree}"), git("rev-parse", rev)
    fd, index = tempfile.mkstemp(prefix="ab-index-")
    os.close(fd)
    os.unlink(index)
    env = dict(os.environ, GIT_INDEX_FILE=index)
    try:
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        tree = git("write-tree", env=env)
    finally:
        if os.path.exists(index):
            os.unlink(index)
    return tree, "working tree on " + git("rev-parse", "HEAD")


def export(tree, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", tree],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit("ab: git archive %s failed" % tree)


def run_side(checkout, workload, seed, seconds, trace):
    """One run.py invocation: its JSON object and its raw metric lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        sys.exit("ab: run.py failed in %s" % checkout)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = {}
    for line in lines:
        f = line.split()
        if len(f) >= 4 and f[0] == "metric":
            raw[f[1]] = float(f[2])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "gated": {k: v["value"] for k, v in result["metrics"].items()},
            "raw": raw}


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, kind, better):
    """Median, quartiles and wins per figure present on both sides."""
    out = {}
    names = set(pairs[0]["base"][kind]) & set(pairs[0]["head"][kind])
    for name in sorted(names):
        base = [p["base"][kind][name] for p in pairs]
        head = [p["head"][kind][name] for p in pairs]
        entry = {}
        for side, xs in (("base", base), ("head", head)):
            q1, med, q3 = quartiles(xs)
            entry[side] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}
        b = better.get(name)
        if b is not None:
            sign = 1 if b == "higher" else -1
            entry["better"] = b
            entry["head_wins"] = sum(1 for x, y in zip(base, head)
                                     if sign * (y - x) > 0)
            entry["pairs"] = len(pairs)
        mb = entry["base"]["median"]
        if mb:
            entry["median_change"] = entry["head"]["median"] / mb - 1
        out[name] = entry
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD^")
    p.add_argument("--head", default="HEAD")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--work", help="scratch directory (default: a fresh temporary one)")
    a = p.parse_args()
    workloads = a.workloads.split(",")
    for w in workloads:
        if w not in WORKLOADS:
            p.error("unknown workload %s" % w)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {}
    for side, rev in (("base", a.base), ("head", a.head)):
        tree, ident = tree_of(rev)
        sides[side] = {"rev": rev, "id": ident, "tree": tree}
    if sides["base"]["tree"] == sides["head"]["tree"]:
        sys.exit("ab: base and head are the same tree")
    work = a.work or tempfile.mkdtemp(prefix="ab-")
    own_work = a.work is None
    try:
        for side in sides:
            sides[side]["dir"] = os.path.join(work, sides[side]["tree"])
            if not os.path.isdir(sides[side]["dir"]):
                export(sides[side]["tree"], sides[side]["dir"])
        for w in workloads:
            pairs = []
            for k in range(a.pairs):
                order = ["base", "head"] if k % 2 == 0 else ["head", "base"]
                pair = {"order": order}
                for side in order:
                    pair[side] = run_side(sides[side]["dir"], w, a.seed,
                                          a.seconds, a.trace)
                pairs.append(pair)
                g = "throughput_per_s" if a.trace == 0 else None
                print("ab: %s pair %d/%d %s" % (
                    w, k + 1, a.pairs,
                    " ".join("%s=%.4g" % (s, pair[s]["gated"][g])
                             for s in ("base", "head")) if g else "done"),
                      flush=True)
            series = {"seed": a.seed, "seconds": a.seconds, "trace": a.trace,
                      "trees": {s: sides[s]["tree"] for s in sides},
                      "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                time.gmtime()),
                      "pairs": pairs,
                      "summary": {"gated": summarize(pairs, "gated", better),
                                  "raw": summarize(pairs, "raw", better)}}
            write(w, sides, series)
    finally:
        if own_work:
            shutil.rmtree(work, ignore_errors=True)


def write(workload, sides, series):
    path = os.path.join(ROOT, "BENCH_%s.json" % workload)
    revs = {s: {"rev": sides[s]["rev"], "id": sides[s]["id"]} for s in sides}
    doc = None
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
        if doc.get("base") != revs["base"] or doc.get("head") != revs["head"]:
            doc = None
    if doc is None:
        doc = {"workload": workload, "base": revs["base"],
               "head": revs["head"],
               "machine": {"nproc": os.cpu_count(),
                           "system": platform.platform()},
               "series": []}
    doc["series"] = [s for s in doc["series"]
                     if (s["seed"], s["trace"]) != (series["seed"], series["trace"])]
    doc["series"].append(series)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print("ab: wrote %s" % path, flush=True)


if __name__ == "__main__":
    main()
