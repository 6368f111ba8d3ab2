#!/usr/bin/env python3
"""Reduces hostbench trace files to per-layer self time.

    python3 hostbench/trace_reduce.py [TRACE.jsonl ...]

With no arguments it reads every trace run.py --trace 1 left under
$CARGO_TARGET_DIR/traces (default .bench_build/traces). For each
workload it prints every span name's self time (its duration minus the
part of it that its child spans cover), averaged over the workload's
traced runs, the share of the traced call's total_s that the call's
top-level spans cover, and trace_overhead_frac (traced total_s over
untraced total_s, minus 1). Standard library only.
"""

import collections
import glob
import json
import os
import sys


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def root_name(spans, s):
    while s["parent"] >= 0:
        s = spans[s["parent"]]
    return s["name"]


def reduce_run(spans):
    """{(root span name, name): self seconds}, the call's top-level
    coverage share and its duration."""
    children = collections.defaultdict(list)
    for s in spans.values():
        children[s["parent"]].append((s["start"], s["end"]))
    self_s = collections.defaultdict(float)
    for sid, s in spans.items():
        dur = s["end"] - s["start"]
        key = (root_name(spans, s), s["name"])
        self_s[key] += dur - covered(children.get(sid, []))
    call = next(s for s in spans.values() if s["name"] == "call")
    call_s = call["end"] - call["start"]
    top = covered(children.get(call["id"], []))
    return self_s, top / call_s, call_s


def load(paths):
    """{run id: {"spans": {span id: span}, "summary": record or None}}."""
    runs = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                rec = json.loads(line)
                run = runs.setdefault(rec["run"], {"spans": {}, "summary": None})
                if "id" in rec:
                    run["spans"][rec["id"]] = rec
                else:
                    run["summary"] = rec
    return runs


def main(argv):
    paths = argv[1:]
    if not paths:
        d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        paths = sorted(glob.glob(os.path.join(d, "traces", "*.jsonl")))
    if not paths:
        print("no trace files (run: python3 hostbench/run.py --trace 1 ...)",
              file=sys.stderr)
        return 1
    by_workload = collections.defaultdict(list)
    for run_id, run in load(paths).items():
        workload = (run["summary"] or {}).get("workload",
                                              run_id.split("-seed")[0])
        by_workload[workload].append(run)

    for workload, runs in sorted(by_workload.items()):
        totals = collections.defaultdict(float)
        coverage = []
        call_total = []
        overhead = []
        for run in runs:
            self_s, cov, call_s = reduce_run(run["spans"])
            for name, v in self_s.items():
                totals[name] += v / len(runs)
            coverage.append(cov)
            call_total.append(call_s)
            summary = run["summary"]
            if summary:
                overhead.append(summary["traced_total_s"] /
                                summary["untraced_total_s"] - 1.0)
        mean_call = sum(call_total) / len(call_total)
        print(f"== {workload} ({len(runs)} traced run(s), traced total_s "
              f"{mean_call:.3f} s)")
        for root in ("call", "probes"):
            print(f"  {root + ' span':34s} {'self_s':>10s} "
                  f"{'of call' if root == 'call' else '':>8s}")
            rows = [(n, v) for (r, n), v in totals.items() if r == root]
            for name, v in sorted(rows, key=lambda kv: -kv[1]):
                share = f"{v / mean_call:8.1%}" if root == "call" else ""
                print(f"  {name:34s} {v:10.4f} {share}")
        print(f"  top-level spans cover {min(coverage):.2%} of traced total_s "
              f"(lowest run)")
        if overhead:
            print(f"  trace_overhead_frac {sum(overhead) / len(overhead):+.4f} "
                  f"(mean of {len(overhead)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
