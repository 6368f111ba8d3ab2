#!/usr/bin/env python3
"""Benchmark == CLI check: the benchmark times the call a user makes.

For each workload, runs airbench once and airindex_cli with the
same flags plus --deterministic --json, strips the wall-clock fields
(wall_seconds, queries_per_second, cpu_ms) from both reports, and
requires them to be equal. Run from the root of a repository checkout:

    python3 hostbench/check_cli.py [--seeds 0,7919]

Exits 0 when every report matches, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the benchmark directory clean
import run  # noqa: E402

BASE_SEED = 20100913  # hostbench seed N is program seed BASE_SEED + N
WALL_CLOCK = {"wall_seconds", "queries_per_second", "cpu_ms"}

CLI_ARGS = {
    "index-build": ["run", "Germany", "--scale=1.0", "--systems=NR,EB",
                    "--queries=2000", "--threads=1"],
    "fullcycle-lossy": ["run", "Germany", "--scale=0.3",
                        "--systems=DJ,LD,AF", "--queries=1000",
                        "--loss=0.02", "--threads=1"],
    "commuter-sessions": ["scenario", "--name=commuter-sessions",
                          "--scale=0.1", "--queries=2048", "--threads=2"],
}


def strip(doc):
    if isinstance(doc, dict):
        return {k: strip(v) for k, v in doc.items() if k not in WALL_CLOCK}
    if isinstance(doc, list):
        return [strip(v) for v in doc]
    return doc


def cli_args(workload, seed, spec_path):
    args = list(CLI_ARGS[workload])
    if seed != 0:
        if args[0] == "run":
            args.append(f"--seed={BASE_SEED + seed}")
        else:  # the scenario CLI takes its seed from a spec file
            args = ["scenario", f"--file={spec_path}", "--threads=2"]
    return args + ["--deterministic", "--json"]


def check(out, workload, seed):
    report = os.path.join(out, f"check-{workload}-{seed}.airbench.json")
    spec = os.path.join(out, f"check-{workload}-{seed}.spec.json")
    subprocess.run([os.path.join(out, "airbench"),
                    f"--workload={workload}", f"--seed={seed}",
                    f"--report={report}", f"--spec-out={spec}"],
                   stdout=subprocess.DEVNULL, check=True)
    # `run` exits 1 whenever a query fails (fullcycle-lossy's AF does), so
    # the exit code is not the check; the report is.
    cli = subprocess.run(
        [os.path.join(out, "airindex", "tools", "airindex_cli"),
         *cli_args(workload, seed, spec)],
        stdout=subprocess.PIPE, text=True)
    if cli.returncode not in (0, 1) or not cli.stdout.strip():
        print(f"FAIL {workload} seed {seed}: airindex_cli exited "
              f"{cli.returncode}")
        return False
    with open(report) as f:
        bench_doc = strip(json.load(f))
    same = bench_doc == strip(json.loads(cli.stdout))
    print(f"{'ok  ' if same else 'FAIL'} {workload} seed {seed}: airbench "
          f"report {'equals' if same else 'differs from'} airindex_cli "
          f"{' '.join(cli_args(workload, seed, spec))}")
    return same


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0",
                    help=f"comma list (held-out seed: {run.HELD_OUT_SEED})")
    a = ap.parse_args()
    out = run.build(["airbench", "airindex_cli"])
    ok = True
    for seed in (int(s) for s in a.seeds.split(",")):
        for w in CLI_ARGS:
            ok = check(out, w, seed) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
