#!/usr/bin/env python3
"""Host-time benchmark of airindex: whole `airindex_cli run` / `scenario`
calls, timed end to end, plus a traced run that times each layer.

Run from the root of a repository checkout:

    python3 hostbench/run.py --workload fullcycle-lossy --seed 1 \
        --seconds 30 --trace 0

It builds airbench (Release) into $CARGO_TARGET_DIR or
.bench_build, runs one airbench process per whole call until --seconds
have passed (at least MIN_CALLS calls), checks every call's answers and
simulated-output digest, prints a table, and prints one JSON object as
its last line. --trace 1 makes one untraced and one traced call and
reports the per-layer metrics instead. --workload all runs every
workload once. --record SEEDS (e.g. 0-63,7919) re-records digests.json
for those seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ["index-build", "fullcycle-lossy", "commuter-sessions"]

END_TO_END = [
    ("setup_s", "s"),
    ("sim_qps", "queries/s"),
    ("total_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# Workload-wide per-layer metrics: sums, or ratios of sums, over the
# workload's systems. The traced run also prints each one per system
# (`<name>.<SYS>`, e.g. core.build_s.NR) in its table.
PER_LAYER = [
    ("graph.make_s", "s"),
    ("partition.kd_s", "s"),
    ("core.precompute_s", "s"),
    ("core.build_s", "s"),
    ("core.registry_s", "s"),
    ("workload.gen_s", "s"),
    ("algo.dijkstra_us_p50", "us"),
    ("broadcast.cycle_packets", "count"),
    ("broadcast.packet_at_ns", "ns"),
    ("broadcast.receive_ns", "ns"),
    ("core.query_us_p50", "us"),
    ("core.query_us_p99", "us"),
    ("core.ns_per_tuning_pkt", "ns"),
    ("core.decode_search_frac", "ratio"),
    ("core.warm_frac", "ratio"),
    ("core.cache_hits_per_query", "count"),
    ("core.failed_frac", "ratio"),
    ("sim.run_s", "s"),
    ("sim.overhead_frac", "ratio"),
    ("sim.report_s", "s"),
    ("trace_overhead_frac", "ratio"),
]

MIN_CALLS = 3       # calls per untraced run, whatever --seconds says
# Extra query phases per call, where set-up is most of a call: each call
# reruns its query phase this many times on the same systems and workload.
REPEATS = {"index-build": 2}
SETUP_SAMPLES = 8   # setup_s samples per run, when set-up is cheap ...
EXTRA_SETUP_S = 3   # ... enough to fit in this many extra seconds
WARM_UP_S = 1.0     # all cores busy before a run's first call
RUN_LIMIT_S = 170   # no call starts that could end past this
HELD_OUT_SEED = 7919  # not used while tuning; gain claims must hold on it


class BenchError(Exception):
    """The benchmark could not run (build, airbench crash)."""


class CheckError(BenchError):
    """The program ran but an output check failed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(targets):
    """Configures (once) and builds `targets`; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no airindex sources under {ROOT}/src")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target",
                    *targets], stdout=sys.stderr, check=True)
    return out


def run_airbench(binary, args, deadline):
    """One airbench process; returns its parsed JSON line. The process is
    killed and reaped if it would run past `deadline`."""
    timeout = max(1.0, deadline - time.monotonic())
    p = subprocess.run([binary, *args], stdout=subprocess.PIPE, text=True,
                       timeout=timeout)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"airbench {' '.join(args)} exited {p.returncode}")
    result = json.loads(lines[-1])
    if p.returncode != 0:  # ran to the end but an answer check failed
        raise CheckError(f"airbench {' '.join(args)} exited {p.returncode}: "
                         f"{result.get('answer_mismatches')} wrong answers, "
                         f"{result.get('repeats_differing', 0)} repeated "
                         f"query phases with another digest")
    return result


def recorded_digest(workload, seed):
    with open(DIGESTS) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def check_digests(workload, seed, calls):
    """Every call of a run must give the same digest, and the recorded one
    when the seed has one. Returns the digest."""
    digests = {c["digest"] for c in calls}
    if len(digests) != 1:
        raise CheckError(f"{workload}: calls disagree on the digest: "
                         f"{sorted(digests)}")
    digest = digests.pop()
    want = recorded_digest(workload, seed)
    if want is None:
        log(f"note: no recorded digest for {workload} seed {seed}; "
            f"checked that the run's calls agree ({digest})")
    elif want != digest:
        raise CheckError(f"{workload} seed {seed}: digest {digest} differs "
                         f"from the recorded {want}")
    for c in calls:
        if c["answer_mismatches"] != 0:
            raise CheckError(f"{workload}: {c['answer_mismatches']} wrong "
                             f"answers")
    return digest


def warm_up():
    """Keeps every core busy for WARM_UP_S. On a shared 4-vCPU KVM guest,
    idle vCPUs came back slowly: the first multi-threaded set-up after a
    pause ran up to 3x slower than the next ones."""
    code = f"import time\nt = time.monotonic() + {WARM_UP_S}\n" \
           "while time.monotonic() < t: pass\n"
    spinners = [subprocess.Popen([sys.executable, "-c", code])
                for _ in range(os.cpu_count() or 1)]
    for p in spinners:
        p.wait()


def untraced_run(binary, workload, seed, seconds):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    args = [f"--workload={workload}", f"--seed={seed}"]
    call_args = args + [f"--repeat={REPEATS.get(workload, 0)}"]
    warm_up()
    calls = []
    walls = []
    while True:
        # Start another call while it should end within --seconds (10%
        # slack), and always make MIN_CALLS.
        typical = statistics.median(walls) if walls else 0.0
        ends = time.monotonic() + typical
        if len(calls) >= MIN_CALLS and ends > start + 1.1 * seconds:
            break
        if calls and ends + 0.5 * typical > deadline:
            break
        t = time.monotonic()
        # Each query phase of the run starts one CPU further on.
        pin = sum(1 + len(c["repeat_query_s"]) for c in calls)
        calls.append(run_airbench(binary, call_args + [f"--pin={pin}"],
                                  deadline))
        walls.append(time.monotonic() - t)
    digest = check_digests(workload, seed, calls)

    # More set-up samples where set-up is cheap: set-up-only processes.
    setups = [c["setup_s"] for c in calls]
    extra_until = time.monotonic() + EXTRA_SETUP_S
    while (len(setups) < SETUP_SAMPLES and
           time.monotonic() + 1.5 * max(setups) < extra_until):
        setups.append(run_airbench(binary, args + ["--mode=setup"],
                                 deadline)["setup_s"])

    def med(key):
        return statistics.median(c[key] for c in calls)

    phases = [s for c in calls for s in [c["query_s"], *c["repeat_query_s"]]]

    first = calls[0]
    metrics = {
        "setup_s": statistics.median(setups),
        # The median over the run's query phases, repeats included.
        "sim_qps": first["sim_queries"] / statistics.median(phases),
        "total_s": med("total_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    info = {
        "calls": len(calls),
        "setup_samples": len(setups),
        "failed_frac": first["queries_failed"] / first["queries_attempted"],
        "queries": f"{first['queries_failed']}/{first['queries_attempted']}",
        "digest": digest,
    }
    return len(calls), metrics, dict(END_TO_END), info


def traced_run(binary, workload, seed):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    warm_up()
    untraced = run_airbench(
        binary, [f"--workload={workload}", f"--seed={seed}"], deadline)
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    run_id = f"{workload}-seed{seed}-{int(time.time())}"
    trace_path = os.path.join(trace_dir, run_id + ".jsonl")
    traced = run_airbench(binary, [
        f"--workload={workload}", f"--seed={seed}", "--mode=trace",
        f"--trace-out={trace_path}", f"--run-id={run_id}"], deadline)
    check_digests(workload, seed, [untraced, traced])
    overhead = traced["total_s"] / untraced["total_s"] - 1.0
    with open(trace_path, "a") as f:
        f.write(json.dumps({"run": run_id, "workload": workload,
                            "untraced_total_s": untraced["total_s"],
                            "traced_total_s": traced["total_s"]}) + "\n")
    layers = traced["layers"]
    layers["trace_overhead_frac"] = overhead
    metrics = {name: float(layers[name]) for name, _ in PER_LAYER}
    units = dict(PER_LAYER)
    info = {f"{name} [{units[name.rsplit('.', 1)[0]]}]": value
            for name, value in layers.items() if name not in units}
    info["top_level_coverage"] = traced["top_level_coverage"]
    info["trace_file"] = os.path.relpath(trace_path, ROOT)
    return 2, metrics, units, info


def print_table(workload, metrics, units, info):
    log(f"== {workload}")
    for name, value in metrics.items():
        log(f"  {name:34s} {value:16.6g} {units[name]}")
    for name, value in info.items():
        unit = " ratio (!ok queries / queries)" if name == "failed_frac" else ""
        log(f"  {name:34s} {value}{unit}")


def parse_seeds(spec):
    """"0-63,7919" -> [0, 1, ..., 63, 7919]."""
    seeds = []
    for item in spec.split(","):
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(spec):
    """Records the digests of the seeds in `spec` into digests.json
    (merged with the seeds already there)."""
    seeds = ",".join(str(s) for s in parse_seeds(spec))
    binary = os.path.join(build(["airbench"]), "airbench")
    digests = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as f:
            digests = json.load(f)
    for workload in WORKLOADS:
        log(f"recording {workload} seeds {spec}")
        p = subprocess.run([binary, f"--workload={workload}", "--mode=record",
                            f"--seeds={seeds}"], stdout=subprocess.PIPE,
                           text=True, check=True)
        digests.setdefault(workload, {}).update(
            json.loads(p.stdout.strip().splitlines()[-1]))
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", metavar="SEEDS",
                    help="record digests of SEEDS (e.g. 0-63,7919) into "
                         "digests.json and exit")
    a = ap.parse_args()
    if a.record is not None:
        record(a.record)
        return 0
    if a.workload is None:
        ap.error("--workload is required")
    if a.seed < 0:
        ap.error("--seed must be >= 0")

    binary = os.path.join(build(["airbench"]), "airbench")
    workloads = WORKLOADS if a.workload == "all" else [a.workload]
    attempted = 0
    metrics = {}
    for w in workloads:
        try:
            if a.trace:
                n, m, units, info = traced_run(binary, w, a.seed)
            else:
                n, m, units, info = untraced_run(binary, w, a.seed, a.seconds)
        except CheckError as e:
            log(f"hostbench: {e}")
            print(json.dumps({"correct": False, "attempted": attempted + 1,
                              "failed": 1, "metrics": {}}))
            return 1
        print_table(w, m, units, info)
        attempted += n
        prefix = f"{w}." if len(workloads) > 1 else ""
        for name, value in m.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"hostbench: {e}")
        sys.exit(1)
