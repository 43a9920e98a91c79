#!/usr/bin/env python3
"""FedMP benchmark: builds the program from the checkout's sources, runs one
workload, checks its outputs and prints one JSON result as the last line.

    python3 perfbench/run.py --workload hotpath-cnn10 --seed 1 \
        --seconds 25 --trace 0

--trace 0 measures the end-to-end metrics: repetitions of the workload, each
in a fresh process with telemetry off, over a fixed set of sub-seeds derived
from --seed, until --seconds have passed; each metric is the median (for the
seed-determined ones, the mean) over the sub-seeds. --trace 1 runs the
traced run and prints the per-layer metrics instead. See
perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# Sub-seeds per run. A 10-worker run's pruning ratios, wire bytes and
# simulated round time depend on the seed far more than on the host, so a run
# covers a fixed set of sub-seeds derived from --seed and aggregates over
# them; the fleet's 100k workers already average that out.
SUBSEEDS = {"hotpath-cnn10": 8, "fleet-100k": 3, "async-lstm10": 20}

# Metrics a repetition computes from the program's deterministic outputs:
# every same-seed repetition must reproduce them exactly.
DETERMINISTIC = ("wire_mib_per_round", "sim_round_s", "final_test_loss",
                 "weights_hash", "rounds", "updates_aggregated")
# Metrics that do not depend on the sub-seed: the median over every
# repetition of the run.
SEED_FREE = ("setup_s",)
# Metrics the program computes from the seed alone, free of host noise: the
# mean over the sub-seeds, which spreads ~1.5x less between runs than their
# median does. The host-timed metrics take the median.
SEED_MEAN = ("wire_mib_per_round", "sim_round_s")

BUILD_TIMEOUT_S = 850
REP_TIMEOUT_S = 120


def metric_units(kind):
    """(name, unit) of every metric of `kind` ("end_to_end" or "per_layer")
    in BENCHMARK.json, the one place the metrics are named."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    # The program's default configuration: no FEDMP_* switch and no
    # allocator tuning inherited from the caller's shell.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("FEDMP_") and not k.startswith("MALLOC_")}


def build():
    """Configures and builds the program; returns the binary's path."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        for cmd in (["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", jobs]):
            proc = subprocess.run(
                cmd, stdout=sys.stderr, stderr=sys.stderr, env=child_env(),
                timeout=max(1.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_program(binary, mode, workload, seed, lanes):
    proc = subprocess.run(
        [binary, mode, workload, str(seed), str(lanes)],
        stdout=subprocess.PIPE, stderr=sys.stderr, env=child_env(),
        timeout=REP_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s %s exited with %d" %
                           (mode, workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_ticks():
    """(all, steal) CPU ticks since boot from /proc/stat; zeros where the
    file or its steal column is missing."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return sum(ticks), (ticks[7] if len(ticks) > 7 else 0)


def timed_rep(binary, workload, seed, j, lanes):
    """One repetition on sub-seed j, with the share of the host's CPU time
    the hypervisor stole while it ran."""
    all0, steal0 = cpu_ticks()
    rep = run_program(binary, "rep", workload, subseed(seed, j), lanes)
    all1, steal1 = cpu_ticks()
    rep["subseed"] = j
    rep["steal"] = (steal1 - steal0) / max(1, all1 - all0)
    return rep


def rep_problems(rep, first):
    """Reasons a repetition fails: its own checks, its self-test, and
    bit-identity with the first repetition of the same seed."""
    problems = list(rep["failures"])
    problems += ["check accepted corrupted output: " + name
                 for name in rep["selftest_missed"]]
    if first is not None:
        for key in DETERMINISTIC:
            if rep[key] != first[key]:
                problems.append("rerun differs in %s: %r vs %r" %
                                (key, rep[key], first[key]))
    return problems


def subseed(seed, j):
    return seed * 1000 + j


def least_disturbed(reps, k):
    """Per sub-seed, its repetition that lost the least CPU to steal."""
    return [min((rep for rep in reps if rep["subseed"] == j),
                key=lambda rep: rep["steal"]) for j in range(k)]


def measured_run(binary, workload, seed, seconds, lanes):
    """Every sub-seed runs once, the first twice (the same-seed rerun), then
    repetitions continue until --seconds have passed.

    On a virtual machine the hypervisor can take CPU time away mid-run, and
    a synchronous round waits for its slowest lane: a repetition that lost
    30% of the host's CPU took 2.4x as long as an undisturbed one. So each
    extra repetition re-runs the sub-seed whose best repetition lost the
    most CPU, and each sub-seed's host timings come from its least-disturbed
    repetition."""
    k = SUBSEEDS[workload]
    start = time.monotonic()
    reps = [timed_rep(binary, workload, seed, j, lanes)
            for j in list(range(k)) + [0]]
    while time.monotonic() - start < seconds:
        best = least_disturbed(reps, k)
        j = max(range(k), key=lambda j: (best[j]["steal"],
                                         -sum(r["subseed"] == j
                                              for r in reps)))
        reps.append(timed_rep(binary, workload, seed, j, lanes))

    # Self-test of the rerun check: a repetition whose final weights differ.
    corrupted = dict(reps[0], weights_hash="0" * 16)
    problems = ([] if rep_problems(corrupted, reps[0]) else
                ["rerun check accepted different final weights"])
    attempted = failed = 0
    first = {}
    for rep in reps:
        rep_failures = rep_problems(rep, first.get(rep["subseed"]))
        first.setdefault(rep["subseed"], rep)
        attempted += rep["rounds"]
        if rep_failures:
            failed += rep["rounds"]
            problems += rep_failures
    for problem in problems:
        log("FAILED: " + problem)

    end_to_end = metric_units("end_to_end")
    best = least_disturbed(reps, k)
    metrics = {}
    for name, unit in end_to_end:
        if name in SEED_FREE:
            value = statistics.median(rep[name] for rep in reps)
        elif name in SEED_MEAN:
            value = statistics.fmean(best[j][name] for j in range(k))
        else:
            value = statistics.median(best[j][name] for j in range(k))
        metrics[name] = {"value": value, "unit": unit}
    log("%s seed=%d: %d repetitions over %d sub-seeds (CPU stolen by the "
        "hypervisor: median %.1f%%, max %.1f%% of a repetition), rounds "
        "attempted=%d failed=%d, updates dispatched=%s aggregated=%d" %
        (workload, seed, len(reps), k,
         100 * statistics.median(rep["steal"] for rep in reps),
         100 * max(rep["steal"] for rep in reps), attempted, failed,
         sum(rep["updates_dispatched"] for rep in reps)
         if "updates_dispatched" in reps[0] else "(traced run only)",
         sum(rep["updates_aggregated"] for rep in reps)))
    for name, unit in end_to_end:
        values = sorted(rep[name] for rep in reps)
        log("  %-20s %.6g %s (repetitions: min %.6g, max %.6g)" %
            (name, metrics[name]["value"], unit, values[0], values[-1]))
    log("  %-20s %.6g (median over sub-seeds)" % (
        "final_test_loss", statistics.median(
            first[j]["final_test_loss"] for j in range(k))))
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced_run(binary, workload, seed, lanes):
    """The traced run on the run's first sub-seed. A known fault (the
    fixed-input R2SP exactness check) fails its one synthetic round on
    every run; any other failed check fails the whole run."""
    out = run_program(binary, "trace", workload, subseed(seed, 0), lanes)
    for problem in out["failures"]:
        log("FAILED: " + problem)
    for fault in out["known_faults"]:
        log("KNOWN FAULT (counted in failed): " + fault)
    metrics = {name: {"value": out[name], "unit": unit}
               for name, unit in metric_units("per_layer")}
    failed = out["rounds"] if out["failures"] else len(out["known_faults"])
    return {"correct": not out["failures"], "attempted": out["rounds"],
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SUBSEEDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found under %s/src" % ROOT)
        return 2

    binary = build()
    lanes = max(1, min(4, len(os.sched_getaffinity(0))))
    if args.trace:
        result = traced_run(binary, args.workload, args.seed, lanes)
    else:
        result = measured_run(binary, args.workload, args.seed,
                              args.seconds, lanes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
