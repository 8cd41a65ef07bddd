#!/usr/bin/env python3
"""Build and run the rlacast benchmark for one workload.

    python3 perfbench/run.py --workload tree27-droptail --seed 1 \
        --seconds 55 --trace 0

Run from the repository root. Builds the library and the benchmark binary
from source into .bench_build/ (the first call compiles; later calls only
check), then runs perfbench's rlabench, one single-threaded process at a
time.

--trace 0 runs full runner calls, each in a fresh process, on sub-seeds
seed*1000 + 0, 1, 2, ... until --seconds have passed (at least MIN_CALLS),
and reports the end_to_end metrics of BENCHMARK.json over all the calls.
--trace 1 runs sub-seed 0 twice untraced (its deterministic counts must
repeat exactly) and once traced, plus the layer probes, and reports the
per_layer metrics.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics. Exits nonzero, printing no result, when the build
fails, a check fails, or the metrics do not match BENCHMARK.json and
perfbench/metrics.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
MIN_CALLS = 4
MAX_CALLS = 999
CALL_TIMEOUT_S = 150


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("rlacast sources (src/) not found; run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-B", BUILD, "-S", HERE, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "rlabench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "rlabench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        kinds = json.load(f)
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in bench[section]}
    if set(want) != set(kinds[section]):
        fail("BENCHMARK.json and perfbench/metrics.json list different %s "
             "metrics" % section)
    return want


def rlabench(binary, mode, workload, seed):
    """Runs one rlabench process; returns (report lines, JSON, exit code)."""
    cmd = [binary, "--mode", mode, "--workload", workload, "--seed", str(seed)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("rlabench exceeded %d s: %s" % (CALL_TIMEOUT_S, " ".join(cmd)))
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("rlabench printed no JSON result (exit %d): %s"
             % (done.returncode, " ".join(cmd)))
    return lines[:-1], result, done.returncode


def end_to_end(binary, workload, seed, seconds, units):
    """Full calls on sub-seeds until `seconds` passed; returns the result."""
    calls, attempted, failed = [], 0, 0
    deadline = time.monotonic() + seconds
    while len(calls) < MIN_CALLS or (time.monotonic() < deadline and
                                     len(calls) < MAX_CALLS):
        report, call, code = rlabench(binary, "call", workload,
                                      seed * 1000 + len(calls))
        print("\n".join(report))
        attempted += call["attempted"]
        failed += call["failed"] + (1 if code != 0 and not call["failed"] else 0)
        calls.append(call)
    if failed:
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}
    # The Theorem band is a long-run claim: it is checked on the throughput
    # pooled over the run. A call whose own ratio falls below the band is an
    # RLA start-up stall (see README.md): it is listed, and left out of the
    # timing figures, which describe the calls that ran the workload.
    band = calls[0].get("band")
    outside = []
    if band:
        lo, hi = band
        ratio = lambda c: c["rla_pps"] / max(c["worst_pps"], 1e-12)
        outside = [i for i, c in enumerate(calls) if not lo < ratio(c) < hi]
        pooled = (sum(c["rla_pps"] for c in calls) /
                  max(sum(c["worst_pps"] for c in calls), 1e-12))
        print("pooled RLA/worst-TCP ratio %.4f, Theorem band (%.4g, %.4g); "
              "calls outside the band on their own: %s"
              % (pooled, lo, hi, [seed * 1000 + i for i in outside] or "none"))
        attempted += 2
        if not lo < pooled < hi:
            print("CHECK FAILED: pooled ratio outside the Theorem band")
            failed += 1
        if len(outside) > len(calls) // 2:
            print("CHECK FAILED: most calls are outside the Theorem band")
            failed += 1
    timed = [c for i, c in enumerate(calls) if i not in outside] or calls

    # Sub-seeds differ in simulated load, so per-call figures are combined
    # by their median. Simulated seconds per host second is the ratio of
    # the sums instead: a lightly loaded call has a far higher ratio of its
    # own, and its weight should be the host time it took.
    per_call = lambda f: statistics.median(f(c) for c in timed)
    total = lambda key: sum(c[key] for c in timed)
    setups = [s for c in calls for s in c["setup_s"]]
    metrics = {
        "sim_s_per_wall_s": total("measured_sim_s") / total("measured_wall_s"),
        "wall_s": per_call(lambda c: c["wall_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": per_call(lambda c: c["peak_rss_mib"]),
        "us_per_ack": per_call(
            lambda c: c["measured_wall_s"] * 1e6 / max(c["measured_acks"], 1)),
        "sender_bytes_per_rcvr": per_call(lambda c: c["sender_bytes_per_rcvr"]),
    }
    print("\n%s: %d calls (sub-seeds %d..%d), %d timed, %d set-up samples"
          % (workload, len(calls), seed * 1000, seed * 1000 + len(calls) - 1,
             len(timed), len(setups)))
    for name, value in metrics.items():
        print("  %-24s %16.6g %s" % (name, value, units[name]))
    print("  %-24s %16.6g ratio  (%d of %d checks failed)"
          % ("check_fail_ratio", failed / attempted, failed, attempted))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    want = expected_metrics(args.trace)
    binary = build()
    if args.trace:
        report, result, code = rlabench(binary, "layers", args.workload,
                                        args.seed * 1000)
        print("\n".join(report))
        if code != 0 and result.get("failed", 0) == 0:
            fail("rlabench exited %d" % code)
    else:
        result = end_to_end(binary, args.workload, args.seed, args.seconds,
                            want)
    if not result["correct"]:
        fail("correctness checks failed: %d of %d"
             % (result["failed"], result["attempted"]))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra or "
             "mis-united %s" % (sorted(set(want) - set(got)),
                                sorted(k for k in got if want.get(k) != got[k])))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
