#!/usr/bin/env python3
"""Repository benchmark command.

Builds the benchmark binary (perfbench/, linked against this checkout's
src/) and runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end list of BENCHMARK.json, with --trace 1 the per_layer list; the
printed names are checked against that file before the result is passed on.

    python3 perfbench/run.py --self-test

runs the binary's own self-test, checks that BENCHMARK.json and the binary
agree on every metric, and checks that each injected fault (bad completion
order, bad checksum, golden mismatch) is counted as a failed graph.

Build output goes to standard error; the build lives in .bench_build/ and the
span files and Chrome traces of the traced pass in .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(HERE, "golden", "sim-gaussian.txt")
# The binary caps its own timing loop well below this.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("the nexuspp sources (CMakeLists.txt, src/) are not "
                         "in " + ROOT + "; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_binary(args, timeout=RUN_TIMEOUT_S):
    """Runs the perfbench binary; returns (stdout, returncode)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    return proc.stdout, proc.returncode


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError("perfbench printed nothing")
    return json.loads(lines[-1])


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def binary_metrics():
    stdout, code = run_binary(["--list-metrics"], timeout=30)
    if code:
        raise BenchError("--list-metrics failed")
    lists = {"end_to_end": {}, "per_layer": {}}
    for line in stdout.splitlines():
        kind, name, unit = line.split()
        lists[kind][name] = unit
    return lists["end_to_end"], lists["per_layer"]


def check_printed(result, trace):
    e2e, layer = declared_metrics()
    want = layer if trace else e2e
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise BenchError("printed metrics differ from BENCHMARK.json: "
                         "missing %s, extra %s" % (
                             sorted(set(want) - set(got)),
                             sorted(set(got) - set(want))))


def run(opts):
    build()
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace),
            "--golden", GOLDEN, "--out", OUT_DIR]
    stdout, code = run_binary(args)
    if code:
        sys.stderr.write(stdout)
        raise BenchError("perfbench exited with code %d" % code)
    check_printed(result_of(stdout), opts.trace)
    sys.stdout.write(stdout)
    sys.stdout.flush()


def self_test():
    build()
    problems = []

    stdout, code = run_binary(["--self-test"], timeout=60)
    sys.stdout.write(stdout)
    if code:
        problems.append("perfbench self-test failed")

    e2e, layer = declared_metrics()
    bin_e2e, bin_layer = binary_metrics()
    if (e2e, layer) != (bin_e2e, bin_layer):
        problems.append("BENCHMARK.json and perfbench list different "
                        "metrics or units")
    print("metric lists: BENCHMARK.json %d + %d, perfbench %d + %d" % (
        len(e2e), len(layer), len(bin_e2e), len(bin_layer)))

    # Short runs: a clean control, then each injected fault on the workload
    # whose check it targets. Each fault must be counted as a failed graph.
    cases = [("exec-coarse", None), ("exec-coarse", "bad-order"),
             ("runtime-stencil", None), ("runtime-stencil", "bad-checksum"),
             ("sim-gaussian", None), ("sim-gaussian", "golden-mismatch")]
    for workload, fault in cases:
        args = ["--workload", workload, "--seed", "1", "--seconds", "0.2",
                "--trace", "0", "--min-graphs", "3", "--golden", GOLDEN,
                "--out", OUT_DIR]
        if fault:
            args += ["--inject", fault]
        stdout, code = run_binary(args)
        result = result_of(stdout)
        ok_frac = result["metrics"]["ok_frac"]["value"]
        if fault:
            good = (code == 0 and result["failed"] >= 1
                    and not result["correct"] and ok_frac < 1.0)
        else:
            good = code == 0 and result["failed"] == 0 and result["correct"]
        print("%-16s %-16s attempted %3d failed %d ok_frac %.4f  %s" % (
            workload, fault or "(none)", result["attempted"],
            result["failed"], ok_frac, "ok" if good else "WRONG"))
        if not good:
            problems.append("%s with fault %s" % (workload, fault))

    for p in problems:
        print("self-test problem: " + p)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    try:
        if opts.self_test:
            return self_test()
        if not opts.workload:
            parser.error("--workload is required")
        run(opts)
        return 0
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
