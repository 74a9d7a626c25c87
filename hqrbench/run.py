#!/usr/bin/env python3
"""Builds the HQR benchmark program from source and runs one workload.

    python3 hqrbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program and the libraries it links are
built with CMake (Release) into .bench_build/hqrbench; the first run builds,
later runs only check that the build is current. Build output goes to
stderr; the program's report goes to stdout, ending with one JSON line. With
--trace 1 the Perfetto trace is written to
.bench_build/hqrbench/traces/<workload>-seed<n>.json.

Everything the run reads or writes stays inside the checkout: the kernel
tuning cache is looked up in an empty directory under the build tree, so a
per-host cache elsewhere cannot change which kernels run, and environment
overrides of the kernel dispatch make the run fail instead of being obeyed.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hqrbench")
OVERRIDES = ("HQR_KERNEL_ISA", "HQR_GEMM_BACKEND", "HQR_TUNING", "HQR_TUNING_FILE")
WORKLOADS = ("factor-square", "qr-small", "serve-mixed", "dist-4rank")


def build(env):
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, env=env, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                       stdout=sys.stderr, env=env, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    set_overrides = [v for v in OVERRIDES if v in os.environ]
    if set_overrides:
        sys.exit("hqrbench: refusing to run with %s set; the benchmark pins "
                 "the default kernel dispatch" % ", ".join(set_overrides))

    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["XDG_CACHE_HOME"] = os.path.join(BUILD, "cache")
    try:
        build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("hqrbench: build failed: %s" % e)

    cmd = [os.path.join(BUILD, "hqrbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, env=env, timeout=170).returncode
    except subprocess.TimeoutExpired:
        sys.exit("hqrbench: the run did not finish in 170 s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
