#!/usr/bin/env python3
"""Build the benchmark harness and run one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The harness is built from source with
its own CMake project (benchmark/CMakeLists.txt) into the build root:
$CARGO_TARGET_DIR when set, else .bench_build. Each run gets a fresh,
empty JIT artifact directory and temp directory under the build root
(removed afterwards), and an explicit thread-pool size: 1 unless
--threads asks for more (see README.md). The harness's last stdout
line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("fullgraph_infer", "fullgraph_train", "serve_mixed",
             "serve_online_sim")
RUN_TIMEOUT_S = 170
# The default pool: on a shared host a busy neighbour stalls every
# fork-join of a larger pool. With three busy loops beside it, a
# full-graph sweep slowed by 45% at a pool of 2 and by 6% at 1.
DEFAULT_POOL = 1


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(root):
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "compiler.hh")):
        fail("no library sources under %s/src: run from a full checkout"
             % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s not found on PATH" % tool)
    cmake_dir = os.path.join(root, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    with open(os.path.join(root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", cmake_dir, "-j",
                        str(min(cpus(), 8))],
                       check=True, stdout=sys.stderr)
    binary = os.path.join(cmake_dir, "hector_bench")
    if not os.access(binary, os.X_OK):
        fail("build produced no %s" % binary)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--threads", type=int, default=0,
                    help="thread-pool size (at most the CPUs; default: "
                    "%d)" % DEFAULT_POOL)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    root = build_root()
    try:
        binary = build(root)
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)

    threads = min(args.threads, cpus()) if args.threads > 0 \
        else DEFAULT_POOL
    run_dir = os.path.join(root, "runs",
                           "%d-%d" % (os.getpid(), time.time_ns()))
    env = dict(os.environ)
    env.update({
        "HECTOR_THREADS": str(threads),
        "HECTOR_JIT": "auto",
        "HECTOR_JIT_DIR": os.path.join(run_dir, "jit"),
        "TMPDIR": os.path.join(run_dir, "tmp"),
    })
    os.makedirs(env["HECTOR_JIT_DIR"])
    os.makedirs(env["TMPDIR"])
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, env=env, cwd=run_dir,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir, ignore_errors=True)
        fail("%s did not finish within %d s" % (args.workload,
                                                 RUN_TIMEOUT_S))
    shutil.rmtree(run_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        print("run.py: harness exited with %d" % proc.returncode,
              file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
