#!/usr/bin/env python3
"""Builds the program from the checkout and runs one benchmark workload.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --selftest --seed 1

Run it from the root of a checkout. The build goes to .bench_build/perfbench
(configured once, then rebuilt incrementally). The last line of standard
output is the workload's JSON result; the exit code is non-zero if the
build failed or an output check did not pass.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("grid", "serve", "fuzz")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(argv, log_path, timeout):
    with open(log_path, "ab") as log:
        try:
            return subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(root, build_dir):
    """Configures (once) and builds the benchmark and ipcp-serve."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run_logged(["cmake", "-S", source, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                          log_path, BUILD_TIMEOUT_S)
        if code != 0:
            # A failed configure leaves a cache behind; start clean next time.
            cache = os.path.join(build_dir, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
            fail("configure failed; see " + log_path)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    code = run_logged(["cmake", "--build", build_dir, "-j", jobs,
                       "--target", "ipcp-perfbench", "ipcp-serve"],
                      log_path, BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed; see " + log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that seeds determine the input streams")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    root = os.getcwd()
    golden_dir = os.path.join(root, "tests", "golden")
    if not os.path.isdir(os.path.join(root, "src")) or \
            not os.path.isdir(golden_dir):
        fail("run from the root of a checkout (src/ and tests/golden/ "
             "must exist)")
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    build(root, build_dir)

    binary = os.path.join(build_dir, "ipcp-perfbench")
    if args.selftest:
        argv = [binary, "--selftest", "--seed", str(args.seed)]
    else:
        work_dir = os.path.join(build_dir, "work")
        os.makedirs(work_dir, exist_ok=True)
        argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--golden-dir", golden_dir, "--work-dir", work_dir,
                "--serve-bin", os.path.join(build_dir, "ipcp", "tools",
                                            "ipcp-serve")]
    sys.stdout.flush()
    # Its own process group, so a timeout or a signal also stops the
    # ipcp-serve the serve workload spawned.
    proc = subprocess.Popen(argv, start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_signal(signum, _frame):
        stop()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
