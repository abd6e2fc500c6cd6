#!/usr/bin/env python3
"""Build and run the MSQ benchmark for one workload.

    python3 perfbench/run.py --workload cold-compile --seed 1 \
        --seconds 10 --trace 0

Run from the root of a source checkout. The compiler's libraries and the
benchmark binaries are built from source into .bench_build/perfbench (the
first run builds; later runs only check the build is up to date). The
serve-restart workload needs the cache file an earlier daemon life wrote
for its requests; when the build has none yet, a separate process writes
it first. The binary's last line of standard output is the JSON result,
and this script passes it through. Build and priming logs go to standard
error. --trace 1 runs the traced binary, which reports the per-layer
metrics instead of the end-to-end ones. --self-test runs the replay
checker's self-test instead.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no compiler sources under %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def run(argv, capture=False):
    try:
        return subprocess.run(argv, stdout=subprocess.PIPE if capture
                              else sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        die("%s timed out after %d s" % (argv[0], RUN_TIMEOUT_S))


def primed_cache(binary):
    """The serve-restart cache file of this build, written on first use."""
    with open(binary, "rb") as f:
        stamp = hashlib.sha1(f.read()).hexdigest()[:16]
    path = os.path.join(OUT, "serve-restart-%s.msqc" % stamp)
    if not os.path.isfile(path):
        partial = path + ".partial"
        if run([binary, "--prime", partial]).returncode != 0:
            die("priming the serve-restart cache failed")
        os.replace(partial, path)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["cold-compile", "serve-restart",
                                 "multicore-ring"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build()
    os.makedirs(OUT, exist_ok=True)
    binary = os.path.join(
        BUILD, "msq_perfbench_traced" if args.trace else "msq_perfbench")
    if args.self_test:
        sys.exit(run([binary, "--self-test"]).returncode)

    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.trace:
        argv += ["--trace-out",
                 os.path.join(OUT, "trace-%s.json" % args.workload)]
    copy = None
    if args.workload == "serve-restart":
        # The engine saves back into its own copy, so the primed file
        # stays as the earlier life left it.
        primed = primed_cache(os.path.join(BUILD, "msq_perfbench"))
        copy = os.path.join(OUT, "serve-run-%d.msqc" % os.getpid())
        shutil.copyfile(primed, copy)
        argv += ["--cache", copy, "--cache-ref", primed]
    try:
        result = run(argv, capture=True)
    finally:
        if copy and os.path.exists(copy):
            os.remove(copy)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        die("%s exited with %d" % (argv[0], result.returncode))
    print(lines[-1])


if __name__ == "__main__":
    main()
