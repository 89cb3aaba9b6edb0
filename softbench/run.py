#!/usr/bin/env python3
"""softbench entry point: builds the benchmark from source, then runs one
workload and passes its output through.

Run from the root of a softsched checkout:

    python3 softbench/run.py --workload kernel_large --seed 1 --seconds 15 --trace 0
    python3 softbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/softbench (default .bench_build/softbench);
the last line of standard output is softbench_driver's JSON result. See
softbench/BENCHMARK.md for the workloads and metrics.
"""
import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("kernel_large", "refine_eco", "serve_hot")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"softbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(source_dir, build_dir):
    """Configures once, then (re)builds softbench_driver and softsched_cli."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "softbench_driver", "softsched_cli"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            fail("build failed: " + " ".join(step), 1)


def run_driver(command):
    """Runs softbench_driver in its own process group so a timeout also stops
    the daemon it may have started."""
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    source_dir = os.path.join(root, "softbench")
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))
            and os.path.isfile(os.path.join(root, "BENCHMARK.json"))
            and os.path.isfile(os.path.join(source_dir, "CMakeLists.txt"))):
        fail("run from the root of a softsched checkout (CMakeLists.txt, src/, "
             "BENCHMARK.json and softbench/ must be present)")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "softbench")
    build(source_dir, build_dir)

    # Relative paths keep the daemon's unix socket path short.
    work_dir = os.path.relpath(os.path.join(build_dir, "run"), root)
    command = [os.path.join(build_dir, "softbench_driver"),
               "--cli", os.path.join(build_dir, "softsched_cli"),
               "--work-dir", work_dir]
    if args.selftest:
        command.append("--selftest")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--spec", "BENCHMARK.json"]
    sys.stdout.flush()
    sys.exit(run_driver(command))


if __name__ == "__main__":
    main()
