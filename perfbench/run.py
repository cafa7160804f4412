#!/usr/bin/env python3
"""The repository benchmark: builds dufp_perfbench from source, then runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
perfbench/ (which compiles the repository's src/) into .bench_build/;
later runs only rebuild what changed.  Build output goes to stderr, so
the last line of stdout is always the JSON result of dufp_perfbench.  Results
and spans are written under .bench_build/results/.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "dufp_perfbench")
WORKLOADS = ("paper_grid", "sharded_grid", "sharded_storm", "fleet_capped")
# dufp_perfbench stops starting passes at 150 s; this is the backstop.
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd):
    """Runs a build step with its output on stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if run_logged(configure) != 0:
        # A build tree configured for another checkout: start over once.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        if run_logged(configure) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", BUILD_DIR, "--target", "dufp_perfbench",
                   "-j", jobs]) != 0:
        fail("build failed")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def clean_env():
    """The library reads DUFP_* knobs from the environment; the benchmark
    pins them so results depend on the workload spec alone."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DUFP_")}
    env["DUFP_QUIET"] = "1"
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--shape", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own test shapes")
    parser.add_argument("--flip-byte", action="store_true",
                        help="corrupt one timed result (gate test)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS_DIR, "--shape", args.shape,
           "--git-commit", git_commit()]
    if args.flip_byte:
        cmd.append("--flip-byte")
    sys.stdout.flush()
    # Own process group: the shard workers dufp_perfbench forks are stopped
    # together with it on a timeout or a SIGTERM.
    proc = subprocess.Popen(cmd, env=clean_env(), cwd=ROOT,
                            start_new_session=True)

    def stop(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    signal.signal(signal.SIGTERM, lambda *a: (stop(), sys.exit(1)))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        stop()
        return 1


if __name__ == "__main__":
    sys.exit(main())
