#!/usr/bin/env python3
"""facsim benchmark: build, run one workload, print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds facsim with the repository's own top-level CMake at its default
build type, then the load generator in perfbench/harness against that
build, under $CARGO_TARGET_DIR (default .bench_build). Scratch outputs
(live-point libraries, cache files, the daemon's socket, traces) go to
.bench_out. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time

WORKLOADS = ("timing_sweep", "sampled_farm")
# Run budget enforced on the load generator (the benchmark must exit
# within 180 s of its start once built).
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def threads():
    """Threads per load: 2, or fewer when fewer CPUs are available.

    In one tuning set on a four-CPU host, four threads left the farm's
    live points per second with a 15% run-to-run spread and two with
    about 2%.
    """
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    return max(1, min(2, n))


def run_build(cmd, env):
    # Build chatter goes to stderr so stdout carries only the report.
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        log("perfbench: build step failed: " + " ".join(cmd))
        sys.exit(1)


def build(root):
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("perfbench: run from the facsim repository root "
            "(no CMakeLists.txt / src here)")
        sys.exit(2)
    top = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    fbuild = os.path.join(top, "facsim")
    hbuild = os.path.join(top, "harness")
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(top, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(fbuild, "CMakeCache.txt")):
        run_build(["cmake", "-S", root, "-B", fbuild], env)
    run_build(["cmake", "--build", fbuild, "--target", "facsim_cli",
               "-j", jobs], env)
    if not os.path.isfile(os.path.join(hbuild, "CMakeCache.txt")):
        run_build(["cmake", "-S", os.path.join(root, "perfbench", "harness"),
                   "-B", hbuild, "-DFACSIM_SOURCE_DIR=" + root,
                   "-DFACSIM_BUILD_DIR=" + fbuild], env)
    run_build(["cmake", "--build", hbuild, "-j", jobs], env)
    return fbuild, os.path.join(hbuild, "perfbench"), \
        os.path.join(fbuild, "tools", "facsim_cli")


def host_block(fbuild):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.+)$", f.read(), re.M)
            if m:
                cpu = m.group(1).strip()
    except OSError:
        pass
    compiler, flags, btype = "unknown", "unknown", ""
    try:
        with open(os.path.join(fbuild, "CMakeCache.txt")) as f:
            cache = f.read()
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.+)$", cache, re.M)
        if m:
            out = subprocess.run([m.group(1), "--version"],
                                 capture_output=True, text=True).stdout
            compiler = out.splitlines()[0] if out else m.group(1)
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
        btype = m.group(1) if m else ""
        with open(os.path.join(fbuild, "src", "CMakeFiles",
                               "facsim_cpu.dir", "flags.make")) as f:
            m = re.search(r"^CXX_FLAGS = (.*)$", f.read(), re.M)
            if m:
                flags = m.group(1).strip()
    except (OSError, IndexError):
        pass
    rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True)
    return ("host: cpu=%s | nproc=%d (threads per load %d) | compiler=%s | "
            "build type=%s | cxx flags=%s | git rev=%s"
            % (cpu, os.cpu_count() or 0, threads(), compiler,
               btype or "(repository default)", flags,
               rev.stdout.strip() if rev.returncode == 0
               else "(not a git checkout)"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="feed every output check a wrong input")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")

    root = os.getcwd()
    fbuild, harness, cli = build(root)
    out_dir = ".bench_out"
    os.makedirs(out_dir, exist_ok=True)
    print(host_block(fbuild), flush=True)

    if a.selftest:
        cmd = [harness, "selftest"]
    else:
        cmd = [harness, a.workload, "--seed", str(a.seed),
               "--seconds", repr(a.seconds), "--trace", str(a.trace),
               "--cli", cli, "--out", out_dir, "--threads", str(threads())]
    cmd += ["--spawn-mono", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: load generator exceeded %d s" % RUN_TIMEOUT_S)
        sys.exit(1)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(out)
        log("perfbench: load generator exited with %d" % proc.returncode)
        sys.exit(1)
    if a.selftest:
        sys.stdout.write(out)
        return
    try:
        json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        log("perfbench: no JSON result from the load generator")
        sys.exit(1)
    print("\n".join(lines[:-1]))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
