#!/usr/bin/env python3
"""Runs one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload jit-warm|solve|wjd-mixed \
        --seed N --seconds S --trace 0|1

Builds the perfbench binary from source on first use (the repository's own
CMake project, with attach.cmake adding the benchmark target) under
.bench_build/, gives the run a private directory for the compile cache,
TMPDIR and the daemon socket, sets every WJ_* switch of the workload in the
child's environment before it starts, and prints the host, the switches and
then the binary's output. The last line is the result JSON. Exits non-zero,
without a result, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170

# The switches of each workload; nothing else named WJ_* reaches the run.
SWITCHES = {
    "jit-warm": {"WJ_PARALLEL": "1", "WJ_SIMD": "1", "WJ_SOA": "1", "WJ_THREADS": "1"},
    "solve": {"WJ_PARALLEL": "1", "WJ_SIMD": "1", "WJ_THREADS": "2", "WJ_TRANSPORT": "threads"},
    # Set here so the daemon does not setenv it at start.
    "wjd-mixed": {"WJ_CACHE_EVICT_GRACE_MS": "10000"},
}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the perfbench target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail("no source tree at " + ROOT + " (need CMakeLists.txt and src/)")
    build_dir = os.path.join(ROOT, BUILD)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l.split("=", 1)[1].strip() for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [ROOT]:  # a build tree copied from another checkout
            shutil.rmtree(build_dir)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(cache):
            cmd = ["cmake", "-S", ROOT, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release",
                   # The repository's default optimisation level, without -g.
                   "-DCMAKE_CXX_FLAGS_RELEASE=-O2 -DNDEBUG",
                   "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(ROOT, "perfbench", "attach.cmake")]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                if os.path.isfile(cache):
                    os.remove(cache)  # configure again next time
                fail("configure failed; see " + log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            fail("build failed; see " + log_path)
    return os.path.join(build_dir, "perfbench", "perfbench")


def host_lines(switches):
    lines = ["host nproc=%d" % (os.cpu_count() or 0)]
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True).stdout
        lines.append("host cc: " + (cc.splitlines() or ["?"])[0])
    except OSError:
        lines.append("host cc: not found")
    lines.append("switches " + " ".join("%s=%s" % kv for kv in sorted(switches.items())))
    return lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SWITCHES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    binary = build()

    # A private directory per run, relative to the checkout root so the
    # daemon's socket path stays short.
    run_dir = os.path.join(".bench_build", "runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "cache"))
    os.makedirs(os.path.join(run_dir, "tmp"))
    trace_dir = os.path.join(".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)

    env = {k: v for k, v in os.environ.items() if not k.startswith(("WJ_", "WJD_"))}
    switches = dict(SWITCHES[args.workload])
    env.update(switches)
    env["WJ_CACHE_DIR"] = os.path.abspath(os.path.join(run_dir, "cache"))
    env["TMPDIR"] = os.path.abspath(os.path.join(run_dir, "tmp"))
    for line in host_lines(switches):
        print(line, flush=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--setup-reps", "1" if args.trace else "5", "--run-dir", run_dir,
           "--trace-out", os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(RUN_TIMEOUT_S, kill_group)
    watchdog.start()
    last = ""
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line:
                last = line
            print(line, flush=True)
        code = proc.wait()
    finally:
        watchdog.cancel()
        kill_group()  # anything the run left behind (a stray cc)
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    if code != 0:
        fail("run exited with code %d" % code, 1)
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("run printed no result line", 1)


if __name__ == "__main__":
    main()
