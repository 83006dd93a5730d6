#!/usr/bin/env python3
"""Build and run the clo end-to-end benchmark.

Run from the repository root:

    python3 clobench/run.py --workload optimize_warm --seed 1 --seconds 15 --trace 0

The first run configures and builds clobench/ (which compiles the clo_*
libraries from src/) into .bench_build/clobench; later runs only let the
build tool confirm it is up to date. A failed configure or build, or a
build that leaves no binary, stops the run with a non-zero exit code and
the tail of the build log on stderr. The benchmark's three JSON lines go
to stdout; the result object is the last line.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "clobench")
BINARY = os.path.join(BUILD, "clobench")
LOG_TAIL_LINES = 60


def fail(message, log_path=None):
    print(f"clobench: {message}", file=sys.stderr)
    if log_path and os.path.exists(log_path):
        with open(log_path, errors="replace") as log:
            tail = log.readlines()[-LOG_TAIL_LINES:]
        print(f"--- last {len(tail)} lines of {log_path} ---", file=sys.stderr)
        sys.stderr.writelines(tail)
    sys.exit(2)


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode


def build():
    """Configure (once) and build the benchmark; exits on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no clo sources under {os.path.join(ROOT, 'src')}: run from a "
             "full checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            log = os.path.join(BUILD, "configure.log")
            if run_logged(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log) != 0:
                # A half-written cache would skip configure next time.
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                fail("configure failed", log)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        log = os.path.join(BUILD, "build.log")
        if run_logged(["cmake", "--build", BUILD, "-j", jobs], log) != 0:
            fail("build failed", log)
        if not (os.path.isfile(BINARY) and os.access(BINARY, os.X_OK)):
            fail(f"build finished but left no binary at {BINARY}", log)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """sha256 over the benchmarked sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "clobench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run_binary(workload, seed, seconds, trace, extra, trace_out=None,
               stdout=None):
    """Runs one workload; returns the subprocess.CompletedProcess."""
    scratch = os.path.join(BUILD, "tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch, "--commit", commit(),
           "--source-digest", source_digest()]
    if trace:
        if trace_out is None:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            trace_out = os.path.join(traces, f"{workload}-{seed}.jsonl")
        cmd += ["--trace-out", trace_out]
    try:
        sys.stdout.flush()
        return subprocess.run(cmd + extra, cwd=ROOT, stdout=stdout,
                              text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["optimize_warm", "serve_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    build()
    code = run_binary(args.workload, args.seed, args.seconds, args.trace,
                      []).returncode
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
