#!/usr/bin/env python3
"""Builds and runs the tdp end-to-end benchmark.

    python3 perfbench/run.py --workload inner_product|fft_pipeline|linear_solve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds the
runtime and the benchmark (Release) under $CARGO_TARGET_DIR, default
.bench_build; later runs only check the build is current.  Build output
goes to stderr; the benchmark's stdout passes through unchanged, so the
last line printed is its JSON result.  A traced run also writes the
benchmark's spans, as Chrome trace_event JSON, next to the build.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def git_commit():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(bdir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no runtime sources (src/) next to perfbench/")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["inner_product", "fft_pipeline", "linear_solve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    trace_out = os.path.join(os.path.dirname(bdir),
                             "perfbench-trace-%s.json" % args.workload)
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-out", trace_out, "--commit", git_commit()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
