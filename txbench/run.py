#!/usr/bin/env python3
"""Build and run the txbench benchmark from the root of a source checkout.

    python3 txbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the engine and the driver from source (CMake + Ninja) under
$CARGO_TARGET_DIR/txbench, or .bench_build/txbench when that is unset,
prints an attribution stamp, then runs the driver, whose last line of
standard output is the JSON result. The exit code is the driver's:
nonzero when the build fails or an output check fails. A traced run
writes its spans to spans-<workload>.jsonl in the build directory.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def log(msg):
    print(f"txbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then let ninja rebuild what changed."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "database.h")):
        log(f"engine sources not found under {ROOT}/src")
        return False
    steps = []
    if not os.path.exists(os.path.join(build_dir, "build.ninja")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "txbench"),
                      "-B", build_dir, "-G", "Ninja"])
    steps.append(["cmake", "--build", build_dir, "-j", "2"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def tree_digest(*dirs):
    """sha256 over the files of `dirs` (attribution without git metadata)."""
    h = hashlib.sha256()
    for d in dirs:
        for base, subdirs, files in os.walk(os.path.join(ROOT, d)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "txbench"))
    if not build(build_dir):
        return 2

    stamp = {
        "git_sha": git_sha(),
        "source_sha256": tree_digest("src", "txbench"),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("stamp " + json.dumps(stamp, sort_keys=True), flush=True)
    cmd = [os.path.join(build_dir, "txbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(build_dir, f"spans-{args.workload}.jsonl")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
