#!/usr/bin/env python3
"""Builds the benchmark crate next to this file and runs one workload.

    python3 benchmark/run.py --workload <sharded-leave|classic-churn|facade-churn> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The build is an offline release
build of `benchmark/Cargo.toml` into `$CARGO_TARGET_DIR` (default
`.bench_build`). The script prints the commit, then hands over to the
benchmark binary, whose last line of standard output is the JSON result.
The exit code is the build's when the build fails, else the binary's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    out = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"run.py: the benchmark did not build (exit {build.returncode})", file=sys.stderr)
        return build.returncode or 1
    print(f"commit: {commit()}", flush=True)
    binary = os.path.join(target, "release", "rekey-benchmark")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
