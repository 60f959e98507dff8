#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <tune-small|tune-wide|serve-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The release build goes to
$CARGO_TARGET_DIR (default: .bench_build) and the serve workload's
session files to a work directory inside it, so the benchmark writes
nothing else. Build output goes to stderr; the last line of stdout is the
JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
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
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    # Replaces this process, so the benchmark is the only process left.
    os.execv(binary, [binary, *sys.argv[1:], "--work-dir", work])


if __name__ == "__main__":
    sys.exit(main())
