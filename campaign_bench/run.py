#!/usr/bin/env python3
"""Builds the campaign benchmark from source, then runs it.

Run from the repository root:

    python3 campaign_bench/run.py --workload uniform --seed 1 --seconds 25 --trace 0

Every argument is passed on to the benchmark binary (see src/main.rs and
NOTES.md). The build goes to $CARGO_TARGET_DIR, or .bench_build when it is
unset. Exits non-zero, without a result line, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "campaign-bench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
