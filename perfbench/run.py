#!/usr/bin/env python3
"""Builds and runs the emask benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload dpa-4r --seed 1 --seconds 20 --trace 0

It builds the `perfbench` and `repro` binaries (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs `perfbench` with the
given arguments. Its standard output, whose last line is the JSON result,
passes through unchanged; build output goes to standard error. The exit
code is the failing build's or `perfbench`'s.
"""

import os
import subprocess
import sys


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "-p", "emask-bench", "--bin", "repro"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
        if built.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return built.returncode
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"), *sys.argv[1:], "--repro", os.path.join(release, "repro")]
    return subprocess.run(bench, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
