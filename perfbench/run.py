#!/usr/bin/env python3
"""Build and run the DAISY benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark package (perfbench/Cargo.toml) is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build), then run with the same arguments.
Build output goes to standard error; the last line of standard output is the
benchmark's JSON result. A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Builds the benchmark; returns the binary's path, or exits on failure."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Build chatter goes to stderr so stdout ends with the result line.
    code = subprocess.call(cmd, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        sys.exit(code)
    return os.path.join(target, "release", "daisy-perfbench")


def main():
    binary = build()
    sys.stdout.flush()
    sys.exit(subprocess.call([binary] + sys.argv[1:]))


if __name__ == "__main__":
    main()
