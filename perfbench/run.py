#!/usr/bin/env python3
"""Builds the chatls daemon and the perfbench driver from source, then runs
one benchmark workload.

    python3 perfbench/run.py --workload <cold_rtl|warm_repeat|eval_sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Builds go to $CARGO_TARGET_DIR (default
.bench_build). Build output goes to stderr; the last line of stdout is the
run's JSON result. Exits non-zero, printing no result, if either build or
the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "chatls", "--bin", "chatls"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    driver = os.path.join(target, "release", "perfbench")
    daemon = os.path.join(target, "release", "chatls")
    return subprocess.run([driver, "--daemon", daemon, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
