#!/usr/bin/env python3
"""Build and run the simulator's host-cost benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-eval --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that imports the
simulator's packages from the enclosing checkout. This wrapper builds it
from source into .bench_build/ with every Go cache kept inside the checkout,
then runs it with the given arguments. The benchmark's last line of
standard output is the JSON result; a failed build exits non-zero without
printing one.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# A run measures for at most 60 s plus set-up; this bounds a hung build or
# run so the wrapper always exits.
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
    })
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed:", err, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([binary, "--out", BUILD] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: run failed:", err, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
