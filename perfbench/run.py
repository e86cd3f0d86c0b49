#!/usr/bin/env python3
"""Build and run the CoPhy benchmark from the root of a source tree.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first build of a fresh tree
compiles the libraries too), then runs it with the same arguments.  The
benchmark's last line of standard output is one JSON object; the exit
status is the benchmark's, nonzero when the tree cannot be built, a
correctness check fails or the run overruns its time limit.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run me from the root of the CoPhy source tree "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    if shutil.which("dune") is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    # Keep every build product inside the tree: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/main.exe"],
            env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    try:
        run = subprocess.run([EXE] + sys.argv[1:], env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark overran %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
