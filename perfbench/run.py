#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of a Beltway source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (its output goes to stderr), then
runs it with the same arguments; the benchmark's report and its final
JSON line go to stdout. Exits non-zero, without a result, when the tree
holds no Beltway sources or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def main():
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} missing under {ROOT}: not a Beltway source tree",
                  file=sys.stderr)
            return 2
    # Keep every write inside the tree: no shared dune cache, and the
    # compilers' temporary files under perfbench/_out.
    tmp = os.path.join(ROOT, "perfbench", "_out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
