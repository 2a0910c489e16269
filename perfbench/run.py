#!/usr/bin/env python3
"""Build the server and the benchmark executable from source, then run one workload.

    python3 perfbench/run.py --workload reproduce|serve-hit \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Build output goes to stderr; the last
line of stdout is the run's result.  The exit code is main.exe's: 0 when
every output matched its expected value.
"""

import os
import shutil
import subprocess
import sys

# What a checkout of the repository holds beside the benchmark.
REQUIRED = ["dune-project", "bin/branch_align.ml", "lib/serve/server.ml"]
TARGETS = ["bin/branch_align.exe", "perfbench/main.exe"]
MAIN = "_build/default/perfbench/main.exe"


def main():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print("perfbench: run from the root of a repository checkout "
              "(missing: %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run([dune, "build", "--root", "."] + TARGETS,
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    os.execv(MAIN, [MAIN, "run"] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
