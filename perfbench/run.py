#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sim-synth --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and a traced run's files all go under
.bench_build/ at the root, so the run reads and writes nothing outside
the checkout. The benchmark's JSON result is the last line of stdout.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        GOPROXY="off",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        sys.exit("perfbench: build failed")
    ran = subprocess.run([binary] + sys.argv[1:], cwd=root)
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
