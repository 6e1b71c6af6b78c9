#!/usr/bin/env python3
"""Build the benchmark program from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ref-mem --seed 1 --seconds 10 --trace 0

Every argument is passed to the program (see main.go for the flags). The
Go build cache, temporary files and the binary live in the build directory,
$CARGO_TARGET_DIR or .bench_build, so nothing is written outside the
checkout. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.pop("GOFLAGS", None)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run the Go toolchain: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return built.returncode
    args = [binary,
            "--golden-dir", os.path.join(HERE, "golden"),
            "--reference", os.path.join(ROOT, "results", "reference_run.txt"),
            "--out-dir", os.path.join(build, "traces"),
            *sys.argv[1:]]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execve(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
