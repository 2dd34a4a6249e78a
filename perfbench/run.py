#!/usr/bin/env python3
"""Build and run the stateslice benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload memopt-dense --seed 1 --seconds 10 --trace 0

The script builds the perfbench Go program from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build), keeping the Go build
cache there as well, then runs it with the same arguments and passes its
output and exit code through. The program's last line of standard output is
the JSON result. The Unshared reference digests that the output check
compares against are cached per input in the build directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# The first build in a fresh checkout compiles the standard library into the
# empty cache; later builds reuse it.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build_dir, "perfbench")
    cache = os.path.join(build_dir, "refcache")
    try:
        subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=HERE, env=env, check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr,
        )
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        args = [binary, "--cache", cache] + sys.argv[1:]
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
