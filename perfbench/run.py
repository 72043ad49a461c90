#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-flood --seed 1 --seconds 10 --trace 0

The script builds the Go benchmark (a module of its own that imports the
repository's packages from source) into the build directory, then runs
it with the same arguments. Everything the build writes (binary, Go build
cache, temporary files) stays in the build directory: $CARGO_TARGET_DIR
when set, else .bench_build. The benchmark's exit code is passed through;
a failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod -buildvcs=false",
        "GOTELEMETRY": "off",
    })
    for key in ("GOCACHE", "GOMODCACHE", "GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", build]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
