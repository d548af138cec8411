#!/usr/bin/env python3
"""Build and run the serving-tier benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload hot_small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --report resident --seconds 2

Run from the repo root.  The driver is configured and built into
.bench_build/perfbench on first use (about 30 s on 4 cores); later runs only
re-check the build.  Build output goes to stderr, so the last line of stdout
is the driver's JSON result.  Exits non-zero, without a result, when the
tree has no src/ to build against or the build fails.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(".bench_build") / "perfbench"


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no src/ next to perfbench/; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (ROOT / BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", "perfbench", "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "serve_bench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return ROOT / BUILD / "serve_bench"


def main() -> int:
    binary = build()
    sys.stdout.flush()
    done = subprocess.run([str(binary)] + sys.argv[1:], cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
