#!/usr/bin/env python3
"""Build the e2e benchmark from this checkout, then run it.

    python3 bench/e2e/run.py --workload fig9 --seed 1 --seconds 20 --trace 0

Every argument is passed to the `e2e` binary (see e2e.cpp for its
modes). The binary is built in $CARGO_TARGET_DIR/e2e when that variable
is set, else in .bench_build/e2e under the checkout root; later runs
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's own.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e")


def build(directory):
    # Configuring an existing build directory again is cheap, and repairs
    # one whose first configure failed.
    generator = []
    if (not os.path.exists(os.path.join(directory, "CMakeCache.txt"))
            and shutil.which("ninja")):
        generator = ["-G", "Ninja"]
    subprocess.run(
        ["cmake", "-S", os.path.join(ROOT, "bench", "e2e"), "-B", directory,
         "-DCMAKE_BUILD_TYPE=Release"] + generator,
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", directory, "--target", "e2e", "-j",
         str(min(4, os.cpu_count() or 1))],
        stdout=sys.stderr, check=True)
    return os.path.join(directory, "e2e")


def main():
    directory = build_dir()
    try:
        binary = build(directory)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    out_dir = os.path.join(directory, "out")
    os.makedirs(out_dir, exist_ok=True)
    args = sys.argv[1:]
    if "--out-dir" not in args and "--compare" not in args:
        args += ["--out-dir", out_dir]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
