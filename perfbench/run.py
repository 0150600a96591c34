#!/usr/bin/env python3
"""Build the KBC benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload spouse_full --seed 1 --seconds 10 --trace 0

The library and kbc_bench are compiled with CMake into
.bench_build/perfbench (an up-to-date tree rebuilds in about a second).
Build output goes to stderr; kbc_bench's report goes to stdout, and its
last line is the JSON result. Without the repository's sources the build
fails and this script exits non-zero without printing a result.
"""

import ctypes
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "kbc_bench")
BUILD_JOBS = "4"
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "Makefile")):
        configure += ["-G", "Ninja"]
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS]):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                env=env)
        if result.returncode != 0:
            return False
    return os.path.exists(BINARY)


def fixed_layout():
    """Turns off address-space randomisation for the benchmark process.

    With it on, the serving rate of one seed moved by 17% from process to
    process, with it off by 7%: where the heap and the mapped epochs land
    changes how their data shares the caches. Left as it is when the
    kernel refuses.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)  # reads the current persona
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    args = [BINARY, "--out-dir", BUILD_DIR] + sys.argv[1:]
    return subprocess.run(args, preexec_fn=fixed_layout).returncode


if __name__ == "__main__":
    sys.exit(main())
