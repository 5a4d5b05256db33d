#!/usr/bin/env python3
"""Build and run the brickx benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep|tune|exec --seed N \\
        --seconds S --trace 0|1 [--inject-invalid]

Builds perfbench/ (which compiles the library sources under src/) into
.bench_build/perfbench of the checkout, then runs brickx_perf. The last line
of standard output is the result JSON; a traced run also writes its spans
to .bench_build/perfbench/trace-<workload>-<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "harness" / "experiment.h").is_file():
        fail(f"brickx sources not found under {ROOT / 'src'}", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log})", 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "tune", "exec"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--inject-invalid", action="store_true",
                    help="append a config the harness rejects (tests only)")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    build()
    cmd = [str(BUILD / "brickx_perf"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace]
    if a.trace == "1":
        cmd += ["--trace-out",
                str(BUILD / f"trace-{a.workload}-{a.seed}.json")]
    if a.inject_invalid:
        cmd.append("--inject-invalid")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"brickx_perf exceeded {RUN_TIMEOUT_S} s", 4)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
