#!/usr/bin/env python3
"""Build and run the open-loop benchmark (see README.md).

    python3 loadbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds loadbench/main.exe with dune
into .bench_build/ (shared dune cache off, temporary files kept there, so
nothing is written outside the checkout), runs it, and passes its output
through: the last line of stdout
is the JSON result. Exits non-zero, without a result, if the repository is
not there or does not build.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
WORK_DIR = os.path.join(".bench_build", "loadbench")
EXE = os.path.join(BUILD_DIR, "default", "loadbench", "main.exe")
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("loadbench", "dune")):
        if not os.path.exists(needed):
            sys.exit(f"run.py: {needed} not found; run from the repository root")

    os.makedirs(WORK_DIR, exist_ok=True)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(".bench_build", "cache"))
    # The compiler's temporary files.
    env["TMPDIR"] = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
         "--profile", "release", "-j", "2", "./loadbench/main.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.exit(f"run.py: build failed ({build.returncode})")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
