#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
the simulator and the perfbench binary under the build directory
($CARGO_TARGET_DIR when set, else .bench_build); later calls only rebuild
what changed. Build output goes to stderr, so the last line of stdout is the
binary's JSON result. --trace 1 also writes the run's Chrome-trace artefact
to <build dir>/traces/<workload>-seed<N>.json.

Exit status is non-zero, with no result printed, when the sources are
missing, the build fails, an MVFLOW_* variable is set, or the binary fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.join(ROOT, d) if not os.path.isabs(d) else d,
                        "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(bdir, "perfbench")
    if not os.access(exe, os.X_OK):
        fail(f"build produced no binary at {exe}")
    return exe


def expected_digest(workload):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)["digests"].get(workload)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    mv = sorted(k for k in os.environ if k.startswith("MVFLOW_"))
    if mv:
        fail("refusing to run with " + ", ".join(mv) + " set: MVFLOW_* "
             "variables change the simulator's configuration")

    bdir = build_dir()
    exe = build(bdir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    digest = expected_digest(args.workload)
    if digest:
        cmd += ["--expect-digest", digest]
    if args.trace:
        tdir = os.path.join(bdir, "traces")
        os.makedirs(tdir, exist_ok=True)
        cmd += ["--artefact",
                os.path.join(tdir, f"{args.workload}-seed{args.seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"perfbench exited with status {r.returncode}")
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no JSON result")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
