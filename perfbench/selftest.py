#!/usr/bin/env python3
"""Short-size self-check of the benchmark.

    python3 perfbench/selftest.py

Builds the perfbench binary (as run.py does), then checks on every workload, with
runs of a fraction of a second:

  * --trace 0 prints exactly the end_to_end metrics of BENCHMARK.json and
    --trace 1 exactly the per_layer ones, each with its unit, both in the
    JSON result and in the human-readable lines before it;
  * the run is correct and its digest is the one recorded in digests.json;
  * the traced run's artefact is a Chrome trace with the per-layer numbers;
  * a tampered expected digest makes every episode fail (ok_share 0, and
    nas.verified_share 0 in a traced run);
  * an MVFLOW_* variable in the environment makes the binary refuse to run.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build helpers)

SECONDS = "0.2"


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def drive(exe, workload, trace, extra=(), env=None):
    cmd = [exe, "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=170)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    exe = run.build(run.build_dir())
    tmp = tempfile.mkdtemp(dir=run.build_dir())

    for wl in (w["name"] for w in bench["workloads"]):
        digest = run.expected_digest(wl)
        check(digest is not None, f"{wl}: digest recorded")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            artefact = os.path.join(tmp, f"{wl}.json")
            extra = ["--expect-digest", digest]
            if trace:
                extra += ["--artefact", artefact]
            r = drive(exe, wl, trace, extra)
            check(r.returncode == 0, f"{wl} trace={trace}: exit 0")
            lines = r.stdout.rstrip("\n").split("\n")
            res = json.loads(lines[-1])
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"{wl} trace={trace}: result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{wl} trace={trace}: correct, digest {digest}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{wl} trace={trace}: every {key} metric, "
                  "with its unit")
            printed = {ln.split()[0]: ln.split()[2] for ln in lines[:-1]
                       if len(ln.split()) >= 3 and ln.split()[0] in want}
            check(printed == want, f"{wl} trace={trace}: every metric "
                  "printed by name with its unit")
            if trace:
                with open(artefact) as f:
                    doc = json.load(f)
                check(len(doc["traceEvents"]) > 0 and
                      set(doc["otherData"]["per_layer"]) == set(want),
                      f"{wl}: artefact holds spans and per-layer numbers")

        r = drive(exe, wl, 0, ["--expect-digest", "0" * 16])
        res = json.loads(r.stdout.rstrip("\n").split("\n")[-1])
        check(r.returncode == 0 and not res["correct"] and
              res["failed"] == res["attempted"] and
              res["metrics"]["ok_share"]["value"] == 0,
              f"{wl}: tampered digest fails every episode")

    r = drive(exe, "bw_eager", 1, ["--expect-digest", "0" * 16])
    res = json.loads(r.stdout.rstrip("\n").split("\n")[-1])
    check(r.returncode == 0 and not res["correct"] and
          res["metrics"]["nas.verified_share"]["value"] == 0,
          "tampered digest: traced episodes are not counted as verified")

    env = dict(os.environ, MVFLOW_SCHEDULER="wheel")
    r = drive(exe, "bw_eager", 0, env=env)
    check(r.returncode != 0 and not r.stdout.strip(),
          "MVFLOW_* set: binary refuses, prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
