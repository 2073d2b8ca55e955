#!/usr/bin/env python3
"""Self-test of the benchmark itself, at toy size (about a minute after the build).

    python3 perfbench/selftest.py

Runs from the root of a gridvc checkout and checks that:
  * every workload passes its output checks and prints every end-to-end
    metric (--trace 0) and every per-layer metric (--trace 1) of
    BENCHMARK.json, by name and with its unit;
  * every per-layer metric names the end-to-end metric it should move
    (perfbench/layers.json);
  * an injected output-check failure (--sabotage) fails the run;
  * a pass that outlives its wall-clock limit is counted as failed;
  * without the gridvc sources the benchmark exits nonzero and prints
    no result.
Exits 0 when all hold, 1 otherwise.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-pipeline", "anl-nersc", "federation", "serve"]

failures = []


def expect(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        failures.append(what)


def bench(cwd, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "1", "--seconds", "1",
           *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result, p


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        targets = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(all(targets.get(n, {}).get("moves") for n in layer),
           "layers.json names a target for every per-layer metric")

    for w in WORKLOADS:
        for trace, wanted in (("0", e2e), ("1", layer)):
            rc, res, p = bench(ROOT, "--workload", w, "--trace", trace, "--toy")
            good = (rc == 0 and res is not None and res["correct"] and res["failed"] == 0
                    and res["attempted"] >= 1)
            expect(good, "%s --trace %s passes its checks" % (w, trace))
            if not good:
                print(p.stdout[-1500:], p.stderr[-1500:])
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == wanted, "%s --trace %s prints every metric with its unit" % (w, trace))
            expect(all(isinstance(v["value"], float) for v in res["metrics"].values()),
                   "%s --trace %s values are numbers" % (w, trace))
        rc, res, _ = bench(ROOT, "--workload", w, "--trace", "0", "--toy", "--sabotage")
        expect(rc != 0 and res is not None and not res["correct"],
               "%s: an injected output-check failure fails the run" % w)

    rc, res, _ = bench(ROOT, "--workload", "anl-nersc", "--trace", "0", "--toy",
                       "--pass-timeout", "0.01")
    expect(rc != 0 and res is not None and res["failed"] >= 1 and not res["correct"],
           "a pass past its wall-clock limit counts as failed")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, res, _ = bench(bare, "--workload", "serve", "--trace", "0")
    expect(rc != 0 and res is None, "without gridvc sources: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("ok" if not failures else "%d failed" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
