#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload ingest|query|serve --seed N \
        --seconds S --trace 0|1 [--slo-p99-us ... --rate-steps ...]

Run from the repository root.  Builds perfbench/main.exe with dune (the
shared dune cache disabled, so the build reads and writes only inside
the repository), runs it with the given arguments, checks that the
metrics it reports are exactly the ones BENCHMARK.json declares, with
the declared units, and passes its output through.  Exits non-zero, and
prints no result line, when the build, the run or that check fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        return fail("no dune-project at the repository root: nothing to build")
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.join(ROOT, "_build", ".cache"),
    )
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return fail("build failed")
    try:
        run = subprocess.run([EXE] + argv, cwd=ROOT, env=env,
                             capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        return fail("run failed with exit code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (ValueError, OSError) as e:
        return fail("unreadable result or BENCHMARK.json: %s" % e)
    key = "per_layer" if "--trace" in argv and argv[argv.index("--trace") + 1] == "1" \
        else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if declared != got:
        return fail("metrics differ from BENCHMARK.json %s: %s" % (
            key, sorted(set(declared.items()) ^ set(got.items()))))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
