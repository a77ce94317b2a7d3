#!/usr/bin/env python3
"""Build spamlab from source and run one benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the daemon (bin/spamlab.exe)
and the benchmark (perfbench/main.exe) with dune, then runs
the benchmark, whose last stdout line is the result as JSON.  Build
output goes to stderr.  `--workload all` runs every workload.
"""

import json
import os
import subprocess
import sys

TARGETS = ["./bin/spamlab.exe", "./perfbench/main.exe"]


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def main():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        sys.stderr.write("perfbench: run from the root of a spamlab checkout\n")
        return 2
    env = dict(os.environ)
    # Keep every build artifact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ".", *TARGETS],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    args = [exe, *sys.argv[1:]]
    if "--commit" not in args:
        args += ["--commit", commit()]
    sys.stdout.flush()
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or "--workload" not in args:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    # Print the result line only if it holds exactly the metrics
    # BENCHMARK.json declares for this kind of run.
    body, last = lines[:-1], (lines[-1] if lines else "")
    sys.stdout.write("".join(line + "\n" for line in body))
    problem = check_result(last, args)
    if problem:
        sys.stderr.write("perfbench: result line refused: %s\n" % problem)
        return 3
    print(last)
    return proc.returncode


def check_result(line, args):
    workload = args[args.index("--workload") + 1]
    if workload == "all":
        return None
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = bench["per_layer" if trace else "end_to_end"]
    try:
        result = json.loads(line)
    except ValueError:
        return "not JSON: %r" % line[:200]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "keys %s" % sorted(result)
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(metrics)), sorted(set(metrics) - set(want)))
    for name, unit in want.items():
        if metrics[name].get("unit") != unit:
            return "%s in %s, declared %s" % (name, metrics[name].get("unit"), unit)
    return None


if __name__ == "__main__":
    sys.exit(main())
