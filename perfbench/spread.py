#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload W [--runs 10] [--seconds S]
                                [--first-seed 1] [--trace 0|1]

Runs the benchmark once per seed (first-seed, first-seed+1, ...) and
prints, per metric, the median and the distance between the first and
third quartile as a share of the median, the spread BENCHMARK.json's
bounds are held to.  Exits non-zero if any run fails or reports
"correct": false, or if any spread (setup_s excepted) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    ok = True
    for seed in range(a.first_seed, a.first_seed + a.runs):
        cmd = bench["command"] + [
            "--workload", a.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", a.trace]
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.monotonic() - t0
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"] and res["failed"] == 0
        row = []
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed} ({wall:.0f} s): correct={res['correct']} "
              + " ".join(row),
              flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med if med else float("nan")
        else:
            share = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and not share <= bound:
            flag = "  OVER BOUND"
            ok = False
        print(f"{name:24s} n={len(vs):2d} median={med:.6g} "
              f"iqr/median={share:.4f} bound={bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
