#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it: run one workload once per seed, then for each metric take the
distance between the first and third quartile of its values
(statistics.quantiles(values, n=4)) as a share of their median.

    python3 perfbench/spread.py --workload rpc_overhead --seeds 1-10 \
        [--seconds 20] [--trace 0|1]

Run from the repository root. Every run's metric names and units must match
BENCHMARK.json. Each spread is printed next to a third of the metric's
bound (the margin this benchmark is tuned to).
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    secs = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if a.trace == "1" else "end_to_end"]}
    runs = []
    for s in seeds(a.seeds):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(s),
                                  "--seconds", str(secs), "--trace", a.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {s}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != declared:
            sys.exit(f"seed {s}: metrics/units differ from BENCHMARK.json: "
                     f"{set(got.items()) ^ set(declared.items())}")
        runs.append(res)
        for line in out.stderr.splitlines():
            if "failed:" in line or "did not reproduce" in line:
                print(f"seed {s}: {line}", flush=True)
        vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
        print(f"seed {s}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {vals}", flush=True)
    if len(runs) < 2:
        return
    print(f"{'metric':28} {'median':>12} {'iqr/median':>11} {'bound/3':>8}")
    for name in runs[0]["metrics"]:
        v = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else 0.0
        b = bounds.get(name)
        flag = "" if b is None or name == "setup_s" or spread < b / 3 else "  <-- wide"
        print(f"{name:28} {med:12.5g} {spread:11.4f} "
              f"{'' if b is None else f'{b / 3:8.4f}'}{flag}")


if __name__ == "__main__":
    main()
