#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each named workload
(untraced) and prints, per metric, the median and the distance between
the first and third quartile as a share of the median, next to the
metric's bound. Run it from the repository root:

    python3 drbench/spread.py --seeds 1-10 fix-service detect-scale
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
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("workloads", nargs="*", help="default: every workload")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for name in names:
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if out.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: FAILED (exit {out.returncode})\n{out.stderr}")
                ok = False
                continue
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in sorted(result["metrics"].items())), flush=True)
        for m in bench["end_to_end"]:
            vals = values.get(m["name"], [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
            print(f"{name} {m['name']}: median {med:.6g} spread {spread:.4f} bound {m['bound']} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
