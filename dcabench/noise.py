#!/usr/bin/env python3
"""Measures the benchmark's run-to-run noise.

Runs every workload once per seed through dcabench/run.sh, untraced, for
BENCHMARK.json's run_seconds, and prints for each end-to-end metric the
median and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, beside the metric's
bound. Run from the repository root:

    python3 dcabench/noise.py --seeds 1-10 [--workloads npb-cold,plds] [--markdown]
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--workloads", default="", help="comma-separated (default: all)")
    ap.add_argument("--markdown", action="store_true", help="print a markdown table")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seeds = parse_seeds(args.seeds)

    rows = []
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in seeds:
            cmd = ["bash", "dcabench/run.sh", "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not res.get("correct"):
                print(f"{w} seed {seed}: rc={out.returncode} {out.stderr.strip()[-500:]}", file=sys.stderr)
                ok = False
                continue
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), file=sys.stderr)
        for m in metrics:
            vs = values[m["name"]]
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows.append((w, m["name"], m["unit"], len(vs), med, spread, m["bound"]))

    if args.markdown:
        print("| workload | metric | unit | runs | median | spread | bound | spread/bound |")
        print("|---|---|---|---|---|---|---|---|")
        for w, n, u, k, med, sp, b in rows:
            print(f"| {w} | {n} | {u} | {k} | {med:.4g} | {sp:.3f} | {b} | {sp / b:.2f} |")
    else:
        for w, n, u, k, med, sp, b in rows:
            flag = "" if n == "setup_s" or sp <= b else "  OVER BOUND"
            print(f"{w:11s} {n:24s} median {med:12.4f} {u:3s} spread {sp:6.3f} bound {b:5.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
