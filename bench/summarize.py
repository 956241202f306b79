#!/usr/bin/env python3
"""Summarise the run records in bench/out/ across seeds.

    python3 bench/summarize.py [--write bench/baseline/seed-commit.json]

For each workload it prints every end-to-end metric's median, quartiles
and spread (quartile distance over the median) across the seeds that have
an untraced record, leaving out the held-out seed. With ``--write`` it
also stores every seed's values (the held-out seed's too), the traced
per-layer figures of every seed that has a traced record, and the run
environment, as a JSON baseline.
"""

import argparse
import glob
import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
HELD_OUT_SEED = 7919


def load_records():
    records = []
    for path in sorted(glob.glob(os.path.join(OUT_DIR, "run-*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def summarize(records):
    out = {}
    for rec in records:
        w = out.setdefault(rec["workload"], {"seeds": [], "end_to_end": {},
                                             "per_layer": {}, "environment": None})
        w["environment"] = rec["environment"]
        if rec["trace"]:
            w["per_layer"][str(rec["seed"])] = {
                name: m["value"] for name, m in rec["metrics"].items()}
            continue
        w["seeds"].append(rec["seed"])
        w.setdefault("failed_runs", 0)
        w["failed_runs"] += rec["failed"] > 0
        for name, m in rec["metrics"].items():
            w["end_to_end"].setdefault(name, {"unit": m["unit"], "by_seed": {}})
            w["end_to_end"][name]["by_seed"][str(rec["seed"])] = m["value"]
    for w in out.values():
        w["seeds"].sort()
        for m in w["end_to_end"].values():
            vals = [v for seed, v in m["by_seed"].items() if int(seed) != HELD_OUT_SEED]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            m.update(median=med, q1=q1, q3=q3,
                     spread=(q3 - q1) / med if med else float("nan"))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", help="store the summary as this JSON file")
    args = ap.parse_args(argv)
    summary = summarize(load_records())
    if not summary:
        print(f"no run records in {OUT_DIR}", file=sys.stderr)
        return 1
    for workload, w in sorted(summary.items()):
        print(f"{workload}: untraced seeds {w['seeds']} (stats leave out "
              f"{HELD_OUT_SEED}), "
              f"traced seeds {sorted(w['per_layer'], key=int)}")
        for name, m in w["end_to_end"].items():
            print(f"  {name:16s} median {m['median']:12.6g} {m['unit']:3s} "
                  f"q1 {m['q1']:10.5g} q3 {m['q3']:10.5g} spread {m['spread']:.4f}")
    if args.write:
        os.makedirs(os.path.dirname(os.path.abspath(args.write)), exist_ok=True)
        with open(args.write, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
