"""Summarise result records written by bench/run.py.

    python3 bench/report.py                 # every record in bench/results
    python3 bench/report.py --seeds 1-10    # one set of runs

For each workload and end-to-end metric: the median, the quartiles and
the quartile spread as a share of the median, over the untraced runs.
For traced runs: the per-layer metrics, and the tracing overhead, the
traced pipeline_s minus the median untraced pipeline_s.
"""
from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, help="e.g. 1-10")
    p.add_argument("--dir", type=Path, default=RESULTS)
    args = p.parse_args(argv)

    timed = defaultdict(list)
    traced = defaultdict(list)
    for path in sorted(args.dir.glob("*.json")):
        if path.name.startswith("spans-"):
            continue
        rec = json.loads(path.read_text())
        if args.seeds and rec["seed"] not in args.seeds:
            continue
        (traced if rec["trace"] else timed)[rec["workload"]].append(rec)

    untraced_pipeline = {}
    for workload, recs in sorted(timed.items()):
        shares = {f"{r['failed']}/{r['attempted']}" for r in recs}
        envs = {json.dumps(r["environment"], sort_keys=True) for r in recs}
        print(f"{workload}: {len(recs)} runs, seeds {sorted(r['seed'] for r in recs)}, "
              f"failed/attempted {sorted(shares)}, correct {all(r['correct'] for r in recs)}")
        for env in sorted(envs):
            print(f"  environment {env}")
        for name in recs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in recs]
            unit = recs[0]["metrics"][name]["unit"]
            q1, med, q3 = quartiles(vals)
            print(f"  {name:12s} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"spread {(q3 - q1) / med:.3f}")
            if name == "pipeline_s":
                untraced_pipeline[workload] = med
    for workload, recs in sorted(traced.items()):
        for r in recs:
            m = {k: v["value"] for k, v in r["metrics"].items()}
            print(f"{workload} traced, seed {r['seed']}, failed/attempted "
                  f"{r['failed']}/{r['attempted']}:")
            for k, v in m.items():
                print(f"  {k:36s} {v:.6g}")
            if workload in untraced_pipeline:
                over = m["trace.pipeline_s"] - untraced_pipeline[workload]
                print(f"  tracing overhead on pipeline_s: {over:+.4f} s "
                      f"({over / untraced_pipeline[workload]:+.1%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
