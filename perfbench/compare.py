"""Summarize benchmark result files: the spread of one set, or a before/after pair.

    python3 perfbench/compare.py spread RESULT.json...
    python3 perfbench/compare.py diff --before B.json... --after A.json...

`spread` prints, per workload and end-to-end metric, the median, the
quartiles and the quartile distance as a share of the median, next to the
metric's bound in BENCHMARK.json.  `diff` pairs before/after files of the
same workload and seed, and prints both medians with quartiles, the share of
pairs the after side wins, and a verdict: `better` when it wins at least
nine tenths of the pairs and the medians differ by more than the before
side's quartile distance; `WORSE` when its median is worse than the before
median by more than the bound; `same` otherwise (see README.md).
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def load_results(paths) -> dict:
    """{workload: {seed: record}} of the given result files."""
    out = defaultdict(dict)
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        out[rec["workload"]][rec["environment"]["seed"]] = rec
    return out


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(paths) -> int:
    bench = load_bench()
    print(f"{'workload':14s} {'metric':14s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
          f" {'spread':>7s} {'bound':>6s}")
    worst = 0.0
    for workload, runs in sorted(load_results(paths).items()):
        names = next(iter(runs.values()))["metrics"]
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs.values()]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med if med else float("nan")
            bound = bench.get(name, {}).get("bound")
            if bound and name != "setup_s":
                worst = max(worst, share / bound)
            print(f"{workload:14s} {name:14s} {len(values):3d} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {share:7.3f} {bound if bound is not None else '-':>6}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


def diff(before_paths, after_paths) -> int:
    bench = load_bench()
    before, after = load_results(before_paths), load_results(after_paths)
    worse = False
    for workload in sorted(set(before) & set(after)):
        seeds = sorted(set(before[workload]) & set(after[workload]))
        if not seeds:
            continue
        for name in before[workload][seeds[0]]["metrics"]:
            lower = bench.get(name, {}).get("better", "lower") == "lower"
            b = [before[workload][s]["metrics"][name]["value"] for s in seeds]
            a = [after[workload][s]["metrics"][name]["value"] for s in seeds]
            wins = sum((y < x) if lower else (y > x) for x, y in zip(b, a))
            bq1, bmed, bq3 = quartiles(b)
            aq1, amed, aq3 = quartiles(a)
            change = (amed - bmed) / bmed if bmed else 0.0
            bound = bench.get(name, {}).get("bound")
            verdict = "same"
            if bound is not None and (change if lower else -change) > bound:
                verdict, worse = "WORSE", True
            elif wins >= 0.9 * len(seeds) and abs(amed - bmed) > bq3 - bq1:
                verdict = "better"
            print(f"{workload:14s} {name:40s} before {bmed:12.6g} [{bq1:.6g}, {bq3:.6g}]"
                  f"  after {amed:12.6g} [{aq1:.6g}, {aq3:.6g}]  {change:+7.1%}"
                  f"  wins {wins}/{len(seeds)}  {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("results", nargs="+")
    d = sub.add_parser("diff")
    d.add_argument("--before", nargs="+", required=True)
    d.add_argument("--after", nargs="+", required=True)
    args = ap.parse_args(argv)
    if args.cmd == "spread":
        return spread(args.results)
    return diff(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
