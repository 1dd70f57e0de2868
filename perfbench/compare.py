#!/usr/bin/env python3
"""Summarise or compare benchmark result sets.

A result set is a JSON Lines file written by `perfbench/run.py --out FILE`,
one record per run (typically ten seeds per workload).

    python3 perfbench/compare.py base.jsonl             # spread of one set
    python3 perfbench/compare.py base.jsonl new.jsonl   # verdict per metric

For each workload and end-to-end metric it prints each side's median and
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median.
With two sets it gives a verdict against the bound BENCHMARK.json fixes for
the metric:

  regression  the new median is worse than the base median by more than the bound
  unresolved  a side's spread exceeds the bound, so the bound cannot be resolved
  better      the new median is better by more than the base spread
  same        anything else

Per-layer metrics (records run with --trace 1) are listed side by side
without a verdict.  Exit status is 1 if any metric regressed, else 0.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): {metric: [values]}} and the fingerprints seen."""
    sets = defaultdict(lambda: defaultdict(list))
    prints = set()
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if not rec.get("correct", False):
            print(f"warning: {path}: incorrect run {rec['workload']} seed {rec['seed']} skipped",
                  file=sys.stderr)
            continue
        fp = rec.get("fingerprint", {})
        prints.add(tuple(str(fp.get(k)) for k in
                         ("compiler_version", "build_type", "hardware_concurrency", "workers",
                          "epoch_size")))
        for name, m in rec["metrics"].items():
            sets[(rec["workload"], rec["trace"])][name].append(m["value"])
    return sets, prints


def stats(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(base, new, bound, better):
    bmed, _, _, bspread = stats(base)
    nmed, _, _, nspread = stats(new)
    if bmed == 0:
        return "same" if nmed == 0 else "unresolved", 0.0
    change = (nmed - bmed) / abs(bmed)
    worse = -change if better == "higher" else change
    if worse > bound:
        return "regression", change
    if bspread > bound or nspread > bound:
        return "unresolved", change
    if -worse > bspread:
        return "better", change
    return "same", change


def fmt(values):
    med, q1, q3, spread = stats(values)
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}] {100 * spread:5.1f}%"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    args = ap.parse_args()

    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, base_fp = load(args.base)
    new, new_fp = load(args.new) if args.new else (None, set())
    if new is not None and base_fp != new_fp:
        print(f"warning: fingerprints differ: {sorted(base_fp)} vs {sorted(new_fp)}")

    regressions = 0
    for (workload, trace) in sorted(base):
        print(f"\n== {workload} ({'per-layer' if trace else 'end-to-end'}) ==")
        for name, values in base[(workload, trace)].items():
            line = f"  {name:38s} n={len(values):2d} {fmt(values)}"
            if not trace and name in e2e:
                bound = e2e[name]["bound"]
                line += f"  bound {100 * bound:.0f}%"
                if new is None and stats(values)[3] > bound / 3 and name != "setup_s":
                    line += "  SPREAD > bound/3"
            other = new.get((workload, trace), {}).get(name) if new is not None else None
            if other:
                line += f"\n  {'':38s} n={len(other):2d} {fmt(other)}"
                if not trace and name in e2e:
                    v, change = verdict(values, other, e2e[name]["bound"], e2e[name]["better"])
                    regressions += v == "regression"
                    line += f"  {100 * change:+.1f}% {v}"
            print(line)
    if new is not None:
        print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
