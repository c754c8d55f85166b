"""Compare recorded runs of a parent and a change (``run.py --compare``).

Each input file holds one JSON record per line, as ``run.py --record`` writes
them.  For every workload and end-to-end metric it prints both sides'
medians and quartiles, the fraction of pairs the change won (runs paired by
seed, ties counting for neither side) and a verdict under the metric's bound
from ``BENCHMARK.json``:

* improved   - the change won at least 9 in 10 pairs and the medians differ,
               in its favour, by more than the parent's interquartile range;
* regressed  - the change's median is worse than the parent's by more than
               the bound;
* unresolved - either side's interquartile range exceeds the bound, unless
               every change run beats every parent run;
* no worse   - otherwise.

Traced records add the per-layer ``<layer>.self_s`` deltas of the medians.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> dict:
    """(workload, trace) -> {seed: record}; a later record for a seed wins."""
    runs: dict = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["trace"])][rec["meta"]["seed"]] = rec
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_better: bool) -> tuple[str, float]:
    """Verdict and fraction of pairs won (nan when no seed was run on both sides)."""
    sign = 1.0 if lower_better else -1.0
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    won = wins / len(pairs) if pairs else float("nan")
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - pm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    beats_all = (max(change) < min(parent)) if lower_better else (min(change) > max(parent))
    if won >= 0.9 and sign * (pm - cm) > p3 - p1:
        return "improved", won
    if worse_by > bound:
        return "regressed", won
    if spread > bound and not beats_all:
        return "unresolved", won
    return "no worse", won


def report(parent_path: str, change_path: str, spec: dict) -> None:
    parent, change = load(parent_path), load(change_path)
    print(f"{'workload':13s} {'metric':12s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'won':>5s}  verdict")
    for workload in sorted({w for w, t in parent if t == 0} & {w for w, t in change if t == 0}):
        p_runs, c_runs = parent[(workload, 0)], change[(workload, 0)]
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def val(rec):
                return rec["result"]["metrics"][name]["value"]

            pv = [val(r) for r in p_runs.values()]
            cv = [val(r) for r in c_runs.values()]
            pairs = [(val(p_runs[s]), val(c_runs[s])) for s in p_runs if s in c_runs]
            text, won = verdict(pv, cv, pairs, metric["bound"], metric["better"] == "lower")
            pq = "/".join(f"{v:.4g}" for v in quartiles(pv))
            cq = "/".join(f"{v:.4g}" for v in quartiles(cv))
            print(f"{workload:13s} {name:12s} {pq:>30s} {cq:>30s} {won:5.2f}  {text}"
                  f"  (n={len(pv)}/{len(cv)}, {metric['unit']})")
        failed = [sum(r["result"]["failed"] for r in runs.values()) for runs in (p_runs, c_runs)]
        print(f"{workload:13s} failed passes: parent {failed[0]}, change {failed[1]}")

    traced = sorted({w for w, t in parent if t == 1} & {w for w, t in change if t == 1})
    if traced:
        print("\nper-layer self time, median over traced runs (s): parent -> change (delta)")
    for workload in traced:
        layers = [m["name"] for m in spec["per_layer"] if m["name"].endswith(".self_s")]
        for name in layers:
            meds = [statistics.median(r["result"]["metrics"][name]["value"]
                                      for r in side[(workload, 1)].values())
                    for side in (parent, change)]
            if meds[0] or meds[1]:
                print(f"{workload:13s} {name:22s} {meds[0]:10.4f} -> {meds[1]:10.4f} "
                      f"({meds[1] - meds[0]:+.4f})")
