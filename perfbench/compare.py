#!/usr/bin/env python3
"""Compares two result sets written by sweep.py, metric by metric.

    python3 perfbench/compare.py BASE.json CHANGE.json

For every workload it first compares the output checks: the change is
"worse" when any of its runs is not correct or its runs failed more checks in
all than the base's. Then, for every end-to-end metric, it prints both
medians, both spreads (interquartile distance over the median) and a verdict
against the metric's bound in BENCHMARK.json:

  agree       the change's median is within the bound of the base's
  better      the change's median is better by more than the bound
  worse       the change's median is worse by more than the bound
  unresolved  either side's spread exceeds the bound, so the medians cannot
              be told apart at that bound — unless every run of the change
              is better than every run of the base ("better") or worse than
              every one of them ("worse")

The exit code is 1 when any pairing is "worse" or "unresolved", else 0.
"""

import json
import os
import sys

from sweep import REPO, spread


def verdict(base, change, bound, higher_is_better):
    mb, sb = spread(base)
    mc, sc = spread(change)
    if mb == 0:
        rel = 0.0 if mc == 0 else float("inf")
    else:
        rel = (mc - mb) / abs(mb)
    gain = rel if higher_is_better else -rel
    if max(sb, sc) > bound:
        if higher_is_better:
            if min(change) > max(base):
                return "better", mb, mc, sb, sc
            if max(change) < min(base):
                return "worse", mb, mc, sb, sc
        else:
            if max(change) < min(base):
                return "better", mb, mc, sb, sc
            if min(change) > max(base):
                return "worse", mb, mc, sb, sc
        return "unresolved", mb, mc, sb, sc
    if gain < -bound:
        return "worse", mb, mc, sb, sc
    if gain > bound:
        return "better", mb, mc, sb, sc
    return "agree", mb, mc, sb, sc


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(sys.argv[1]) as f:
        base = json.load(f)["results"]
    with open(sys.argv[2]) as f:
        change = json.load(f)["results"]
    bad = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in change:
            print("%s: missing from one result set" % workload)
            bad += 1
            continue
        print(workload)
        failed = [sum(r["failed"] for r in runs)
                  for runs in (base[workload], change[workload])]
        incorrect = sum(1 for r in change[workload] if not r["correct"])
        checks = "worse" if incorrect or failed[1] > failed[0] else "agree"
        bad += checks == "worse"
        print("  %-18s base %d failed  change %d failed, %d of %d runs "
              "not correct  %s" % ("checks", failed[0], failed[1], incorrect,
                                   len(change[workload]), checks))
        for m in spec["end_to_end"]:
            values = [[r["metrics"][m["name"]]["value"] for r in runs]
                      for runs in (base[workload], change[workload])]
            v, mb, mc, sb, sc = verdict(values[0], values[1], m["bound"],
                                        m["better"] == "higher")
            bad += v in ("worse", "unresolved")
            print("  %-18s base %-12.6g (spread %.3f)  change %-12.6g "
                  "(spread %.3f)  bound %.2f  %s" % (
                      m["name"], mb, sb, mc, sc, m["bound"], v))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
