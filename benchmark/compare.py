#!/usr/bin/env python3
"""Compares two sets of maliva_bench runs: parent and change.

    python3 benchmark/compare.py <parent_dir> <change_dir> [--bench BENCHMARK.json]

Each directory holds run JSONs (written by `maliva_bench --out`), found
recursively. Runs are grouped by workload and traced-ness and paired in
(seed, path) order, so run i of the parent pairs with run i of the change.

For every (workload, metric) it reports each side's median and quartiles,
the pairs the change won, and a verdict:

  improved    at least 10 pairs ran, the change won at least 9 in 10 of them,
              and the medians differ by more than the parent's own spread (its
              interquartile range);
  regressed   the change's median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json (or a change run failed its
              checks);
  unresolved  the runs spread wider than the bound, so neither can be told
              (unless every change run beats every parent run);
  unchanged   none of the above.

In deterministic workloads (the closed loops) the metrics a run lists under
"exact_metrics" and the decision digest must be identical for equal seeds;
any difference is reported as changed. Per-layer metrics (traced runs) have
no bound and get no verdict. The exit code is 1 on any regression or exact
mismatch, 2 on unusable input.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    runs = []
    for root, _, files in os.walk(directory):
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            path = os.path.join(root, name)
            with open(path) as f:
                run = json.load(f)
            if "workload" in run and "metrics" in run:
                run["_path"] = path
                runs.append(run)
    return runs


def group(runs):
    groups = {}
    for run in runs:
        groups.setdefault((run["workload"], bool(run["trace"])), []).append(run)
    for key in groups:
        groups[key].sort(key=lambda r: (r["seed"], r["_path"]))
    return groups


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    worse = -sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    spread = (p3 - p1) / abs(pmed) if pmed else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if len(pairs) >= 10 and won >= 0.9 * len(pairs) and abs(cmed - pmed) > (p3 - p1):
        v = "improved"
    elif bound is None:
        v = ""
    elif worse > bound:
        v = "regressed"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return won, len(pairs), v


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=os.path.join(os.path.dirname(__file__), "..",
                                                    "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    parent, change = group(load_runs(args.parent)), group(load_runs(args.change))
    if not parent or not change:
        print("compare.py: no run JSONs found in one of the directories")
        return 2

    bad = False
    for key in sorted(set(parent) & set(change)):
        workload, traced = key
        pr, cr = parent[key], change[key]
        fail_p = sum(r["failed"] for r in pr) / max(1, sum(r["attempted"] for r in pr))
        fail_c = sum(r["failed"] for r in cr) / max(1, sum(r["attempted"] for r in cr))
        incorrect_p = sum(not r["correct"] for r in pr)
        incorrect_c = sum(not r["correct"] for r in cr)

        # Exact outputs: per seed, every run of both sides must agree.
        exact_names = set()
        for r in pr + cr:
            exact_names.update(r.get("exact_metrics", []))
        mismatched = []
        for seed in sorted({r["seed"] for r in pr + cr}):
            same_seed = [r for r in pr + cr if r["seed"] == seed]
            if same_seed[0]["deterministic"] and len({r["decision_digest"] for r in same_seed}) > 1:
                mismatched.append(f"decision_digest (seed {seed})")
            for name in sorted(exact_names):
                if len({r["metrics"][name]["value"] for r in same_seed if name in r["metrics"]}) > 1:
                    mismatched.append(f"{name} (seed {seed})")

        rows = []
        counts = {}
        for name, m in pr[0]["metrics"].items():
            pv = [r["metrics"][name]["value"] for r in pr if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in cr if name in r["metrics"]]
            if not pv or not cv:
                continue
            s = spec.get(name, {})
            if name in exact_names:
                won, n, v = 0, min(len(pv), len(cv)), ("changed" if any(name in x for x in mismatched)
                                                      else "identical")
            else:
                won, n, v = verdict(pv, cv, s.get("better", "lower"),
                                    None if traced else s.get("bound"))
            counts[v] = counts.get(v, 0) + 1
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            rows.append(f"    {name:34s} parent {fmt(pm):>12} [{fmt(p1)}, {fmt(p3)}]  "
                        f"change {fmt(cm):>12} [{fmt(c1)}, {fmt(c3)}]  "
                        f"won {won}/{n}  {v}  {m['unit']}")

        status = "regressed" if counts.get("regressed") or mismatched or incorrect_c else (
            "unresolved" if counts.get("unresolved") else
            "improved" if counts.get("improved") else "unchanged")
        bad = bad or status == "regressed"
        summary = ", ".join(f"{k or 'no verdict'} {n}" for k, n in sorted(counts.items()))
        print(f"{workload}{' (traced)' if traced else ''}: {status} | runs {len(pr)} vs {len(cr)} | "
              f"failed {fail_p:.4%} vs {fail_c:.4%} | incorrect runs {incorrect_p} vs {incorrect_c} | "
              f"exact {'identical' if not mismatched else 'CHANGED: ' + '; '.join(mismatched)} | "
              f"{summary}")
        for row in rows:
            print(row)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
