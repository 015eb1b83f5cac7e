"""Compare benchmark runs of a parent commit and a change.

Usage:

    python3 perfbench/compare.py PARENT_RUNS CHANGE_RUNS

Each file holds the stdout of any number of ``perfbench/run.py`` runs; the
record line of each run (the JSON object with a ``workload`` key) is read.
Runs of the two sides are paired by workload and seed. Every (metric,
workload) pair of ``BENCHMARK.json`` is reported as:

* ``improved``: the change wins at least 9 in 10 pairs and its median is
  better than the parent's by more than the parent's interquartile range;
* ``worse``: an end-to-end metric whose median is worse than the parent's
  by more than its bound; a per-layer metric (no bound) that loses 9 in 10
  pairs by more than the parent's interquartile range;
* ``unresolved``: the parent's own interquartile range is wider than the
  bound and not every change run beats every parent run, or the change
  fails more operations on that workload than the parent;
* ``unchanged``: anything else.

Exit status 1 if any end-to-end pair is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path) -> dict:
    """(workload, trace) -> {seed: record}; a repeated seed keeps the last run."""
    runs = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(rec, dict) and "workload" in rec and "metrics" in rec:
            runs[(rec["workload"], rec["trace"])][rec["seed"]] = rec
    return runs


def classify(parent: list, change: list, better: str, bound, pairs: list) -> tuple:
    """(verdict, pairs the change wins)."""
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (pm, pm, pm)
    iqr = q3 - q1
    gain = sign * (pm - cm)  # positive when the change is better
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if bound is not None and iqr > bound * abs(pm) and not all_better:
        return "unresolved", wins
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr:
        return "improved", wins
    if bound is not None and -gain > bound * abs(pm):
        return "worse", wins
    if bound is None and pairs and losses >= 0.9 * len(pairs) and -gain > iqr:
        return "worse", wins
    return "unchanged", wins


def compare(parent_runs: dict, change_runs: dict, spec: dict) -> tuple:
    rows, regressed = [], False
    metrics = [(m, 0) for m in spec["end_to_end"]] + [(m, 1) for m in spec["per_layer"]]
    for wl in (w["name"] for w in spec["workloads"]):
        for m, trace in metrics:
            p_runs, c_runs = parent_runs.get((wl, trace), {}), change_runs.get((wl, trace), {})
            name = m["name"]
            p = {s: r["metrics"][name]["value"] for s, r in p_runs.items() if name in r["metrics"]}
            c = {s: r["metrics"][name]["value"] for s, r in c_runs.items() if name in r["metrics"]}
            if not p or not c:
                continue
            seeds = sorted(set(p) & set(c))
            pairs = [(p[s], c[s]) for s in seeds]
            verdict, wins = classify(list(p.values()), list(c.values()), m["better"], m.get("bound"),
                                     pairs)
            more_failures = (sum(r["failed"] for r in c_runs.values()) / len(c_runs)
                             > sum(r["failed"] for r in p_runs.values()) / len(p_runs))
            if verdict == "improved" and more_failures:
                verdict = "unresolved"
            regressed |= trace == 0 and verdict == "worse"
            pm, cm = statistics.median(p.values()), statistics.median(c.values())
            rows.append((wl, name, m["unit"], pm, cm, cm / pm if pm else float("nan"),
                         f"{wins}/{len(pairs)}", verdict))
    return rows, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, regressed = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    if not rows:
        print("compare: no (metric, workload) pair has runs on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<15}{'metric':<34}{'parent':>14}{'change':>14}{'ratio':>8}{'wins':>7}  verdict")
    for wl, name, unit, pm, cm, ratio, wins, verdict in rows:
        print(f"{wl:<15}{name:<34}{pm:>11.4g} {unit:<2}{cm:>11.4g} {unit:<2}{ratio:>8.3f}{wins:>7}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
