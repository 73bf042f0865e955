#!/usr/bin/env python3
"""Compare two results of run.py against the bounds in BENCHMARK.json.

    python benchmarks/e2e/compare.py BASE.json NEW.json

One row per workload x end-to-end metric: ``better``, ``within bound``,
``regressed``, or ``unresolved`` when the spread between the slices (or
repeats) of either side's own run is wider than the bound, so the two runs
cannot be told apart at that resolution.  The ``workload.*`` metrics, which
only some workloads have and ``BENCHMARK.json`` therefore cannot bound, are
held to ``WORKLOAD_METRIC_BOUND``.  Every ratio is printed with its base.
Exits 1 if any row regressed.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

import spec as declared
from measure import spread

WORKLOAD_METRIC_BOUND = 0.25


def verdict(base: Dict[str, Any], new: Dict[str, Any], better: str, bound: float) -> str:
    change = new["value"] / base["value"] - 1.0
    worse = change if better == "lower" else -change
    if worse <= 0.0:
        return "better" if worse < 0.0 else "within bound"
    if max(spread(base.get("parts", [])), spread(new.get("parts", []))) > bound:
        return "unresolved"
    return "within bound" if worse <= bound else "regressed"


def compare(
    base: Dict[str, Any], new: Dict[str, Any], spec: Dict[str, Any]
) -> Tuple[List[str], int]:
    """The printed rows and how many of them regressed."""
    rows: List[str] = []
    regressed = 0
    rules = {row["name"]: row for row in spec["end_to_end"]}
    for row in spec["per_layer"]:
        if row["name"].startswith("workload.") and row["unit"] != "share":
            rules[row["name"]] = {**row, "bound": WORKLOAD_METRIC_BOUND}
    for name in declared.workload_names(spec):
        old_run = base["workloads"].get(name)
        new_run = new["workloads"].get(name)
        if old_run is None or new_run is None:
            continue
        old_values = {**old_run["end_to_end"], **old_run["workload_metrics"]}
        new_values = {**new_run["end_to_end"], **new_run["workload_metrics"]}
        for key, rule in rules.items():
            if key not in old_values or key not in new_values:
                continue
            old, now = old_values[key], new_values[key]
            outcome = verdict(old, now, rule["better"], rule["bound"])
            regressed += outcome == "regressed"
            rows.append(
                f"{name:16s} {key:32s} {outcome:13s} "
                f"{now['value']:.6g} / {old['value']:.6g} {rule['unit']} "
                f"= {now['value'] / old['value']:.3f}x "
                f"({rule['better']} is better, bound {rule['bound']:.2f})"
            )
        if old_run["decision_digest"] != new_run["decision_digest"]:
            rows.append(
                f"{name:16s} decision_digest changed: {old_run['decision_digest']} -> "
                f"{new_run['decision_digest']} (the two runs decided differently; "
                "their latencies are of different work)"
            )
        if not new_run["correct"]:
            rows.append(f"{name:16s} output checks FAILED in the new result")
            regressed += 1
    return rows, regressed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], "r", encoding="utf-8") as handle:
        base = json.load(handle)
    with open(argv[1], "r", encoding="utf-8") as handle:
        new = json.load(handle)
    rows, regressed = compare(base, new, declared.load())
    print("\n".join(rows))
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
