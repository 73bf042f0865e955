#!/usr/bin/env python3
"""The end-to-end benchmark: one command, four workloads, every metric by name.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--quick] [--no-traced] [--out PATH]

runs the suite: for each workload a timed run against the real daemon (or the
in-process cluster) and a traced run of the same stack, printed as
``workload metric value unit`` rows, checked, written to one JSON result and
appended to ``history.jsonl``.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

is the single-run form the regression driver calls: one workload, one pass
(``--trace 0`` the timed run and the end-to-end metrics, ``--trace 1`` a short
timed run plus the traced run and the per-layer metrics), ending in one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.

See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec as declared  # noqa: E402
from measure import pin_load_generator  # noqa: E402

WORK = HERE / ".work"
RESULTS = HERE / "results"
HISTORY = HERE / "history.jsonl"
QUICK_SECONDS = 5
QUICK_TRACED_OPS = 100
CALIBRATION_TOLERANCE = 0.10


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default: 0)")
    parser.add_argument("--seconds", type=int, help="measured window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="single-run form, see above")
    parser.add_argument("--quick", action="store_true", help="5 s windows, 100 traced ops")
    parser.add_argument("--no-traced", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", type=Path, help="result JSON (default: results/latest.json)")
    return parser.parse_args(argv)


def work_dir(name: str, seed: int) -> Path:
    path = WORK / f"{os.getpid()}-{name}-{seed}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_workload(
    name: str,
    seed: int,
    seconds: int,
    traced_ops: Optional[int],
    quick: bool = False,
    trace_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Timed run, then (unless ``traced_ops`` is None) the traced run, whose
    spans are written to ``trace_path`` if one is given."""
    import bench
    from measure import HostSpeed

    workload = bench.WORKLOADS[name]
    work = work_dir(name, seed)
    host = HostSpeed(work)
    try:
        timed = bench.run_timed(
            workload, seed, seconds, work, host, repeats=1 if quick else None
        )
        layers = dict(timed.layers)
        table: List[Any] = []
        if traced_ops is not None:
            traced, table = bench.run_traced(
                workload, timed, work, traced_ops, trace_path, host
            )
            layers.update(traced)
    finally:
        host.stop()
        shutil.rmtree(work, ignore_errors=True)
    return {
        "clients": workload.clients,
        "end_to_end": timed.end_to_end,
        "workload_metrics": timed.specific,
        "per_layer": layers,
        "layer_table": table,
        "checks": [list(check) for check in timed.checks],
        "correct": all(ok for _label, ok, _detail in timed.checks),
        "attempted": timed.attempted,
        "failed": timed.failed,
        "shape": timed.shape,
        "decision_digest": timed.digest,
        "host_per_s": timed.host_per_s,
        "config": timed.config,
    }


def check_finite(name: str, metrics: Dict[str, float]) -> None:
    for metric, value in metrics.items():
        if not math.isfinite(value):
            raise SystemExit(f"{name}: metric {metric} is not finite ({value})")


def single_run(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """The driver's form: one JSON line with exactly the declared metrics."""
    if not args.workload or len(args.workload) != 1:
        raise SystemExit("--trace takes exactly one --workload")
    name = args.workload[0]
    import bench

    seconds = args.seconds or spec["run_seconds"]
    group = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        # Half the window for the timed half, so both halves fit one run.
        result = run_workload(
            name, args.seed, max(1, seconds // 2), bench.WORKLOADS[name].traced_ops
        )
        values = result["per_layer"]
    else:
        result = run_workload(name, args.seed, seconds, None)
        values = {metric: row["value"] for metric, row in result["end_to_end"].items()}
    units = declared.units(spec, group)
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"{name} produced no value for {missing}")
    metrics = {metric: values[metric] for metric in units}
    check_finite(name, metrics)
    print_rows(name, result, spec)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()
        },
    }))
    return 0 if result["correct"] else 1


def print_rows(name: str, result: Dict[str, Any], spec: Dict[str, Any]) -> None:
    units = {**declared.units(spec, "end_to_end"), **declared.units(spec, "per_layer")}
    for metric, row in {**result["end_to_end"], **result["workload_metrics"]}.items():
        note = f"n={row['n']}"
        if "percentile" in row:
            note += f" p{row['percentile']:g}"
        print(f"{name} {metric} {row['value']:.6g} {units[metric]} {note}")
    for metric, value in sorted(result["per_layer"].items()):
        if metric not in result["workload_metrics"]:
            print(f"{name} {metric} {value:.6g} {units[metric]}")
    if result["decision_digest"]:
        print(f"{name} decision_digest {result['decision_digest']}")
    for label, ok, detail in result["checks"]:
        print(f"{name} check {'ok  ' if ok else 'FAIL'} {label}: {detail}")


def suite(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    import report

    names = args.workload or declared.workload_names(spec)
    unknown = sorted(set(names) - set(declared.workload_names(spec)))
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}")
    seconds = args.seconds or (QUICK_SECONDS if args.quick else spec["run_seconds"])
    RESULTS.mkdir(exist_ok=True)

    def once(name: str) -> Dict[str, Any]:
        import bench

        traced_ops = None
        if not args.no_traced:
            traced_ops = QUICK_TRACED_OPS if args.quick else bench.WORKLOADS[name].traced_ops
        result = run_workload(
            name, args.seed, seconds, traced_ops, args.quick, RESULTS / f"trace-{name}.jsonl"
        )
        print_rows(name, result, spec)
        return result

    results = {name: once(name) for name in names}
    # A workload measured while the host ran at another speed is run again,
    # once, and the fact is kept (--quick has no time for it).
    middle = statistics.median(result["host_per_s"] for result in results.values())
    for name, result in results.items():
        off = abs(result["host_per_s"] / middle - 1.0)
        if off > CALIBRATION_TOLERANCE and not args.quick:
            print(f"{name} host speed {off:.0%} off the set's median; running it again")
            results[name] = once(name)
            results[name]["rerun_for_calibration"] = off

    payload = {
        "provenance": report.provenance(args.seed, seconds, WORK),
        "workloads": results,
    }
    out = args.out or RESULTS / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    if not args.no_traced:
        with open(out.with_suffix(".layers.md"), "w", encoding="utf-8") as handle:
            handle.write(report.layers_markdown(payload))
    if not args.quick:  # a smoke run is not a point of the trajectory
        with open(HISTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(report.history_line(payload), sort_keys=True) + "\n")
    print(f"result written to {out}")
    return 0 if all(result["correct"] for result in results.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if not (declared.SRC / "repro").is_dir():
        print(f"no program to measure: {declared.SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(declared.SRC))
    spec = declared.load()
    pin_load_generator()
    try:
        if args.trace is not None:
            return single_run(args, spec)
        return suite(args, spec)
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


if __name__ == "__main__":
    raise SystemExit(main())
