"""``svc-repro chaos`` — run randomized fault schedules against recovery.

Each schedule is a pure function of its seed (base seed + index), so any
reported failure is replayable in isolation::

    svc-repro chaos --schedules 1 --seed <failing-seed> --json

Exit status is 0 only when every schedule upholds the recovery contract
(see :mod:`repro.faults.harness`).  :func:`run_chaos_cli` is the one
progress/summary front end of the chaos runner: ``svc-repro cluster
--chaos N`` reports through it too.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from repro.faults.harness import ChaosResult, NodeSystem, run_suite
from repro.logconfig import LOG_LEVELS, setup_logging
from repro.topology.builder import SCALE_SPECS


def build_chaos_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svc-repro chaos",
        description="Drive randomized fault schedules and verify crash recovery.",
    )
    parser.add_argument(
        "--schedules", type=int, default=200,
        help="how many seeded schedules to run (default: 200)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed (schedule i uses seed+i)"
    )
    parser.add_argument(
        "--scale", choices=sorted(SCALE_SPECS), default="tiny",
        help="datacenter scale each schedule runs against (default: tiny)",
    )
    parser.add_argument(
        "--operations", type=int, default=40,
        help="admit/release operations per schedule (default: 40)",
    )
    parser.add_argument(
        "--workdir", type=Path, default=None,
        help="keep durability directories here instead of a temp dir",
    )
    parser.add_argument(
        "--stop-on-failure", action="store_true",
        help="stop at the first failing schedule instead of running all",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON report on stdout instead of progress lines",
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default="error",
        help="stderr log verbosity (default: error)",
    )
    return parser


def run_chaos_cli(label: str, system, args: argparse.Namespace, schedules: int) -> int:
    """Run ``schedules`` seeds from ``args.seed`` against ``system``, print
    progress and the summary (or the ``--json`` report); the exit status."""

    def progress(result: ChaosResult) -> None:
        done = result.seed - args.seed + 1
        if not result.ok:
            sys.stderr.write(f"seed {result.seed}: FAILED {result.failures}\n")
        elif done % 25 == 0:
            sys.stderr.write(f"... {done}/{schedules} schedules\n")

    def run(workdir: Path) -> List[ChaosResult]:
        return run_suite(
            schedules,
            args.seed,
            workdir,
            system,
            operations=args.operations,
            stop_on_failure=args.stop_on_failure,
            progress=None if args.json else progress,
        )

    if args.workdir is not None:
        results = run(args.workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="svc-repro-chaos-") as tmp:
            results = run(Path(tmp))

    failures = [r for r in results if not r.ok]
    if args.json:
        print(json.dumps({"results": [r.describe() for r in results]}, indent=2))
        return 1 if failures else 0

    def total(counter: str) -> int:
        return sum(getattr(r, counter) for r in results)

    print(
        f"{label}: {len(results)} schedule(s), {total('crashed')} crashed mid-run, "
        f"{total('acked_admits')} acked admits ({total('cross_shard_admits')} "
        f"cross-shard), {total('acked_releases')} acked releases, "
        f"{total('shed')} shed, {total('degraded_hits')} degraded refusals, "
        f"{total('unacked_keys')} in-flight retries"
    )
    for result in failures:
        for message in result.failures:
            print(f"  FAIL seed={result.seed}: {message}")
    verdict = "OK" if not failures else f"{len(failures)} schedule(s) FAILED"
    print(f"{label}: {verdict}")
    return 1 if failures else 0


def chaos_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``svc-repro chaos``."""
    args = build_chaos_parser().parse_args(argv)
    setup_logging(args.log_level)
    return run_chaos_cli("chaos", NodeSystem(args.scale), args, args.schedules)


if __name__ == "__main__":
    raise SystemExit(chaos_main())
