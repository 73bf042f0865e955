"""``svc-repro cluster`` — drive a sharded admission cluster from the shell.

Two modes share one parser:

* **drive** (default): build a K-shard cluster over the chosen scale, push a
  seeded workload through the coordinator and print the routing/occupancy
  summary.  ``--process`` runs each shard in its own child process (the
  GIL-free configuration the throughput benchmark uses); ``--workdir`` makes
  the run durable so a second invocation recovers and continues.
* **chaos** (``--chaos N``): run N seeded kill/recover schedules against the
  coordinator + shards and verify the cluster recovery contract (no lost
  acked admissions, no reservation leaks, no double admits).  It is the
  chaos runner of :mod:`repro.faults.harness` with the cluster system of
  :mod:`repro.cluster.chaos`, reported like ``svc-repro chaos``.  Exit
  status 0 only when every schedule holds.

Examples::

    svc-repro cluster --shards 4 --scale small --requests 200
    svc-repro cluster --shards 2 --workdir /tmp/cluster --requests 50
    svc-repro cluster --chaos 200 --seed 0
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.logconfig import LOG_LEVELS, setup_logging
from repro.topology.builder import SCALE_SPECS


def build_cluster_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svc-repro cluster",
        description=(
            "Run a sharded admission cluster (coordinator + K shards), or its "
            "chaos referee (--chaos N)."
        ),
    )
    parser.add_argument(
        "--shards", type=int, default=2,
        help="number of shards, at most one pod each (default: 2)",
    )
    parser.add_argument(
        "--scale", choices=sorted(SCALE_SPECS), default="tiny",
        help="datacenter scale the cluster partitions (default: tiny)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed; chaos schedule i uses seed+i (default: 0)",
    )
    parser.add_argument(
        "--requests", type=int, default=100,
        help="drive mode: tenant requests to submit (default: 100)",
    )
    parser.add_argument(
        "--release-prob", type=float, default=0.25,
        help="drive mode: per-step chance an admitted tenant departs (default: 0.25)",
    )
    parser.add_argument(
        "--epsilon", type=float, default=0.05,
        help="SLA risk factor for every shard and the coordinator (default: 0.05)",
    )
    parser.add_argument(
        "--process", action="store_true",
        help="drive mode: run each shard in a child process instead of in-process",
    )
    parser.add_argument(
        "--workdir", type=Path, default=None,
        help="durability directory (WALs land here; re-running recovers from it)",
    )
    parser.add_argument(
        "--metrics-out", type=Path, default=None, metavar="PATH",
        help="drive mode: write the federated cluster metrics snapshot "
        "(every shard's registry + the coordinator's, merged) as JSON here",
    )
    parser.add_argument(
        "--obs-out", type=Path, default=None, metavar="PATH",
        help="drive mode: write the cluster-wide observability dump "
        "(flight-recorder rings + recent traces) as JSON here",
    )
    parser.add_argument(
        "--chaos", type=int, default=None, metavar="N",
        help="run N cluster chaos schedules instead of a workload drive",
    )
    parser.add_argument(
        "--operations", type=int, default=40,
        help="chaos mode: admit/release operations per schedule (default: 40)",
    )
    parser.add_argument(
        "--stop-on-failure", action="store_true",
        help="chaos mode: stop at the first failing schedule",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON report on stdout instead of text",
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default="error",
        help="stderr log verbosity (default: error)",
    )
    return parser


def _drive(args: argparse.Namespace, workdir: Optional[Path]) -> int:
    """Default mode: seeded workload through a freshly built cluster."""
    from repro.cluster.coordinator import ClusterCoordinator, CoordinatorError
    from repro.cluster.partition import ClusterPartition
    from repro.cluster.rebalance import ShardLoadRebalancer
    from repro.cluster.shard import LocalShard
    from repro.faults.harness import cluster_request
    from repro.service.errors import ServiceError

    spec = SCALE_SPECS[args.scale]
    partition = ClusterPartition.build(spec, args.shards)
    if args.process:
        from repro.cluster.worker import ProcessShard, wait_for_shards

        shards: List[Any] = [
            ProcessShard(
                view,
                workdir / f"shard-{view.shard_index}" if workdir else None,
                epsilon=args.epsilon,
            )
            for view in partition.shards
        ]
        wait_for_shards(shards)
    else:
        shards = [
            LocalShard(
                view,
                workdir / f"shard-{view.shard_index}" if workdir else None,
                epsilon=args.epsilon,
            )
            for view in partition.shards
        ]
    coordinator = ClusterCoordinator(
        partition,
        shards,
        directory=workdir,
        epsilon=args.epsilon,
        rebalancer=ShardLoadRebalancer(args.shards, interval_s=0.0),
    )
    rng = random.Random(args.seed)
    shard_slots = partition.shards[0].total_slots
    routes: Dict[str, int] = {}
    active: List[int] = []
    errors = 0
    try:
        for index in range(args.requests):
            if active and rng.random() < args.release_prob:
                coordinator.release(active.pop(rng.randrange(len(active))))
            request = cluster_request(rng, shard_slots)
            try:
                decision = coordinator.submit(
                    request, idempotency_key=f"drive-{args.seed}-{index}"
                )
            except (CoordinatorError, ServiceError):
                errors += 1
                continue
            route = decision.get("route", "recovered")
            routes[route] = routes.get(route, 0) + 1
            if decision["outcome"] == "admitted":
                active.append(decision["request_id"])
        coordinator.refresh_shard_stats()
        stats = coordinator.stats()
        if args.metrics_out is not None:
            federated = coordinator.cluster_metrics()
            args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
            args.metrics_out.write_text(
                json.dumps(federated, indent=2, default=str), encoding="utf-8"
            )
            print(f"federated metrics written: {args.metrics_out}", file=sys.stderr)
        if args.obs_out is not None:
            dumps = coordinator.collect_obs_dumps()
            args.obs_out.parent.mkdir(parents=True, exist_ok=True)
            args.obs_out.write_text(
                json.dumps(dumps, indent=2, default=str), encoding="utf-8"
            )
            print(f"observability dump written: {args.obs_out}", file=sys.stderr)
        report = {
            "scale": args.scale,
            "shards": args.shards,
            "process_shards": bool(args.process),
            "requests": args.requests,
            "routes": routes,
            "transport_errors": errors,
            "stats": stats,
        }
        if args.json:
            print(json.dumps(report, indent=2, default=str))
        else:
            print(
                f"cluster: {args.requests} request(s) over {args.shards} shard(s) "
                f"at scale {args.scale!r}"
            )
            for route in sorted(routes):
                print(f"  route {route}: {routes[route]}")
            print(
                f"  admitted {stats['admitted_total']}, rejected "
                f"{stats['rejected_total']}, active {stats['active_tenancies']}, "
                f"transport errors {errors}"
            )
            occupancy = max(stats["core_occupancy"].values() or [0.0])
            print(
                f"  max core-link occupancy {occupancy:.3f}, replica max "
                f"{stats['replica_max_occupancy']:.3f}, free slots "
                f"{stats['free_slots']}"
            )
        return 0
    finally:
        coordinator.stop()
        for shard in shards:
            shard.close()


def cluster_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``svc-repro cluster``."""
    args = build_cluster_parser().parse_args(argv)
    setup_logging(args.log_level)
    if args.shards < 1:
        print("cluster: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.chaos is not None:
        from repro.cluster.chaos import ClusterSystem
        from repro.faults.chaos_cli import run_chaos_cli

        system = ClusterSystem(args.shards, args.scale)
        return run_chaos_cli("cluster chaos", system, args, args.chaos)
    return _drive(args, args.workdir)


if __name__ == "__main__":
    raise SystemExit(cluster_main())
