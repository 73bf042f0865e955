"""CI gate: a restart reads one checkpoint and a bounded tail, however long
the history.

Two systems are driven for N and then 10N seeded operations, each journal
checkpointing every ``--snapshot-every`` records and archiving the segments
it retires:

* **node** — one journaled ``AdmissionService`` (keyed submits and
  releases);
* **cluster** — a ``ClusterCoordinator`` over two journaled ``LocalShard``
  instances (keyed submits, some spanning both shards, and releases).

Each is then restarted from its directory.  The gate fails if

* a journal decodes more than one checkpoint cadence of records at the
  restart, or the records left in its WAL segments exceed what its kept
  checkpoints need — so neither grows with N;
* the WAL bytes left on disk after 10N operations exceed twice those after
  N;
* the recovered state differs from the never-compacted history: each
  journal's :func:`oracle_replay` of its archive (and, for the node, the
  idempotency window of its last keyed decisions), and for the coordinator
  a restart from the archive with every checkpoint removed (its key window
  included).

Usage (repo root)::

    PYTHONPATH=src python scripts/check_recovery_bound.py
    PYTHONPATH=src python scripts/check_recovery_bound.py --operations 300 --snapshot-every 32
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.cluster.chaos import ArchivingCoordinator, ArchivingShard
from repro.cluster.coordinator import WAL_FILENAME
from repro.cluster.partition import ClusterPartition
from repro.faults.harness import cluster_request, random_request
from repro.manager.network_manager import NetworkManager
from repro.service.codec import network_state_to_dict
from repro.service.concurrency import OUTCOME_ADMITTED, AdmissionService
from repro.service.errors import ServiceError
from repro.service.journal import (
    WAL_NAME,
    ArchivingStore,
    DurabilityStore,
    Journal,
    KeyWindow,
    archived_segments,
    keyed_decision,
    never_compacted,
    segment_paths,
)
from repro.service.recovery import oracle_replay, recover_manager
from repro.topology.builder import SCALE_SPECS, build_datacenter

#: Checkpoints every journal keeps (``DurabilityStore``'s and the
#: coordinator's default): segments behind the oldest are retired.
KEEP = 4


def log(message: str) -> None:
    print(f"[check_recovery_bound] {message}", flush=True)


def wal_usage(origin: Path) -> Tuple[int, int]:
    """``(bytes, records)`` of the WAL segments left in ``origin``'s directory."""
    segments = segment_paths(origin)
    return (
        sum(path.stat().st_size for path in segments),
        sum(1 for _record in Journal.iter_records(segments)),
    )


def drive_node(directory: Path, tree, operations: int, every: int, seed: int) -> None:
    store = ArchivingStore(directory, snapshot_every=every)
    service = AdmissionService(NetworkManager(tree), store=store, workers=1).start()
    rng, active = random.Random(seed), []
    for index in range(operations):
        if active and rng.random() < 0.4:
            service.release(active.pop(rng.randrange(len(active))))
            continue
        ticket = service.submit(
            random_request(rng), wait=True, idempotency_key=f"node-{index}"
        )
        if ticket.outcome == OUTCOME_ADMITTED:
            active.append(ticket.request_id)
    service.kill()
    store.close()


def check_node(directory: Path, tree, every: int, failures: List[str]) -> Dict[str, float]:
    store = DurabilityStore(directory)
    started = time.perf_counter()
    manager, report = recover_manager(store, tree)
    restart_s = time.perf_counter() - started
    store.close()
    history = archived_segments(directory / WAL_NAME)
    state, active = oracle_replay(history, tree)
    if network_state_to_dict(manager.state) != network_state_to_dict(state):
        failures.append("node: recovered state differs from the archive replay")
    if sorted(t.request_id for t in manager.tenancies()) != sorted(active):
        failures.append("node: recovered active set differs from the archive replay")
    window = KeyWindow.rebuild(
        e for e in map(keyed_decision, Journal.iter_records(history)) if e
    )
    if report.idempotency_index.decisions() != window.decisions():
        failures.append("node: idempotency window differs from the archive's")
    wal_bytes, wal_records = wal_usage(directory / WAL_NAME)
    return {
        "decoded": report.replayed_records, "journals": 1, "wal_bytes": wal_bytes,
        "wal_records": wal_records, "restart_s": restart_s,
    }


def build_cluster(directory: Path, every: int):
    partition = ClusterPartition.build(SCALE_SPECS["tiny"], 2)
    shards = [
        ArchivingShard(view, directory / f"shard-{view.shard_index}", snapshot_every=every)
        for view in partition.shards
    ]
    coordinator = ArchivingCoordinator(
        partition, shards, directory=directory, snapshot_every=every
    )
    return partition, shards, coordinator


def drive_cluster(directory: Path, operations: int, every: int, seed: int) -> None:
    partition, shards, coordinator = build_cluster(directory, every)
    rng, active = random.Random(seed), []
    slots = partition.shards[0].total_slots
    for index in range(operations):
        if active and rng.random() < 0.4:
            coordinator.release(active.pop(rng.randrange(len(active))))
            continue
        try:
            decision = coordinator.submit(
                cluster_request(rng, slots), idempotency_key=f"cluster-{index}"
            )
        except ServiceError:
            continue
        if decision["outcome"] == "admitted":
            active.append(decision["request_id"])
    coordinator.kill()
    for shard in shards:
        shard.close()


def cluster_summary(coordinator) -> Dict[str, object]:
    return {
        "replica": network_state_to_dict(coordinator.replica.state),
        "fragments": {gid: dict(f) for gid, f in sorted(coordinator._gid_map.items())},
        "admitted": coordinator.admitted_count,
        "rejected": coordinator.rejected_count,
        "next_gid": coordinator._next_gid,
        "keys": coordinator._keys.decisions(),
    }


def restart_cluster(directory: Path, every: int):
    started = time.perf_counter()
    _partition, shards, coordinator = build_cluster(directory, every)
    return shards, coordinator, time.perf_counter() - started


def check_cluster(directory: Path, every: int, failures: List[str]) -> Dict[str, float]:
    bare = never_compacted(directory, directory.with_name(directory.name + "-bare"))
    shards, coordinator, restart_s = restart_cluster(directory, every)
    try:
        decoded = coordinator.replayed_records + sum(
            shard.recovery_report.replayed_records for shard in shards
        )
        for shard in shards:
            history = archived_segments(shard.store.wal_path)
            state, active = oracle_replay(history, shard.view.tree)
            if network_state_to_dict(shard.manager.state) != network_state_to_dict(state):
                failures.append(f"cluster: shard {shard.index} differs from its archive replay")
            if sorted(shard.active_allocations()) != sorted(active):
                failures.append(f"cluster: shard {shard.index} active set differs")
        checkpointed = cluster_summary(coordinator)
        usage = [wal_usage(directory / WAL_FILENAME)] + [
            wal_usage(shard.store.wal_path) for shard in shards
        ]
    finally:
        coordinator.kill()
        for shard in shards:
            shard.close()
    shards, coordinator, _bare_s = restart_cluster(bare, every)
    try:
        if cluster_summary(coordinator) != checkpointed:
            failures.append("cluster: restart differs from the never-compacted fold")
    finally:
        coordinator.kill()
        for shard in shards:
            shard.close()
    return {
        "decoded": decoded, "journals": 3,
        "wal_bytes": sum(size for size, _records in usage),
        "wal_records": sum(records for _size, records in usage),
        "restart_s": restart_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--operations", type=int, default=200, help="N (then 10N)")
    parser.add_argument("--snapshot-every", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    every, tree = args.snapshot_every, build_datacenter(SCALE_SPECS["tiny"])
    failures: List[str] = []
    readings: Dict[Tuple[str, int], Dict[str, float]] = {}
    with tempfile.TemporaryDirectory(prefix="recovery-bound-") as tmp:
        for operations in (args.operations, 10 * args.operations):
            node_dir = Path(tmp) / f"node-{operations}"
            drive_node(node_dir, tree, operations, every, args.seed)
            readings["node", operations] = check_node(node_dir, tree, every, failures)
            cluster_dir = Path(tmp) / f"cluster-{operations}"
            drive_cluster(cluster_dir, operations, every, args.seed)
            readings["cluster", operations] = check_cluster(cluster_dir, every, failures)
    for (system, operations), reading in sorted(readings.items()):
        log(
            f"{system:7s} N={operations:6d}: decoded {reading['decoded']:4d} records, "
            f"WAL {reading['wal_records']:4d} records / {reading['wal_bytes']:8d} B, "
            f"restart {1000 * reading['restart_s']:.1f} ms"
        )
        journals = reading["journals"]
        if reading["decoded"] > journals * every:
            failures.append(
                f"{system} N={operations}: decoded {reading['decoded']} records, "
                f"more than one cadence ({every}) per journal"
            )
        if reading["wal_records"] > journals * (KEEP + 1) * every:
            failures.append(
                f"{system} N={operations}: {reading['wal_records']} WAL records on "
                f"disk, more than {KEEP + 1} cadences per journal"
            )
    for system in ("node", "cluster"):
        small = readings[system, args.operations]["wal_bytes"]
        large = readings[system, 10 * args.operations]["wal_bytes"]
        if large > 2 * small:
            failures.append(
                f"{system}: WAL bytes grew with N ({small} B at N, {large} B at 10N)"
            )
    for failure in failures:
        log(f"FAIL {failure}")
    log("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
