"""Cluster chaos: the coordinator over K journaled shards, as a chaos system.

The runner in :mod:`repro.faults.harness` drives every system through the
same phases; this module supplies the cluster.  :class:`ClusterSystem`
builds a coordinator over K journaled
:class:`~repro.cluster.shard.LocalShard` instances, and
:func:`cluster_chaos_plan` moves about half of the single-node plan's
crashes into the coordinator's two-phase protocol (``FP_COORD_*``: before
the WAL append, after the ledger reserve, before and after the commit
record).  The plan's journal faults hit the shard WALs unchanged (the
hooks are compiled into ``Journal``).

The acked ledger holds the coordinator's global ids.  The shared referee
checks every shard against its own journal's oracle replay (a shard inside
a cluster inherits the single-node guarantee verbatim), the acked ledger,
and ``O_L < 1`` on every shard, on the replica and on the ledger (Eq. 4
survives recovery).  :meth:`ClusterSystem.check` adds what only a cluster
has:

1. **coordinator coherence**: every fragment the coordinator accounts for
   is active on its shard, every shard tenancy is accounted for (no
   orphans after the recovery sweep), and the replica tenant count
   matches;
2. **no reservation leaks, one true copy**: zero pending reservations, and
   on every core link the replica's running sums (``mean_total``,
   ``var_total``, ``deterministic_total`` — the only record of committed
   core-link load) equal the footprint recomputed from scratch over the
   replica's tenancies.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.ledger import core_demands_of
from repro.cluster.partition import ClusterPartition
from repro.cluster.shard import LocalShard
from repro.faults.failpoints import (
    FP_COORD_AFTER_COMMIT,
    FP_COORD_AFTER_RESERVE,
    FP_COORD_BEFORE_COMMIT,
    FP_COORD_BEFORE_WAL,
    MODE_CRASH,
)
from repro.faults.harness import DECISION_TIMEOUT_S, Ack, Reply, cluster_request
from repro.faults.schedule import ChaosPlan
from repro.service.degrade import DegradationLadder
from repro.service.errors import DegradedError, ServiceError
from repro.service.journal import (
    ArchivingStore,
    KeyEntry,
    archive_segment,
    archived_segments,
)
from repro.topology.builder import SCALE_SPECS

#: Crash sites inside the coordinator's two-phase protocol.
CLUSTER_CRASH_SITES = (
    FP_COORD_BEFORE_WAL,
    FP_COORD_AFTER_RESERVE,
    FP_COORD_BEFORE_COMMIT,
    FP_COORD_AFTER_COMMIT,
)

#: The replica's per-link sums are kept incrementally across adopts and
#: releases, so they must agree with a fresh recomputation to float-sum
#: noise only.
_SUM_TOLERANCE = 1e-6
#: ``LinkState`` running sum -> the ``CoreDemand`` field it accumulates.
_LINK_SUMS = (
    ("mean_total", "mean"),
    ("var_total", "variance"),
    ("deterministic_total", "deterministic"),
)


def cluster_chaos_plan(seed: int, operations: int = 40) -> ChaosPlan:
    """The single-node plan, with ~half the crashes moved into the coordinator."""
    plan = ChaosPlan.generate(seed, operations=operations)
    rng = random.Random(seed ^ 0xC10C)
    if plan.crash_site is not None and rng.random() < 0.5:
        site = rng.choice(CLUSTER_CRASH_SITES)
        for arming in plan.armings:
            if arming.get("mode") == MODE_CRASH and arming.get("name") == plan.crash_site:
                arming["name"] = site
                break
        plan.crash_site = site
    return plan


class ArchivingShard(LocalShard):
    """A shard whose store archives retired segments (the referees' oracle)."""

    store_class = ArchivingStore


class ArchivingCoordinator(ClusterCoordinator):
    """A coordinator that archives retired segments (the referees' oracle)."""

    def discard_segment(self, path: Path) -> None:
        archive_segment(path)


class ClusterSystem:
    """A coordinator over ``shards`` journaled in-process shards.

    Every journal checkpoints at the schedule's cadence and archives the
    segments it retires, so the referee replays each shard from seq 1.
    """

    key_prefix = "cluster"
    degraded_pause_s = 0.0

    def __init__(self, shards: int = 2, scale: str = "tiny") -> None:
        self.shards = shards
        self.partition = ClusterPartition.build(SCALE_SPECS[scale], shards)
        self.shard_list: List[LocalShard] = []

    def plan(self, seed: int, operations: int) -> ChaosPlan:
        return cluster_chaos_plan(seed, operations=operations)

    def request(self, rng: random.Random):
        return cluster_request(rng, self.partition.shards[0].total_slots)

    def start(self, directory: Path, snapshot_every: int, fsync: bool) -> None:
        """Shards first (they recover themselves), then the coordinator."""
        self.directory, self.snapshot_every = directory, snapshot_every
        self.shard_list = [
            ArchivingShard(
                view,
                directory / f"shard-{view.shard_index}",
                fsync=fsync,
                snapshot_every=snapshot_every,
                degradation=DegradationLadder(probe_interval=0.02),
                decision_timeout_s=DECISION_TIMEOUT_S,
            )
            for view in self.partition.shards
        ]
        self.coordinator = ArchivingCoordinator(
            self.partition,
            self.shard_list,
            directory=directory,
            fsync=fsync,
            snapshot_every=snapshot_every,
            decision_timeout_s=DECISION_TIMEOUT_S,
        )

    def recover(self) -> None:
        self.start(self.directory, self.snapshot_every, fsync=False)

    def kill(self) -> None:
        self._down("kill")

    def stop(self) -> None:
        self._down("stop")

    def _down(self, how: str) -> None:
        for shard in self.shard_list:
            try:
                getattr(shard, how)()
            except Exception:  # noqa: BLE001 — teardown must reach every shard
                pass
        getattr(self.coordinator, how)()

    def submit(self, key: str, request) -> Reply:
        try:
            decision = self.coordinator.submit(request, idempotency_key=key)
        except DegradedError:
            return Reply(Ack.DEGRADED)
        except ServiceError:
            # Shard died mid-decision, queue shed, or transport failure
            # (``CoordinatorError`` included): the outcome is unknown.
            return Reply(Ack.SHED | Ack.UNKNOWN)
        gid = decision["request_id"]
        fragments = self.coordinator.fragments_of(gid) if gid is not None else None
        return Reply(Ack.ACKED, decision["outcome"], gid, spans=len(fragments or ()))

    def release(self, gid: int) -> Ack:
        try:
            return Ack.ACKED if self.coordinator.release(gid) else Ack.NONE
        except ServiceError:
            # The coordinator refused to ack (the release is durable
            # nowhere): indeterminate, but the cluster is still up.
            return Ack.UNKNOWN

    def died(self) -> bool:
        return any(not shard.alive for shard in self.shard_list)

    def journaled(self, key: str) -> Optional[KeyEntry]:
        return self.coordinator._keys.get(key)

    def active_count(self) -> int:
        return self.coordinator.replica.active_tenancies

    def journals(self):
        """``(label, never-compacted segments, tree, live manager)`` per shard."""
        return [
            (
                f"shard {shard.index}", archived_segments(shard.store.wal_path),
                shard.view.tree, shard.manager,
            )
            for shard in self.shard_list
        ]

    def live_ids(self) -> set:
        return set(self.coordinator._gid_map)

    def occupancies(self):
        coordinator = self.coordinator
        return [
            (f"shard {shard.index}", shard.manager.max_occupancy())
            for shard in self.shard_list
        ] + [
            ("replica", coordinator.replica.max_occupancy()),
            ("ledger", coordinator.ledger.max_occupancy()),
        ]

    def check(self, fail) -> None:
        """Fragments <-> shard tenancies both ways, no held reservation,
        and the replica's core-link sums against a recompute."""
        coordinator = self.coordinator
        shard_active = {
            shard.index: set(shard.active_allocations()) for shard in self.shard_list
        }
        accounted: Dict[int, set] = {index: set() for index in shard_active}
        for gid, fragments in coordinator._gid_map.items():
            for shard_index, srid in fragments.items():
                if srid not in shard_active[shard_index]:
                    fail(f"gid {gid} fragment {srid} missing on shard {shard_index}")
                accounted[shard_index].add(srid)
        for shard_index, active in shard_active.items():
            orphans = active - accounted[shard_index]
            if orphans:
                fail(
                    f"shard {shard_index} holds unaccounted tenancies "
                    f"{sorted(orphans)}"
                )
        if coordinator.replica.active_tenancies != len(coordinator._gid_map):
            fail(
                f"replica holds {coordinator.replica.active_tenancies} "
                f"tenancies, coordinator maps {len(coordinator._gid_map)}"
            )
        if coordinator.ledger.pending_reservations != 0:
            fail(f"{coordinator.ledger.pending_reservations} reservations leaked")
        tenancies = list(coordinator.replica.tenancies())
        for link_id in self.partition.core_link_ids:
            demands = [
                demand
                for tenancy in tenancies
                for demand in core_demands_of(tenancy.allocation, (link_id,)).values()
            ]
            link_state = coordinator.replica.state.links[link_id]
            for component, part in _LINK_SUMS:
                have = getattr(link_state, component)
                want = sum(getattr(demand, part) for demand in demands)
                if abs(have - want) > _SUM_TOLERANCE:
                    fail(
                        f"replica {component} on core link {link_id} is "
                        f"{have}, its tenancies sum to {want}"
                    )
