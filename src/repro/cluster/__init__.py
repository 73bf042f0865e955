"""Sharded multi-worker admission over a partitioned datacenter tree.

The paper's evaluation stops at one tree behind one allocator; this package
scales admission horizontally (ROADMAP open item 2).  The three-level tree
is split **by aggregation subtree** into K shard views
(:mod:`repro.cluster.partition`); each shard runs the existing
``AdmissionService`` + WAL/recovery stack unchanged over its subtree
(:mod:`repro.cluster.shard`, :mod:`repro.cluster.worker`); a coordinator
(:mod:`repro.cluster.coordinator`) routes requests placement-locality-first
to a single shard and admits cross-shard placements through a two-phase
reserve/commit protocol whose holds on the shared core links live in
:mod:`repro.cluster.ledger` (what is committed lives in the coordinator's
replica alone), so the Eq. (1) outage bound composes across shards without
double-counting or leaks.
"""

from repro.cluster.coordinator import ClusterCoordinator, CoordinatorError
from repro.cluster.ledger import CoreLinkLedger, LedgerError
from repro.cluster.partition import ClusterPartition, ShardView, build_shard_tree
from repro.cluster.rebalance import ShardLoadRebalancer
from repro.cluster.shard import LocalShard, ShardAdoptError, ShardHandle
from repro.cluster.worker import ProcessShard

__all__ = [
    "ClusterCoordinator",
    "CoordinatorError",
    "CoreLinkLedger",
    "LedgerError",
    "ClusterPartition",
    "ShardView",
    "build_shard_tree",
    "ShardLoadRebalancer",
    "LocalShard",
    "ShardAdoptError",
    "ShardHandle",
    "ProcessShard",
]
