"""Topology partitioner: split the three-level tree by aggregation subtree.

Each shard owns a contiguous block of pods (aggregation subtrees).  A shard's
view of the datacenter is a *tree of its own* — a replica core switch with
only the owned pods below it — built in the exact construction order of
:func:`repro.topology.builder.build_datacenter`, so a single-shard partition
produces a tree that is node-for-node **id-identical** to the global one.
That identity is what makes the single-shard cluster path bit-compatible
with the direct ``AdmissionService`` path (the sharded-equivalence test).

Node correspondence between a shard tree and the global tree is established
by *name* (names are unique: ``core``, ``agg{p}``, ``tor{p}.{r}``,
``m{p}.{r}.{m}``), never by id arithmetic, so it survives any future change
to the id assignment order.

The **core links** — the aggregation uplinks, link id == agg node id — are
the only links shared with the rest of the datacenter.  Each core link hangs
under exactly one pod and therefore belongs to exactly one shard, but its
*capacity* is a datacenter-wide resource: cross-shard placements load core
links of several shards at once, which is why the coordinator accounts for
them itself — committed load in its full-tree replica, in-flight holds in
:mod:`repro.cluster.ledger` — instead of trusting any single shard's view.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.allocation.base import Allocation
from repro.topology.builder import DatacenterSpec, build_datacenter
from repro.topology.tree import Tree


def build_shard_tree(spec: DatacenterSpec, pods: Sequence[int]) -> Tree:
    """A shard's view: replica core + the owned pods, in builder order.

    The loop body mirrors :func:`build_datacenter` exactly (same names, same
    attach order); with ``pods == range(spec.pods)`` the result is
    id-identical to the global tree.
    """
    if not pods:
        raise ValueError("a shard must own at least one pod")
    tree = Tree()
    core = tree.add_switch("core", level=3)
    for pod in pods:
        if not 0 <= pod < spec.pods:
            raise ValueError(f"pod {pod} outside spec range 0..{spec.pods - 1}")
        agg = tree.add_switch(f"agg{pod}", level=2)
        tree.attach(agg, core, spec.agg_uplink_mbps)
        for rack in range(spec.racks_per_pod):
            tor = tree.add_switch(f"tor{pod}.{rack}", level=1)
            tree.attach(tor, agg, spec.tor_uplink_mbps)
            for machine in range(spec.machines_per_rack):
                node = tree.add_machine(
                    f"m{pod}.{rack}.{machine}", slot_capacity=spec.slots_per_machine
                )
                tree.attach(node, tor, spec.machine_link_mbps)
    return tree.freeze()


@dataclass(frozen=True)
class ShardView:
    """One shard's slice of the datacenter plus its id translation tables."""

    shard_index: int
    pods: Tuple[int, ...]
    spec: DatacenterSpec
    tree: Tree
    #: local node id -> global node id (link ids translate identically,
    #: because a link id *is* its child node id).
    to_global: Mapping[int, int]
    #: global node id -> local node id (only nodes this shard owns + core).
    from_global: Mapping[int, int]
    #: Global link ids of the owned aggregation uplinks (the core links).
    core_link_ids: Tuple[int, ...]

    @property
    def total_slots(self) -> int:
        return self.tree.total_slots

    def allocation_to_global(
        self, allocation: Allocation, request_id: Optional[int] = None
    ) -> Allocation:
        """Translate a shard-local allocation into global node/link ids."""
        return self._translate(allocation, self.to_global, request_id)

    def allocation_to_local(
        self, allocation: Allocation, request_id: Optional[int] = None
    ) -> Allocation:
        """Translate a global-id allocation (fully inside this shard) back."""
        return self._translate(allocation, self.from_global, request_id)

    @staticmethod
    def _translate(
        allocation: Allocation, mapping: Mapping[int, int], request_id: Optional[int]
    ) -> Allocation:
        machine_vms = None
        if allocation.machine_vms is not None:
            machine_vms = {
                mapping[machine_id]: vms
                for machine_id, vms in allocation.machine_vms.items()
            }
        return dataclasses.replace(
            allocation,
            request_id=allocation.request_id if request_id is None else request_id,
            host_node=mapping[allocation.host_node],
            machine_counts={
                mapping[machine_id]: count
                for machine_id, count in allocation.machine_counts.items()
            },
            link_demands={
                mapping[link_id]: demand
                for link_id, demand in allocation.link_demands.items()
            },
            machine_vms=machine_vms,
        )


def _pod_blocks(num_pods: int, num_shards: int) -> Tuple[Tuple[int, ...], ...]:
    """Balanced contiguous pod blocks: sizes differ by at most one."""
    base, extra = divmod(num_pods, num_shards)
    blocks = []
    start = 0
    for shard in range(num_shards):
        size = base + (1 if shard < extra else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return tuple(blocks)


@dataclass(frozen=True)
class ClusterPartition:
    """The global tree plus K non-overlapping shard views that tile it.

    Invariant (checked at build time): every machine, ToR and aggregation
    node of the global tree appears in exactly one shard view; only the
    core switch is replicated into every shard.
    """

    spec: DatacenterSpec
    num_shards: int
    tree: Tree
    shards: Tuple[ShardView, ...]
    #: global pod index -> shard index.
    pod_to_shard: Mapping[int, int]
    #: global node id (below core) -> shard index.
    node_to_shard: Mapping[int, int]

    @classmethod
    def build(
        cls, spec: DatacenterSpec, num_shards: int, tree: Optional[Tree] = None
    ) -> "ClusterPartition":
        if not 1 <= num_shards <= spec.pods:
            raise ValueError(
                f"num_shards must be in 1..{spec.pods} (one pod per shard at "
                f"most), got {num_shards}"
            )
        global_tree = tree if tree is not None else build_datacenter(spec)
        by_name: Dict[str, int] = {
            node.name: node.node_id for node in global_tree.nodes
        }
        if len(by_name) != global_tree.num_nodes:
            raise ValueError("global tree has duplicate node names")

        shards = []
        pod_to_shard: Dict[int, int] = {}
        node_to_shard: Dict[int, int] = {}
        for shard_index, pods in enumerate(_pod_blocks(spec.pods, num_shards)):
            shard_tree = build_shard_tree(spec, pods)
            to_global: Dict[int, int] = {}
            from_global: Dict[int, int] = {}
            for node in shard_tree.nodes:
                global_id = by_name.get(node.name)
                if global_id is None:
                    raise ValueError(
                        f"shard node {node.name!r} missing from the global tree"
                    )
                to_global[node.node_id] = global_id
                from_global[global_id] = node.node_id
                if node.name != "core":
                    node_to_shard[global_id] = shard_index
            core_links = tuple(by_name[f"agg{pod}"] for pod in pods)
            shards.append(
                ShardView(
                    shard_index=shard_index,
                    pods=pods,
                    spec=spec,
                    tree=shard_tree,
                    to_global=to_global,
                    from_global=from_global,
                    core_link_ids=core_links,
                )
            )
            for pod in pods:
                pod_to_shard[pod] = shard_index

        # Tiling check: every non-core global node is owned exactly once.
        expected = global_tree.num_nodes - 1
        if len(node_to_shard) != expected:
            raise ValueError(
                f"partition covers {len(node_to_shard)} nodes, expected {expected}"
            )
        return cls(
            spec=spec,
            num_shards=num_shards,
            tree=global_tree,
            shards=tuple(shards),
            pod_to_shard=pod_to_shard,
            node_to_shard=node_to_shard,
        )

    @property
    def core_link_ids(self) -> Tuple[int, ...]:
        """All core links (global agg-uplink ids), in shard then pod order."""
        ids = []
        for shard in self.shards:
            ids.extend(shard.core_link_ids)
        return tuple(ids)

    def shards_touched(self, allocation: Allocation) -> Tuple[int, ...]:
        """Sorted shard indices hosting at least one VM of an allocation."""
        touched = {
            self.node_to_shard[machine_id]
            for machine_id in allocation.machine_counts
        }
        return tuple(sorted(touched))

    def describe(self) -> str:
        sizes = ", ".join(
            f"s{shard.shard_index}:{len(shard.pods)}p/{shard.total_slots}slots"
            for shard in self.shards
        )
        return (
            f"ClusterPartition(pods={self.spec.pods}, shards={self.num_shards}, "
            f"core_links={len(self.core_link_ids)}, [{sizes}])"
        )
