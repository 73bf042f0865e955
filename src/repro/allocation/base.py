"""Allocator interface and the allocation record.

An allocator maps a tenant request onto empty VM slots such that every
physical link still satisfies the probabilistic guarantee (Eq. 4 — i.e.
``O_L < 1`` on all links).  The result is an :class:`Allocation`: which
machines host how many VMs, and the demand footprint recorded on every link
that separates parts of the cluster.  Allocations are pure descriptions —
:meth:`repro.network.link_state.NetworkState.commit` applies them.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.abstractions.requests import VirtualClusterRequest
from repro.network.link_state import NetworkState
from repro.stochastic.normal import Normal
from repro.topology.tree import Tree


@dataclass
class Allocation:
    """A concrete placement of a virtual cluster in the datacenter.

    ``machine_counts`` maps machine node-id to the number of VMs it hosts;
    ``link_demands`` maps link-id to the request's demand on that link (a
    degenerate :class:`Normal` for deterministic requests).  For
    heterogeneous requests ``machine_vms`` additionally records *which* VM
    indices each machine hosts.  ``max_occupancy`` is the objective value —
    the maximum post-allocation ``O_L`` over the links of the hosting subtree
    — reported by the optimizing allocators (NaN when not computed).
    """

    request: VirtualClusterRequest
    request_id: int
    host_node: int
    machine_counts: Dict[int, int]
    link_demands: Dict[int, Normal]
    machine_vms: Optional[Dict[int, Tuple[int, ...]]] = None
    max_occupancy: float = float("nan")

    def __post_init__(self) -> None:
        placed = sum(self.machine_counts.values())
        if placed != self.request.n_vms:
            raise ValueError(
                f"allocation places {placed} VMs but the request asks for {self.request.n_vms}"
            )
        if any(count <= 0 for count in self.machine_counts.values()):
            raise ValueError("machine_counts must only contain positive entries")
        if self.machine_vms is not None:
            for machine_id, vms in self.machine_vms.items():
                if len(vms) != self.machine_counts.get(machine_id, 0):
                    raise ValueError(
                        f"machine {machine_id}: VM identity list disagrees with its count"
                    )

    @property
    def deterministic(self) -> bool:
        """Whether the footprint is reserved (``D_L``) or statistically shared."""
        return self.request.is_deterministic

    @property
    def num_machines(self) -> int:
        return len(self.machine_counts)


def expand_vm_placement(allocation: Allocation) -> List[int]:
    """Machine id hosting each VM, indexed by VM number ``0..N-1``.

    For heterogeneous allocations the recorded VM identities are honored;
    for homogeneous ones VMs are interchangeable and numbered machine by
    machine in ascending machine-id order (deterministic for the simulator).
    """
    placement: List[int] = [-1] * allocation.request.n_vms
    if allocation.machine_vms is not None:
        for machine_id, vms in allocation.machine_vms.items():
            for vm in vms:
                placement[vm] = machine_id
    else:
        vm = 0
        for machine_id in sorted(allocation.machine_counts):
            for _ in range(allocation.machine_counts[machine_id]):
                placement[vm] = machine_id
                vm += 1
    if any(machine < 0 for machine in placement):
        raise ValueError("allocation does not cover every VM")
    return placement


def link_demands_from_counts(
    tree: Tree,
    host_node: int,
    machine_counts: Dict[int, int],
    split_mean: np.ndarray,
    split_var: np.ndarray,
) -> Dict[int, Normal]:
    """Per-link demand footprint of a homogeneous placement.

    Accumulates per-machine VM counts up the tree to ``host_node`` and looks
    up the Lemma-1 split moments for each crossed link.  Links with the whole
    cluster (or none of it) below carry zero demand and are omitted; in
    particular nothing is recorded at or above the hosting subtree's uplink.
    """
    n = len(split_mean) - 1
    below: Dict[int, int] = {}
    for machine_id, count in machine_counts.items():
        node_id = machine_id
        while node_id != host_node:
            below[node_id] = below.get(node_id, 0) + count
            parent = tree.node(node_id).parent
            if parent is None:
                raise ValueError(f"machine {machine_id} is not under host node {host_node}")
            node_id = parent
    demands: Dict[int, Normal] = {}
    for node_id, count in below.items():
        if 0 < count < n:
            demands[node_id] = Normal.from_variance(
                float(split_mean[count]), float(split_var[count])
            )
    return demands


def add_phase(phases: Optional[Dict[str, float]], phase: str, since: float) -> None:
    """Add the wall time since ``since`` to one DP phase of a sampled trace."""
    if phases is not None:
        phases[phase] = phases.get(phase, 0.0) + perf_counter() - since


class Allocator(abc.ABC):
    """Interface shared by every VM allocation algorithm."""

    #: Short identifier used in experiment tables and logs.
    name: str = "allocator"

    @abc.abstractmethod
    def allocate(
        self, state: NetworkState, request: VirtualClusterRequest, request_id: int
    ) -> Optional[Allocation]:
        """Place ``request`` given the current network state.

        Returns the allocation (without committing it), or None when no valid
        placement exists — the admission-control rejection of Section III-C.
        """

    def supports(self, request: VirtualClusterRequest) -> bool:
        """Whether this algorithm can handle the given request type."""
        return True

    def resize_link_demands(
        self,
        state: NetworkState,
        new_request: VirtualClusterRequest,
        host_node: int,
        machine_counts: Dict[int, int],
        machine_vms: Optional[Dict[int, Tuple[int, ...]]] = None,
    ) -> Dict[int, Normal]:
        """Recompute a placement's per-link demand for a resized request.

        The in-place resize planner (:mod:`repro.allocation.resize`) keeps a
        tenant's placement and asks the allocator that understands the
        request kind for the new Eq. 6 footprint over that placement.
        Allocators that cannot answer leave this default, which refuses.
        """
        raise TypeError(
            f"{self.name} cannot recompute link demands for a "
            f"{type(new_request).__name__}"
        )

    def occupancy_delta(
        self, state: NetworkState, old_allocation: Allocation, new_allocation: Allocation
    ) -> Dict[int, float]:
        """Per-link Eq. 6 occupancy if ``old`` were swapped for ``new``.

        A read-only probe over the links either footprint touches; the
        in-place resize commits only when every value stays below 1 (Eq. 4).
        """
        from repro.allocation.resize import swap_occupancies

        return swap_occupancies(state, old_allocation, new_allocation)

    def batch_context(self) -> "BatchContext":
        """A context for one coalesced run of *sequential* allocate calls.

        The service's admission batcher drives each batch through one, and
        harnesses wrap it to time batch members.  The contract is strict:
        ``context.allocate(state, request, rid)`` returns exactly what
        ``self.allocate(state, request, rid)`` would.  Allocators that reuse
        work between calls keep it themselves (see ``svc_homogeneous``), so
        that every caller profits, batched or not.
        """
        return BatchContext(self)


class BatchContext:
    """Pass-through batch context: one allocator, no state of its own."""

    def __init__(self, allocator: Allocator) -> None:
        self.allocator = allocator

    def allocate(
        self, state: NetworkState, request: VirtualClusterRequest, request_id: int
    ) -> Optional[Allocation]:
        return self.allocator.allocate(state, request, request_id)

    def note_commit(self, state: NetworkState, allocation: Allocation) -> None:
        """The caller committed ``allocation`` to ``state``.

        :meth:`NetworkManager.request` calls this after every successful
        commit inside a batch.  Nothing here needs it —
        ``NetworkState.changed_at`` tells allocators what moved — but
        wrapping contexts override it.
        """
