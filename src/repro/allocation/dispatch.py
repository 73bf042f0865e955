"""Request-type dispatching composite allocator.

The network sharing framework accepts deterministic VC, homogeneous SVC, and
heterogeneous SVC requests side by side (Section III-A: "the deterministic
and stochastic bandwidth requirements can co-exist").  The dispatcher routes
each request to the algorithm that handles its type.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.abstractions.requests import VirtualClusterRequest
from repro.allocation.base import Allocation, Allocator
from repro.allocation.first_fit import FirstFitAllocator
from repro.allocation.svc_het_heuristic import SVCHeterogeneousAllocator
from repro.allocation.svc_homogeneous import (
    AdaptedTIVCAllocator,
    SVCHomogeneousAllocator,
)
from repro.network.link_state import NetworkState


class DispatchingAllocator(Allocator):
    """Routes each request to the first registered allocator that supports it.

    Rejections are attributed: when the supporting allocator returns None,
    :attr:`last_rejected_by` names it and :attr:`rejection_counts` tallies it
    — the service stats endpoint reports these so operators can tell *which*
    algorithm is turning tenants away.
    """

    name = "dispatch"

    def __init__(self, allocators: Sequence[Allocator]) -> None:
        if not allocators:
            raise ValueError("at least one allocator is required")
        self._allocators = tuple(allocators)
        #: Name of the allocator whose None the last ``allocate`` call
        #: returned; None after a successful allocation.
        self.last_rejected_by: Optional[str] = None
        #: Lifetime rejection tally per allocator name.
        self.rejection_counts: Dict[str, int] = {}

    def supports(self, request: VirtualClusterRequest) -> bool:
        return any(allocator.supports(request) for allocator in self._allocators)

    def allocate(
        self, state: NetworkState, request: VirtualClusterRequest, request_id: int
    ) -> Optional[Allocation]:
        for allocator in self._allocators:
            if allocator.supports(request):
                allocation = allocator.allocate(state, request, request_id)
                if allocation is None:
                    self.last_rejected_by = allocator.name
                    self.rejection_counts[allocator.name] = (
                        self.rejection_counts.get(allocator.name, 0) + 1
                    )
                else:
                    self.last_rejected_by = None
                return allocation
        raise TypeError(
            f"no registered allocator supports {type(request).__name__} "
            f"(registered: {[a.name for a in self._allocators]})"
        )

    def resize_link_demands(
        self,
        state: NetworkState,
        new_request: VirtualClusterRequest,
        host_node: int,
        machine_counts,
        machine_vms=None,
    ):
        for allocator in self._allocators:
            if allocator.supports(new_request):
                return allocator.resize_link_demands(
                    state, new_request, host_node, machine_counts, machine_vms
                )
        raise TypeError(
            f"no registered allocator supports {type(new_request).__name__} "
            f"(registered: {[a.name for a in self._allocators]})"
        )


def default_allocator() -> DispatchingAllocator:
    """The paper's system: Algorithm 1 + the substring heuristic.

    Homogeneous SVC and deterministic VC requests go through the optimizing
    DP (Algorithm 1); heterogeneous SVC requests through the substring
    heuristic with occupancy optimization.
    """
    return DispatchingAllocator([SVCHomogeneousAllocator(), SVCHeterogeneousAllocator()])


def baseline_allocator() -> DispatchingAllocator:
    """The comparison stack: adapted TIVC + plain first fit (Section VI-B3)."""
    return DispatchingAllocator([AdaptedTIVCAllocator(), FirstFitAllocator()])


def first_fit_allocator() -> DispatchingAllocator:
    """Locality-greedy first fit only, for all request types."""
    return DispatchingAllocator([FirstFitAllocator()])


ALLOCATOR_FACTORIES = {
    "default": default_allocator,
    "baseline": baseline_allocator,
    "first-fit": first_fit_allocator,
}
"""Named allocator stacks selectable from the CLI (``--allocator``)."""


def allocator_by_name(name: str) -> DispatchingAllocator:
    """Build one of the named allocator stacks, with a helpful error."""
    try:
        factory = ALLOCATOR_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown allocator {name!r}; choose from {sorted(ALLOCATOR_FACTORIES)}"
        ) from None
    return factory()
