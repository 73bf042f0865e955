"""Network manager: admission control and tenancy lifecycle.

"A network manager, upon receiving a tenant request, performs admission
control and VM allocation in the datacenter with physical links satisfying
the bandwidth requirements in terms of the probabilistic constraint (1)."
(Section III-C.)

The manager owns the authoritative :class:`NetworkState`, delegates placement
to a pluggable :class:`Allocator`, commits successful placements, and tears
them down on release.  Admitted requests are wrapped in :class:`Tenancy`
handles carrying the allocation and where each VM landed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.abstractions.requests import VirtualClusterRequest
from repro.allocation.base import (
    Allocation,
    Allocator,
    BatchContext,
    expand_vm_placement,
)
from repro.allocation.dispatch import default_allocator
from repro.allocation.resize import plan_in_place, resized_request
from repro.network.link_state import NetworkState
from repro.topology.tree import Tree

#: Resize outcomes (the ``repro_resize_total`` label values).
RESIZE_IN_PLACE = "in_place"
RESIZE_REPLACED = "replaced"
RESIZE_REJECTED = "rejected"


@dataclass
class Tenancy:
    """An admitted tenant: its allocation plus derived placement views."""

    allocation: Allocation
    #: Machine hosting each VM, indexed by VM number 0..N-1.
    vm_machines: List[int] = field(default_factory=list)

    @property
    def request_id(self) -> int:
        return self.allocation.request_id

    @property
    def request(self) -> VirtualClusterRequest:
        return self.allocation.request

    @property
    def n_vms(self) -> int:
        return self.allocation.request.n_vms


@dataclass(frozen=True)
class ResizeResult:
    """Outcome of one :meth:`NetworkManager.resize` call.

    ``tenancy`` is the tenant's *current* tenancy after the call: the
    resized one for ``in_place``/``replaced``, the untouched original for
    ``rejected`` (the tenant never loses its old allocation).
    """

    outcome: str  # RESIZE_IN_PLACE | RESIZE_REPLACED | RESIZE_REJECTED
    tenancy: "Tenancy"
    detail: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.outcome != RESIZE_REJECTED


class NetworkManager:
    """Admission control + allocation + release for a shared datacenter.

    ``epsilon`` is the provider-wide SLA risk factor of Eq. (1); the default
    0.05 matches the paper's evaluation.  ``allocator`` defaults to the
    paper's system (Algorithm 1 + the substring heuristic) and can be swapped
    for the baselines.
    """

    def __init__(
        self,
        tree: Tree,
        epsilon: float = 0.05,
        allocator: Optional[Allocator] = None,
    ) -> None:
        self.tree = tree
        self.state = NetworkState(tree, epsilon=epsilon)
        self.allocator = allocator if allocator is not None else default_allocator()
        self._next_id = 1
        self._tenancies: Dict[int, Tenancy] = {}
        self.admitted_count = 0
        self.rejected_count = 0
        #: Which allocator produced the most recent rejection (None before
        #: the first one), and the lifetime per-allocator rejection tally —
        #: surfaced by the admission service's stats endpoint.
        self.last_rejection_allocator: Optional[str] = None
        self.rejections_by_allocator: Dict[str, int] = {}
        #: Lifetime resize tallies by outcome.  Deliberately separate from
        #: ``admitted_count``/``rejected_count``: a resize is not an
        #: admission decision and must never move ``rejection_rate()``.
        self.resize_counts: Dict[str, int] = {
            RESIZE_IN_PLACE: 0,
            RESIZE_REPLACED: 0,
            RESIZE_REJECTED: 0,
        }

    @property
    def epsilon(self) -> float:
        return self.state.epsilon

    @property
    def active_tenancies(self) -> int:
        """Number of tenants currently holding resources (job concurrency)."""
        return len(self._tenancies)

    @property
    def next_request_id(self) -> int:
        """The id the next admitted-or-rejected request will receive."""
        return self._next_id

    @next_request_id.setter
    def next_request_id(self, value: int) -> None:
        if value < self._next_id:
            raise ValueError(
                f"request ids must not move backwards ({value} < {self._next_id})"
            )
        self._next_id = value

    def request(
        self, request: VirtualClusterRequest, batch: Optional[BatchContext] = None
    ) -> Optional[Tenancy]:
        """Admit (place + commit) a tenant request, or reject with None.

        Rejection means no valid allocation exists under the probabilistic
        guarantee — in the online scenario of Section VI-B2 such requests are
        dropped; in the batch scenario they wait in the FIFO queue.

        ``batch`` is an optional :meth:`batch_context` from this manager's
        allocator; when given, the allocate call routes through it and it is
        told of the commit.  Decisions are unchanged — the context contract
        requires bit-identical results.
        """
        request_id = self._next_id
        self._next_id += 1
        if batch is not None:
            allocation = batch.allocate(self.state, request, request_id)
        else:
            allocation = self.allocator.allocate(self.state, request, request_id)
        if allocation is None:
            self.rejected_count += 1
            rejected_by = (
                getattr(self.allocator, "last_rejected_by", None) or self.allocator.name
            )
            self.last_rejection_allocator = rejected_by
            self.rejections_by_allocator[rejected_by] = (
                self.rejections_by_allocator.get(rejected_by, 0) + 1
            )
            return None
        self.state.commit(allocation)
        if batch is not None:
            batch.note_commit(self.state, allocation)
        self.admitted_count += 1
        return self._track(allocation)

    def batch_context(self) -> BatchContext:
        """A fresh allocator batch context for a run of :meth:`request` calls."""
        return self.allocator.batch_context()

    def adopt(self, allocation: Allocation) -> Tenancy:
        """Install an already-placed allocation, bypassing the allocator.

        Crash recovery replays journaled allocations through this method so
        the reconstructed link state is byte-identical to what ``commit``
        produced before the crash, independent of allocator evolution.
        Admission counters are *not* touched — the recovery layer restores
        them from its own records.
        """
        if allocation.request_id in self._tenancies:
            raise ValueError(f"request {allocation.request_id} is already active")
        self.state.commit(allocation)
        if allocation.request_id >= self._next_id:
            self._next_id = allocation.request_id + 1
        return self._track(allocation)

    def release(self, tenancy: Tenancy) -> None:
        """Return a departing tenant's slots and bandwidth to the pool.

        Atomic: the network state is released *before* the tenancy entry is
        dropped, so a failed ``state.release`` (which is itself
        all-or-nothing) leaves the tenancy fully intact instead of stranding
        link state behind a half-removed tenant.
        """
        stored = self._tenancies.get(tenancy.request_id)
        if stored is None:
            raise KeyError(f"tenancy {tenancy.request_id} is not active")
        self.state.release(stored.allocation)
        del self._tenancies[tenancy.request_id]

    def resize(
        self,
        request_id: int,
        new_n: Optional[int] = None,
        new_mu: Optional[float] = None,
        new_sigma: Optional[float] = None,
    ) -> ResizeResult:
        """Grow or shrink an active tenancy, atomically.

        First attempts an **in-place** resize on the tenant's current
        placement (per-link Eq. 6 delta check via the allocator's
        occupancy-delta query; grow fills the tenant's own machines/racks
        first, shrink releases the highest-index VMs).  When that is
        infeasible, falls back to a full **release + re-admit** through the
        allocator; a rejected fallback restores the old allocation exactly,
        so the tenant never loses what it had.

        Resize outcomes are tallied in :attr:`resize_counts` and never touch
        the admission counters — ``rejection_rate()`` is about admission
        decisions only.
        """
        stored = self._tenancies.get(request_id)
        if stored is None:
            raise KeyError(f"tenancy {request_id} is not active")
        new_request = resized_request(
            stored.request, new_n=new_n, new_mu=new_mu, new_sigma=new_sigma
        )
        if new_request == stored.request:
            # No-op resize: idempotent success without touching any state.
            self.resize_counts[RESIZE_IN_PLACE] += 1
            return ResizeResult(RESIZE_IN_PLACE, stored, detail="no change")
        plan = plan_in_place(self.state, self.allocator, stored.allocation, new_request)
        if plan is not None:
            self.state.release(stored.allocation)
            try:
                self.state.commit(plan.allocation)
            except Exception:
                self.state.commit(stored.allocation)  # all-or-nothing
                raise
            tenancy = self._track(plan.allocation)
            self.resize_counts[RESIZE_IN_PLACE] += 1
            return ResizeResult(RESIZE_IN_PLACE, tenancy)
        # Fallback: atomic release + re-admit.  The allocator may move the
        # tenant anywhere; on rejection the old allocation is re-committed
        # verbatim (the slots it just vacated are necessarily still free).
        self.state.release(stored.allocation)
        allocation = self._allocate_unattributed(new_request, request_id)
        if allocation is None:
            self.state.commit(stored.allocation)
            self.resize_counts[RESIZE_REJECTED] += 1
            return ResizeResult(
                RESIZE_REJECTED, stored, detail="no feasible placement for the resize"
            )
        self.state.commit(allocation)
        tenancy = self._track(allocation)
        self.resize_counts[RESIZE_REPLACED] += 1
        return ResizeResult(RESIZE_REPLACED, tenancy)

    def _track(self, allocation: Allocation) -> Tenancy:
        """Record an allocation the state has committed as its tenant's
        tenancy (a resized one replaces the old record)."""
        tenancy = Tenancy(
            allocation=allocation, vm_machines=expand_vm_placement(allocation)
        )
        self._tenancies[allocation.request_id] = tenancy
        return tenancy

    def _allocate_unattributed(
        self, request: VirtualClusterRequest, request_id: int
    ) -> Optional[Allocation]:
        """Run the allocator without polluting admission-rejection stats.

        The dispatcher attributes every ``None`` to the allocator that
        produced it; a resize fallback probe is not an admission decision,
        so its rejection is rolled back out of those tallies.
        """
        last = getattr(self.allocator, "last_rejected_by", None)
        counts = getattr(self.allocator, "rejection_counts", None)
        snapshot = dict(counts) if counts is not None else None
        allocation = self.allocator.allocate(self.state, request, request_id)
        if allocation is None and counts is not None:
            counts.clear()
            counts.update(snapshot)
            self.allocator.last_rejected_by = last
        return allocation

    def tenancy(self, request_id: int) -> Tenancy:
        return self._tenancies[request_id]

    def get_tenancy(self, request_id: int) -> Optional[Tenancy]:
        """The active tenancy with this id, or None."""
        return self._tenancies.get(request_id)

    def tenancies(self) -> Iterator[Tenancy]:
        """Iterate over active tenancies in admission (request-id) order."""
        for request_id in sorted(self._tenancies):
            yield self._tenancies[request_id]

    def max_occupancy(self) -> float:
        """``max_L O_L`` over the datacenter (the Fig. 9 statistic)."""
        return self.state.max_occupancy()

    def rejection_rate(self) -> float:
        """Fraction of requests rejected so far (Fig. 7 / Fig. 10 statistic)."""
        total = self.admitted_count + self.rejected_count
        return self.rejected_count / total if total else 0.0
