"""Admission request queue: the paper's two arrival disciplines.

* **online** (Section VI-B2): requests are tried once on arrival; if no
  valid placement exists they are dropped (rejected) immediately.
* **batch** (Section VI-B1): rejected requests are *parked* in FIFO order
  and retried whenever a departure frees resources, until they are admitted
  or their deadline passes.

On top of the paper semantics, every request carries a ``priority`` (higher
is served first, FIFO within a priority class) and an optional absolute
``deadline`` after which it expires instead of being served.

The queue is deliberately **not** thread-safe: :class:`~repro.service.
concurrency.AdmissionService` owns a condition variable and performs every
queue call while holding it.  Keeping the structure lock-free makes the
locking discipline auditable in one place.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.abstractions.requests import VirtualClusterRequest

MODE_ONLINE = "online"
MODE_BATCH = "batch"
MODES = (MODE_ONLINE, MODE_BATCH)

DEFAULT_TENANT = "default"
"""Tenant id assigned to submissions that do not name one."""


@dataclass
class QueuedRequest:
    """One tenant request waiting for an admission attempt."""

    ticket_id: int
    request: VirtualClusterRequest
    priority: int = 0
    #: Absolute clock value (service clock) after which the request expires.
    deadline: Optional[float] = None
    enqueued_at: float = 0.0
    attempts: int = 0
    #: Client-supplied dedup key, carried into the admit/reject journal
    #: record so retries after a lost ack stay idempotent.
    idempotency_key: Optional[str] = None
    #: Distributed-trace context (``repro.obs.tracing.TraceContext``) the
    #: worker activates around the allocator call; None when unsampled.
    trace_context: Optional[object] = None
    #: Tenant the request bills to — the fair queue schedules across tenants
    #: by weighted deficit round-robin and quotas are enforced per tenant.
    tenant: str = DEFAULT_TENANT
    #: Coalescing key (``repro.service.codec.request_shape_key``); the
    #: batcher only merges consecutive entries with equal shapes.
    shape: Optional[Tuple] = field(default=None, repr=False)
    #: The submitter's ``repro.service.concurrency.Ticket``, resolved with
    #: the decision without a lookup under the service lock.
    ticket: Optional[object] = field(default=None, repr=False)
    #: FIFO tiebreak, assigned by the queue on first push and kept across
    #: park/retry cycles so retried requests keep their arrival position.
    seq: int = field(default=0, repr=False)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    def sort_key(self) -> Tuple[int, int]:
        return (-self.priority, self.seq)


class FairRequestQueue:
    """Per-tenant weighted deficit round-robin admission queue.

    Each tenant owns a private heap ordered by priority, then arrival
    (:meth:`QueuedRequest.sort_key`); across tenants a deficit round-robin
    rotation decides who is served next.  On each visit a tenant's deficit
    grows by its weight and every pop costs one unit, so a tenant with
    weight ``w`` gets up to ``w`` consecutive admissions per rotation lap —
    and any tenant with a positive weight is visited once per lap, which is
    what makes starvation impossible regardless of how the others flood.

    The serving order this queue produces **is** the canonical sequential
    order: the batcher only coalesces a run of *consecutive* pops with equal
    shape keys (:meth:`pop_compatible`), so batched admission processes
    exactly the sequence an unbatched worker would, one decision at a time.

    Not thread-safe (see the module docstring): all calls are made under
    the service condition variable.
    """

    def __init__(
        self,
        mode: str = MODE_ONLINE,
        default_weight: int = 1,
        weights: Optional[Dict[str, int]] = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown queue mode {mode!r}; choose from {MODES}")
        if default_weight < 1:
            raise ValueError(f"default weight must be >= 1, got {default_weight}")
        for tenant, weight in (weights or {}).items():
            if weight < 1:
                raise ValueError(f"tenant {tenant!r} weight must be >= 1, got {weight}")
        self.mode = mode
        self._default_weight = default_weight
        self._weights: Dict[str, int] = dict(weights or {})
        #: tenant -> that tenant's ready heap of ``(sort_key, entry)``.
        self._heaps: Dict[str, List[Tuple[Tuple[int, int], QueuedRequest]]] = {}
        #: Round-robin order over tenants with ready work; head serves next.
        self._rotation: Deque[str] = deque()
        #: Deficit counters; dropped when a tenant's heap empties, so idle
        #: tenants cannot bank credit (standard DRR).
        self._deficits: Dict[str, float] = {}
        self._parked: List[QueuedRequest] = []
        self._next_seq = 0
        #: Live counts, so the introspection the service does under its lock
        #: on every submit is O(1): entries in the ready heaps, and ready +
        #: parked entries per tenant (tenants at zero are dropped).
        self._ready = 0
        self._depths: Dict[str, int] = {}

    def weight_of(self, tenant: str) -> int:
        return self._weights.get(tenant, self._default_weight)

    def set_weight(self, tenant: str, weight: int) -> None:
        if weight < 1:
            raise ValueError(f"tenant {tenant!r} weight must be >= 1, got {weight}")
        self._weights[tenant] = weight

    # ------------------------------------------------------------------
    # Arrival side
    # ------------------------------------------------------------------

    def push(self, entry: QueuedRequest) -> None:
        """Enqueue a new arrival (assigns its FIFO position)."""
        entry.seq = self._next_seq
        self._next_seq += 1
        self._push_existing(entry)
        self._adjust_depth(entry.tenant, +1)

    def _push_existing(self, entry: QueuedRequest) -> None:
        heap = self._heaps.get(entry.tenant)
        if heap is None:
            heap = self._heaps[entry.tenant] = []
            self._rotation.append(entry.tenant)
            self._deficits[entry.tenant] = 0.0
        heapq.heappush(heap, (entry.sort_key(), entry))
        self._ready += 1

    def _adjust_depth(self, tenant: str, delta: int) -> None:
        depth = self._depths.get(tenant, 0) + delta
        if depth:
            self._depths[tenant] = depth
        else:
            del self._depths[tenant]

    def _left_ready(self, entry: QueuedRequest) -> None:
        """Count one entry out of the ready heaps (popped or expired)."""
        self._ready -= 1
        self._adjust_depth(entry.tenant, -1)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _retire(self, tenant: str) -> None:
        self._rotation.remove(tenant)
        del self._heaps[tenant]
        del self._deficits[tenant]

    def _settle(self, now: float, expired: List[QueuedRequest]) -> Optional[str]:
        """Advance the rotation until its head tenant is the one to serve.

        Prunes expired entries off heap tops on the way
        (collecting them), retires tenants whose heaps empty,
        and tops up deficits per DRR.  Deterministic: the tenant returned is
        a pure function of queue state, so peeking commits nothing beyond
        what any pop would have decided anyway.
        """
        while self._rotation:
            tenant = self._rotation[0]
            heap = self._heaps[tenant]
            while heap and heap[0][1].expired(now):
                entry = heapq.heappop(heap)[1]
                expired.append(entry)
                self._left_ready(entry)
            if not heap:
                self._retire(tenant)
                continue
            if self._deficits[tenant] >= 1.0:
                return tenant
            self._deficits[tenant] += self.weight_of(tenant)
            self._rotation.rotate(-1)
        return None

    def pop_ready(
        self, now: float
    ) -> Tuple[Optional[QueuedRequest], List[QueuedRequest]]:
        """Next request to try (per DRR), plus expired entries drained."""
        expired: List[QueuedRequest] = []
        tenant = self._settle(now, expired)
        if tenant is None:
            return None, expired
        return self._take(tenant), expired

    def _take(self, tenant: str) -> QueuedRequest:
        """Pop the head of ``tenant``'s heap, charging its deficit."""
        _key, entry = heapq.heappop(self._heaps[tenant])
        self._deficits[tenant] -= 1.0
        if not self._heaps[tenant]:
            self._retire(tenant)
        self._left_ready(entry)
        return entry

    def pop_compatible(
        self, shape: Optional[Tuple], now: float
    ) -> Tuple[Optional[QueuedRequest], List[QueuedRequest]]:
        """Pop the next entry only if it matches ``shape``.

        This is the batcher's coalescing primitive: it pops exactly the
        entry :meth:`pop_ready` would have popped, but only when that
        entry's shape key equals ``shape`` — otherwise the queue is left
        for the next (unbatched-order) round.  Never matches a None shape.
        """
        expired: List[QueuedRequest] = []
        tenant = self._settle(now, expired)
        if tenant is None:
            return None, expired
        entry = self._heaps[tenant][0][1]
        if shape is None or entry.shape != shape:
            return None, expired
        return self._take(tenant), expired

    def park(self, entry: QueuedRequest) -> None:
        """Batch mode: hold a rejected request for retry on departures."""
        if self.mode != MODE_BATCH:
            raise ValueError("parking rejected requests requires batch mode")
        self._parked.append(entry)
        self._adjust_depth(entry.tenant, +1)

    def requeue_parked(self) -> int:
        """Move every parked request back into its tenant's ready heap."""
        count = len(self._parked)
        for entry in self._parked:
            self._push_existing(entry)
        self._parked.clear()
        return count

    def expire(self, now: float) -> List[QueuedRequest]:
        """Remove and return every expired entry (ready and parked)."""
        expired: List[QueuedRequest] = [
            e for e in self._parked if e.expired(now)
        ]
        self._parked = [e for e in self._parked if not e.expired(now)]
        for entry in expired:
            self._adjust_depth(entry.tenant, -1)
        for tenant in list(self._heaps):
            heap = self._heaps[tenant]
            kept: List[Tuple[Tuple[int, int], QueuedRequest]] = []
            for key, entry in heap:
                if entry.expired(now):
                    expired.append(entry)
                    self._left_ready(entry)
                else:
                    kept.append((key, entry))
            heapq.heapify(kept)
            self._heaps[tenant] = kept
            if not kept:
                self._retire(tenant)
        return expired

    def drain(self) -> List[QueuedRequest]:
        """Remove and return everything still waiting (service shutdown)."""
        entries = [e for heap in self._heaps.values() for _k, e in heap]
        entries.extend(self._parked)
        self._heaps.clear()
        self._rotation.clear()
        self._deficits.clear()
        self._parked.clear()
        self._ready = 0
        self._depths.clear()
        entries.sort(key=QueuedRequest.sort_key)
        return entries

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def ready_count(self) -> int:
        return self._ready

    @property
    def parked_count(self) -> int:
        return len(self._parked)

    def __len__(self) -> int:
        return self._ready + len(self._parked)

    def tenant_depths(self) -> Dict[str, int]:
        """Waiting entries (ready + parked) per tenant — quota & gauge feed."""
        return dict(self._depths)

    def tenant_depth(self, tenant: str) -> int:
        return self._depths.get(tenant, 0)
