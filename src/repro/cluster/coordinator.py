"""Cluster coordinator: locality-first routing + two-phase core-link commits.

The coordinator is the cluster's client-facing admission front-end.  It owns
three pieces of state, all guarded by one lock (the same single-owner
discipline as ``AdmissionService``):

* a **replica** ``NetworkManager`` over the *global* tree, kept in sync by
  applying every shard admission and release (translated to global ids).
  Routing reads per-shard free slots from it without touching a shard, and
  the cross-shard allocator runs on it with the exact full-tree Lemma-1
  moments — so a placement spanning shards carries the same per-link
  effective bandwidth ``E^L_i`` a single giant manager would compute, and
  Eq. (1) composes across shards (DESIGN.md §9);
* the **core-link ledger** (:mod:`repro.cluster.ledger`): the global truth
  for aggregation-uplink capacity, with TTL'd reservations for in-flight
  two-phase rounds;
* a **write-ahead log** (reusing :class:`repro.service.journal.Journal`)
  whose record order is the order coordinator state changed.

Request lifecycle:

* **local** — routed to one shard (most free capacity, weighted by the
  advisory rebalancer; with a single shard this degenerates to a pass-
  through, which is what makes the one-shard cluster bit-identical to the
  direct service).  The shard's own serialized admission guards everything
  it touches, including its own core links; the coordinator mirrors the
  decision into replica + ledger after the ack.
* **cross-shard** — placement computed on the replica, then a two-phase
  round: ``reserve`` effective bandwidth on the ledger (TTL'd), journal the
  intent, ``adopt`` one revalidated fragment per shard, ``commit`` the
  reservation (or release every adopted fragment and ``abort`` on any
  conflict).  Every step is idempotent per global request id, so crash
  recovery can re-walk the protocol without double-counting or leaking.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.abstractions.requests import (
    DeterministicVC,
    HeterogeneousSVC,
    HomogeneousSVC,
    VirtualClusterRequest,
)
from repro.allocation.base import Allocation
from repro.cluster.ledger import CoreDemand, CoreLinkLedger, core_demands_of
from repro.cluster.partition import ClusterPartition
from repro.cluster.rebalance import ShardLoadRebalancer
from repro.cluster.shard import ShardHandle
from repro.allocation.resize import plan_in_place, resized_request
from repro.faults.failpoints import (
    FAILPOINTS,
    FP_COORD_AFTER_COMMIT,
    FP_COORD_AFTER_RESERVE,
    FP_COORD_BEFORE_COMMIT,
    FP_COORD_BEFORE_WAL,
    FP_COORD_RESIZE_AFTER_WAL,
    FP_COORD_RESIZE_BEFORE_WAL,
)
from repro.manager.network_manager import (
    RESIZE_IN_PLACE,
    RESIZE_REJECTED,
    RESIZE_REPLACED,
    NetworkManager,
)
from repro.obs.federation import federation_meta, merge_snapshots
from repro.obs.flightrec import flight_recorder
from repro.obs.instruments import cluster_instruments, global_registry
from repro.obs.tracing import SpanTracer, Trace, TraceContext, take_remote_spans
from repro.service.codec import allocation_from_dict, allocation_to_dict
from repro.service.errors import ConflictError, ServiceError
from repro.service.journal import Journal

logger = logging.getLogger(__name__)


def _tspan(trace: Optional[Trace], name: str):
    """A span on ``trace``, or a no-op scope when the request is unsampled."""
    return trace.span(name) if trace is not None else nullcontext()

#: Coordinator WAL record types.  Unknown ops are skipped at replay, same
#: forward-compatibility contract as ``recover_manager``.
OP_RINTENT = "rintent"    # keyed single-shard submit routed, awaiting decision
OP_RADMIT = "radmit"      # single-shard admission acknowledged by its shard
OP_RREJECT = "rreject"    # keyed rejection decided
OP_XINTENT = "xintent"    # two-phase round: reserved + fragments chosen
OP_XCOMMIT = "xcommit"    # two-phase round: all fragments adopted
OP_XABORT = "xabort"      # two-phase round: rolled back
OP_RELEASE = "release"    # tenant departure completed
OP_RSINTENT = "rsintent"  # resize routed to the owning shard, awaiting its ack
OP_RSDONE = "rsdone"      # resize decided (accepted records carry the new size)

ROUTE_LOCAL = "local"
ROUTE_CROSS = "cross_shard"
ROUTE_SPILL = "spill"
ROUTE_REJECT = "reject"
ROUTE_DEDUP = "dedup"

WAL_FILENAME = "coordinator.jsonl"


class CoordinatorError(ServiceError):
    """The coordinator could not produce a decision (outcome unknown)."""


class ClusterCoordinator:
    """Routes admissions over K shards; owns the global request-id space."""

    def __init__(
        self,
        partition: ClusterPartition,
        shards: Sequence[ShardHandle],
        *,
        directory: Optional[Path] = None,
        epsilon: float = 0.05,
        allocator=None,
        fsync: bool = False,
        reserve_ttl_s: float = 30.0,
        max_cross_retries: int = 2,
        decision_timeout_s: float = 30.0,
        rebalancer: Optional[ShardLoadRebalancer] = None,
        trace_sample_every: int = 64,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if len(shards) != partition.num_shards:
            raise ValueError(
                f"partition has {partition.num_shards} shards, got {len(shards)} handles"
            )
        self.partition = partition
        self.shards = list(shards)
        self.clock = clock
        self.decision_timeout_s = decision_timeout_s
        self.max_cross_retries = max_cross_retries
        self.replica = NetworkManager(partition.tree, epsilon=epsilon, allocator=allocator)
        self.ledger = CoreLinkLedger(
            partition.tree,
            partition.core_link_ids,
            epsilon=epsilon,
            reserve_ttl_s=reserve_ttl_s,
            clock=clock,
        )
        self.rebalancer = rebalancer
        self._lock = threading.RLock()
        self._next_gid = 1
        #: global id -> {shard index -> shard-local request id}.
        self._gid_map: Dict[int, Dict[int, int]] = {}
        #: (shard index, shard-local request id) -> global id.
        self._srid_map: Dict[Tuple[int, int], int] = {}
        #: client idempotency key -> decision payload.
        self._idem: Dict[str, Dict[str, Any]] = {}
        #: client keys with a decision currently in flight (double-submit guard).
        self._inflight: set = set()
        #: shard index -> VMs of submits routed there but not yet decided;
        #: routing discounts these so concurrent submits spread across
        #: shards instead of piling onto the momentarily-most-free one.
        self._inflight_vms: Dict[int, int] = {}
        self._shard_stats: Dict[int, Dict[str, Any]] = {}
        self.admitted_count = 0
        self.rejected_count = 0
        #: Per-outcome resize tallies — separate from the admission
        #: counters, same discipline as ``NetworkManager.resize_counts``.
        self.resize_counts: Dict[str, int] = {
            RESIZE_IN_PLACE: 0,
            RESIZE_REPLACED: 0,
            RESIZE_REJECTED: 0,
        }
        #: Monotonic resize round counter (restored from the WAL) so every
        #: round hands its shard a fresh idempotency key.
        self._resize_seq = 0
        self._wal: Optional[Journal] = None
        if directory is not None:
            directory = Path(directory)
            directory.mkdir(parents=True, exist_ok=True)
            self._wal = Journal(directory / WAL_FILENAME, fsync=fsync)
        self._obs = cluster_instruments()
        self._obs.bind_coordinator(self)
        #: End-to-end trace ring: every sampled admission becomes one trace
        #: whose local spans cover routing/reserve/commit and whose remote
        #: spans are the shard workers' allocator legs, all under a single
        #: cluster-wide trace id.
        self.tracer = SpanTracer(sample_every=trace_sample_every, keep=128)
        if self._wal is not None and self._wal.next_seq > 1:
            self._recover()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def active_tenancies(self) -> int:
        with self._lock:
            return len(self._gid_map)

    def fragments_of(self, gid: int) -> Optional[Dict[int, int]]:
        with self._lock:
            entry = self._gid_map.get(gid)
            return dict(entry) if entry is not None else None

    def allocation_of(self, gid: int) -> Optional[Allocation]:
        """The admitted global-id allocation for one tenant, or None."""
        with self._lock:
            tenancy = self.replica.get_tenancy(gid)
            return tenancy.allocation if tenancy is not None else None

    def shard_free_slots(self, shard_index: int) -> int:
        """Free slots of one shard, read from the replica (no shard RPC)."""
        view = self.shards[shard_index].view
        state = self.replica.state
        return sum(state.free_slots_under(agg) for agg in view.core_link_ids)

    def cached_shard_stat(self, shard_index: int, field: str) -> float:
        """Last collected shard summary value (0 before the first refresh)."""
        stats = self._shard_stats.get(shard_index)
        return float(stats.get(field, 0)) if stats else 0.0

    def refresh_shard_stats(self) -> List[Dict[str, Any]]:
        """Collect per-shard summaries; feeds the rebalancer and the gauges."""
        summaries = []
        for shard in self.shards:
            try:
                stats = shard.stats()
            except ServiceError as exc:
                stats = {
                    "shard": shard.index,
                    "free_slots": 0,
                    "total_slots": shard.view.total_slots,
                    "queue_depth": 0,
                    "active_tenancies": 0,
                    "max_occupancy": 0.0,
                    "error": str(exc),
                }
            self._shard_stats[shard.index] = stats
            summaries.append(stats)
        if self.rebalancer is not None:
            self.rebalancer.maybe_update(summaries)
        return summaries

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            payload = {
                "shards": self.num_shards,
                "admitted_total": self.admitted_count,
                "rejected_total": self.rejected_count,
                "active_tenancies": len(self._gid_map),
                "resizes": dict(self.resize_counts),
                "pending_reservations": self.ledger.pending_reservations,
                "core_occupancy": self.ledger.occupancies(),
                "replica_max_occupancy": self.replica.max_occupancy(),
                "free_slots": {
                    shard.index: self.shard_free_slots(shard.index)
                    for shard in self.shards
                },
            }
            if self.rebalancer is not None:
                payload["rebalancer"] = self.rebalancer.describe()
            return payload

    # ------------------------------------------------------------------
    # Observability: federation, traces, flight recorder
    # ------------------------------------------------------------------

    def cluster_metrics(self) -> Dict[str, Any]:
        """One federated snapshot: every shard's registry + the coordinator's.

        Per-shard series gain a ``shard`` label; families reported by two
        or more sources additionally get a ``shard="all"`` aggregate.  A
        shard whose scrape fails is skipped (and counted), so one dead
        worker never blanks the cluster view.
        """
        sources: Dict[str, Dict[str, Any]] = {}
        for shard in self.shards:
            try:
                sources[str(shard.index)] = shard.metrics_snapshot()
                self._obs.federation_scrape("ok")
            except ServiceError as exc:
                self._obs.federation_scrape("error")
                logger.warning(
                    "shard %d metrics scrape failed: %s", shard.index, exc
                )
        sources["coordinator"] = global_registry().snapshot()
        merged = merge_snapshots(sources)
        meta = federation_meta(sources)
        return {
            "metrics": merged,
            "meta": meta,
            "stats": self.stats(),
            "shard_stats": self.refresh_shard_stats(),
        }

    def recent_traces(self, limit: int = 16) -> List[Dict[str, Any]]:
        """Most recent end-to-end admission traces from the coordinator ring."""
        return self.tracer.recent(limit)

    def collect_obs_dumps(self) -> Dict[str, Any]:
        """Flight-recorder rings and trace buffers, cluster-wide."""
        shards: List[Dict[str, Any]] = []
        for shard in self.shards:
            try:
                shards.append(shard.obs_dump())
            except ServiceError as exc:
                shards.append({"shard": shard.index, "error": str(exc)})
        return {
            "coordinator": {
                "pid": os.getpid(),
                "flight": flight_recorder().events(),
                "traces": self.tracer.recent(),
            },
            "shards": shards,
        }

    def _collect_remote(
        self, trace: Optional[Trace], tctx: Optional[TraceContext]
    ) -> None:
        """Fold shard-side spans buffered for this trace into it."""
        if trace is None or tctx is None:
            return
        spans = take_remote_spans(tctx.trace_id)
        for span in spans:
            trace.add_remote(span)
        if spans:
            self._obs.trace_spans("shard", len(spans))

    def _finish_trace(
        self, trace: Optional[Trace], route: str, outcome: str
    ) -> None:
        if trace is None:
            return
        trace.annotate(route=route, outcome=outcome)
        self._obs.trace_spans("coordinator", len(trace.spans))
        self.tracer.finish(trace)

    @staticmethod
    def _flight(kind: str, **fields: Any) -> None:
        flight_recorder().record(kind, component="coordinator", **fields)

    # ------------------------------------------------------------------
    # The commit step
    # ------------------------------------------------------------------

    def _journal(
        self,
        op: str,
        *,
        undo: Optional[Callable[[], None]] = None,
        required: bool = True,
        **fields: Any,
    ) -> bool:
        """Append one WAL record (lock held); the one place an append may fail.

        WAL order is the order coordinator state changes, so every append
        sits between the step it records and the ack.  When it fails, a
        ``wal_error`` flight event names the op, and then:

        * ``required`` records (``rintent``, ``radmit``, ``xintent``,
          ``xcommit``, ``rsintent``, and a ``release`` some shard missed) are
          ones recovery cannot re-derive: ``undo`` puts shards and ledger
          back and :class:`CoordinatorError` reports the outcome as unknown —
          the caller retries with the same idempotency key;
        * roll-forward records (``rreject``, ``xabort``, ``rsdone``, and a
          ``release`` every shard applied) restate what recovery re-derives
          from the shard journals: log, return ``False``, carry on.

        An :class:`~repro.faults.failpoints.InjectedCrash` is a
        ``BaseException`` and passes straight through.
        """
        if self._wal is None:
            return True
        try:
            self._wal.append(op, **fields)
        except Exception as exc:
            gid = fields.get("gid")
            self._flight("wal_error", op=op, gid=gid, error=str(exc))
            if undo is not None:
                undo()
            if not required:
                logger.warning("gid=%s: %s not journaled: %s", gid, op, exc)
                return False
            raise CoordinatorError(
                f"{op} for gid {gid} not journaled ({type(exc).__name__}); "
                + ("rolled back" if undo is not None else "outcome unknown")
            ) from exc
        return True

    def _release_fragments(self, gid: int, fragments: Dict[int, int]) -> int:
        """Release ``{shard: srid}`` at the shards; returns how many failed.

        A failure is only logged: the fragment stays in that shard's
        journal and recovery settles it (presumed abort / release
        completion).
        """
        failures = 0
        for shard_index, srid in sorted(fragments.items()):
            try:
                self.shards[shard_index].release(srid)
            except ServiceError:
                failures += 1
                logger.warning(
                    "gid=%d: release on shard %d failed; recovery will settle it",
                    gid, shard_index,
                )
        return failures

    def _abort_round(self, gid: int, reason: str) -> None:
        """Drop a two-phase reservation and leave the audit trail (lock held)."""
        self.ledger.abort(gid)
        self._obs.reservation("abort")
        self._flight("reservation_abort", gid=gid, reason=reason)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route(self, request: VirtualClusterRequest) -> int:
        """Locality-first: the shard with the most weighted free capacity.

        Shards that can hold the whole cluster are preferred; when none
        can, the fullest-but-best shard still gets the request so its
        allocator produces the authoritative rejection (keeping per-shard
        decision streams identical to a standalone service's).
        """
        weights = (
            self.rebalancer.weights()
            if self.rebalancer is not None
            else (1.0,) * self.num_shards
        )
        scored = []
        for shard in self.shards:
            free = max(
                0,
                self.shard_free_slots(shard.index)
                - self._inflight_vms.get(shard.index, 0),
            )
            scored.append((free * weights[shard.index], free, shard.index))
        fitting = [row for row in scored if row[1] >= request.n_vms]
        pool = fitting if fitting else scored
        pool.sort(key=lambda row: (-row[0], row[2]))
        return pool[0][2]

    # ------------------------------------------------------------------
    # Submit
    # ------------------------------------------------------------------

    def submit(
        self,
        request: VirtualClusterRequest,
        idempotency_key: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Admit or reject one tenant request; returns the decision payload.

        Raises :class:`CoordinatorError` (or a transport
        :class:`ServiceError`) when the outcome is *unknown* — the caller
        retries with the same ``idempotency_key`` and converges on the
        journaled decision.
        """
        if idempotency_key is None:
            return self._submit(request, None, timeout)
        with self._lock:
            known = self._idem.get(idempotency_key)
            if known is not None:
                self._obs.routing(ROUTE_DEDUP)
                return dict(known, deduped=True)
            if idempotency_key in self._inflight:
                raise CoordinatorError(
                    f"key {idempotency_key!r} already has a decision in "
                    "flight; retry after it resolves"
                )
            self._inflight.add(idempotency_key)
        try:
            return self._submit(request, idempotency_key, timeout)
        finally:
            with self._lock:
                self._inflight.discard(idempotency_key)

    def _submit(
        self,
        request: VirtualClusterRequest,
        idempotency_key: Optional[str],
        timeout: Optional[float],
    ) -> Dict[str, Any]:
        started = self.clock()
        trace = self.tracer.start("cluster_admission")
        tctx: Optional[TraceContext] = None
        with self._lock:
            for _expired in self.ledger.expire():
                self._obs.reservation("expire")
            if idempotency_key is not None:
                known = self._idem.get(idempotency_key)
                if known is not None:
                    self._obs.routing(ROUTE_DEDUP)
                    return dict(known, deduped=True)
            gid = self._next_gid
            self._next_gid += 1
            if trace is not None:
                # The cluster-wide id must be unique across processes and
                # coordinator restarts within one run; pid + ring id is.
                tctx = TraceContext(f"{os.getpid()}-{trace.trace_id}")
                trace.annotate(gid=gid, trace_id_global=tctx.trace_id)
            with _tspan(trace, "route"):
                target = self._route(request)
            FAILPOINTS.hit(FP_COORD_BEFORE_WAL)
            # The shard sees a per-gid key, never the client's: retries
            # after a rolled-back round get a fresh gid and therefore a
            # clean shard-side dedup slate, while client-level dedup lives
            # in the coordinator's own WAL-rebuilt index.
            skey = f"r-{gid}"
            # Nothing has happened yet beyond burning a gid, so a lost
            # intent needs no undo; the caller retries.
            self._journal(
                OP_RINTENT, gid=gid, idem=idempotency_key, skey=skey, shard=target
            )
            pending = int(request.n_vms)
            self._inflight_vms[target] = self._inflight_vms.get(target, 0) + pending
        try:
            with _tspan(trace, f"shard{target}:submit"):
                decision = self.shards[target].submit(
                    request,
                    idempotency_key=skey,
                    timeout=self.decision_timeout_s if timeout is None else timeout,
                    trace=tctx,
                )
            self._collect_remote(trace, tctx)
            outcome = decision.get("outcome")
            if outcome == "admitted":
                return self._complete_local_admit(
                    gid, target, decision, idempotency_key, started, trace=trace
                )
            if outcome == "rejected":
                if self.num_shards > 1:
                    return self._submit_cross(
                        request, gid, idempotency_key, started,
                        first_reject=decision, trace=trace, tctx=tctx,
                    )
                return self._complete_reject(
                    gid, idempotency_key, decision.get("detail"), started,
                    ROUTE_REJECT, trace=trace,
                )
            raise CoordinatorError(
                f"shard {target} returned outcome {outcome!r} (ticket unresolved?)"
            )
        finally:
            with self._lock:
                remaining = self._inflight_vms.get(target, 0) - pending
                if remaining > 0:
                    self._inflight_vms[target] = remaining
                else:
                    self._inflight_vms.pop(target, None)

    def _complete_local_admit(
        self,
        gid: int,
        shard_index: int,
        decision: Dict[str, Any],
        idempotency_key: Optional[str],
        started: float,
        trace: Optional[Trace] = None,
    ) -> Dict[str, Any]:
        srid = decision["request_id"]
        local_allocation = decision.get("allocation")
        with self._lock:
            existing = self._srid_map.get((shard_index, srid))
            if existing is not None:
                # The shard deduplicated a retried key onto a tenancy the
                # coordinator already accounts for — reuse its global id.
                payload = self._decision(
                    existing, "admitted", decision.get("detail"), ROUTE_LOCAL
                )
                self._remember(idempotency_key, payload)
                self._obs.routing(ROUTE_DEDUP)
                self._finish_trace(trace, ROUTE_DEDUP, "admitted")
                return payload
            if local_allocation is None:
                raise CoordinatorError(
                    f"shard {shard_index} acked request {srid} without an allocation"
                )
            view = self.shards[shard_index].view
            global_allocation = view.allocation_to_global(local_allocation, request_id=gid)
            # The WAL must remember this admission or the shard must forget
            # it too (same discipline as the shard's own journal failures).
            self._journal(
                OP_RADMIT,
                undo=lambda: self._release_fragments(gid, {shard_index: srid}),
                gid=gid,
                shard=shard_index,
                srid=srid,
                idem=idempotency_key,
                allocation=allocation_to_dict(global_allocation),
            )
            self.replica.adopt(global_allocation)
            core = core_demands_of(global_allocation, self.partition.core_link_ids)
            if core:
                self.ledger.commit_direct(gid, core)
                self._obs.reservation("mirror")
            self._gid_map[gid] = {shard_index: srid}
            self._srid_map[(shard_index, srid)] = gid
            self.admitted_count += 1
            payload = self._decision(
                gid, "admitted", decision.get("detail"), ROUTE_LOCAL
            )
            self._remember(idempotency_key, payload)
            self._obs.routing(ROUTE_LOCAL)
            self._obs.observe_latency("local", self.clock() - started)
            self._flight(
                "cluster_decision", gid=gid, outcome="admitted",
                route=ROUTE_LOCAL, shard=shard_index,
            )
            self._finish_trace(trace, ROUTE_LOCAL, "admitted")
            return payload

    def _complete_reject(
        self,
        gid: int,
        idempotency_key: Optional[str],
        detail: Optional[str],
        started: float,
        route: str,
        trace: Optional[Trace] = None,
    ) -> Dict[str, Any]:
        with self._lock:
            if idempotency_key is not None:
                # Roll forward: a lost reject record only means a post-crash
                # retry re-runs the (deterministic) decision.
                self._journal(
                    OP_RREJECT, required=False, gid=gid, idem=idempotency_key
                )
            self.rejected_count += 1
            payload = self._decision(gid, "rejected", detail, route)
            self._remember(idempotency_key, payload)
            self._obs.routing(route)
            self._obs.observe_latency("local", self.clock() - started)
            self._flight(
                "cluster_decision", gid=gid, outcome="rejected",
                route=route, detail=detail,
            )
            self._finish_trace(trace, route, "rejected")
            return payload

    # ------------------------------------------------------------------
    # Cross-shard two-phase path
    # ------------------------------------------------------------------

    def _submit_cross(
        self,
        request: VirtualClusterRequest,
        gid: int,
        idempotency_key: Optional[str],
        started: float,
        first_reject: Dict[str, Any],
        trace: Optional[Trace] = None,
        tctx: Optional[TraceContext] = None,
    ) -> Dict[str, Any]:
        last_detail = first_reject.get("detail")
        for attempt in range(1 + self.max_cross_retries):
            fragment_key = f"xfrag-{gid}-r{attempt}"
            with self._lock:
                with _tspan(trace, "cross_allocate"):
                    allocation = self.replica.allocator.allocate(
                        self.replica.state, request, gid
                    )
                if allocation is None:
                    return self._complete_reject(
                        gid, idempotency_key, last_detail, started,
                        ROUTE_REJECT, trace=trace,
                    )
                core = core_demands_of(allocation, self.partition.core_link_ids)
                with _tspan(trace, "reserve"):
                    reserved = self.ledger.reserve(gid, core)
                if not reserved:
                    self._obs.reservation("reserve_denied")
                    self._flight("reservation_denied", gid=gid)
                    return self._complete_reject(
                        gid,
                        idempotency_key,
                        "core links at capacity (reservation denied)",
                        started,
                        ROUTE_REJECT,
                        trace=trace,
                    )
                self._obs.reservation("reserve")
                FAILPOINTS.hit(FP_COORD_AFTER_RESERVE)
                fragments = self._fragment(allocation)
                self._journal(
                    OP_XINTENT,
                    undo=lambda: self._abort_round(gid, "intent_not_journaled"),
                    gid=gid,
                    idem=idempotency_key,
                    fkey=fragment_key,
                    allocation=allocation_to_dict(allocation),
                    fragments={
                        str(shard_index): allocation_to_dict(fragment)
                        for shard_index, fragment in fragments.items()
                    },
                    core={
                        str(link_id): demand.to_dict()
                        for link_id, demand in core.items()
                    },
                )
            adopted: Dict[int, int] = {}
            failure: Optional[Exception] = None
            for shard_index in sorted(fragments):
                try:
                    with _tspan(trace, f"shard{shard_index}:adopt"):
                        adopted[shard_index] = self.shards[shard_index].adopt(
                            fragments[shard_index],
                            idempotency_key=fragment_key,
                            trace=tctx,
                        )
                    self._collect_remote(trace, tctx)
                except ServiceError as exc:  # a ConflictError retries below
                    failure = exc
                    break
            if failure is None:
                with self._lock:
                    FAILPOINTS.hit(FP_COORD_BEFORE_COMMIT)
                    with _tspan(trace, "commit"):
                        self.ledger.commit(gid)
                    self._obs.reservation("commit")

                    def uncommit() -> None:
                        # Without the commit record recovery would presume-
                        # abort this round — make the live process agree.
                        self._release_fragments(gid, adopted)
                        self.ledger.release(gid)
                        self._abort_round(gid, "commit_not_journaled")

                    self._journal(
                        OP_XCOMMIT,
                        undo=uncommit,
                        gid=gid,
                        idem=idempotency_key,
                        srids={
                            str(shard_index): srid
                            for shard_index, srid in adopted.items()
                        },
                    )
                    FAILPOINTS.hit(FP_COORD_AFTER_COMMIT)
                    self.replica.adopt(allocation)
                    self._gid_map[gid] = dict(adopted)
                    for shard_index, srid in adopted.items():
                        self._srid_map[(shard_index, srid)] = gid
                    self.admitted_count += 1
                    route = ROUTE_SPILL if len(fragments) == 1 else ROUTE_CROSS
                    payload = self._decision(gid, "admitted", None, route)
                    self._remember(idempotency_key, payload)
                    self._obs.routing(route)
                    self._obs.observe_latency("cross", self.clock() - started)
                    self._flight(
                        "cluster_decision", gid=gid, outcome="admitted",
                        route=route, shards=sorted(fragments),
                    )
                    self._finish_trace(trace, route, "admitted")
                    return payload
            # Roll back this round: release adopted fragments, abort the
            # reservation, journal the abort, then retry or give up.
            self._release_fragments(gid, adopted)
            with self._lock:
                self._abort_round(gid, f"{type(failure).__name__}: {failure}")
                # Roll forward: without the abort record recovery presumes
                # the abort from the dangling intent — same end state.
                self._journal(OP_XABORT, required=False, gid=gid)
            if isinstance(failure, ConflictError):
                last_detail = f"cross-shard conflict: {failure}"
                continue
            raise CoordinatorError(
                f"cross-shard round for gid={gid} failed: {failure}"
            ) from failure
        return self._complete_reject(
            gid,
            idempotency_key,
            last_detail or "cross-shard placement kept conflicting",
            started,
            ROUTE_REJECT,
            trace=trace,
        )

    def _fragment(self, allocation: Allocation) -> Dict[int, Allocation]:
        """Split a global allocation into per-shard sub-allocations.

        Each fragment carries the *exact* per-link demands the full-tree
        placement computed (including the shard's own aggregation uplinks),
        translated to shard-local ids, plus a sub-request sized to the VMs
        the shard hosts — so shard-side revalidation and release math see
        precisely this tenant's footprint on their links, never a
        recomputed (and differently-split) one.
        """
        partition = self.partition
        per_shard_machines: Dict[int, Dict[int, int]] = {}
        for machine_id, count in allocation.machine_counts.items():
            shard_index = partition.node_to_shard[machine_id]
            per_shard_machines.setdefault(shard_index, {})[machine_id] = count
        per_shard_links: Dict[int, Dict[int, Any]] = {
            shard_index: {} for shard_index in per_shard_machines
        }
        for link_id, demand in allocation.link_demands.items():
            shard_index = partition.node_to_shard[link_id]
            # A link of a shard no VM landed in cannot carry hose demand.
            per_shard_links.setdefault(shard_index, {})[link_id] = demand
        fragments: Dict[int, Allocation] = {}
        for shard_index, machines in per_shard_machines.items():
            view = self.shards[shard_index].view
            placed = sum(machines.values())
            sub_request, machine_vms = self._sub_request(
                allocation, machines, placed
            )
            fragments[shard_index] = Allocation(
                request=sub_request,
                request_id=allocation.request_id,
                host_node=view.tree.root_id,
                machine_counts={
                    view.from_global[machine_id]: count
                    for machine_id, count in machines.items()
                },
                link_demands={
                    view.from_global[link_id]: demand
                    for link_id, demand in per_shard_links.get(shard_index, {}).items()
                },
                machine_vms=(
                    {
                        view.from_global[machine_id]: vms
                        for machine_id, vms in machine_vms.items()
                    }
                    if machine_vms is not None
                    else None
                ),
            )
        return fragments

    @staticmethod
    def _sub_request(
        allocation: Allocation, machines: Dict[int, int], placed: int
    ) -> Tuple[VirtualClusterRequest, Optional[Dict[int, Tuple[int, ...]]]]:
        """A request describing only the VMs one shard hosts.

        For heterogeneous requests the hosted VM indices are remapped to a
        dense ``0..k-1`` range (ascending original index) so the fragment
        is a self-consistent ``HeterogeneousSVC``.
        """
        request = allocation.request
        if isinstance(request, HeterogeneousSVC):
            if allocation.machine_vms is None:
                raise CoordinatorError(
                    "heterogeneous allocation lacks VM identities; cannot fragment"
                )
            hosted: List[int] = []
            for machine_id in machines:
                hosted.extend(allocation.machine_vms[machine_id])
            hosted.sort()
            remap = {vm: index for index, vm in enumerate(hosted)}
            machine_vms = {
                machine_id: tuple(remap[vm] for vm in allocation.machine_vms[machine_id])
                for machine_id in machines
            }
            sub = HeterogeneousSVC(
                n_vms=len(hosted),
                demands=tuple(request.demands[vm] for vm in hosted),
            )
            return sub, machine_vms
        if isinstance(request, DeterministicVC):
            return DeterministicVC(n_vms=placed, bandwidth=request.bandwidth), None
        if isinstance(request, HomogeneousSVC):
            return HomogeneousSVC(n_vms=placed, mean=request.mean, std=request.std), None
        raise CoordinatorError(f"cannot fragment request type {type(request).__name__}")

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------

    def release(self, gid: int) -> bool:
        """Release one admitted tenant across all its shards; False if unknown.

        Raises :class:`CoordinatorError` when the outcome is *unknown*: a
        fragment could not be released at its shard AND the release record
        could not be journaled, so no durable store records the departure.
        The caller retries ``release(gid)`` — fragment releases and the
        WAL append are both idempotent.
        """
        with self._lock:
            entry = self._gid_map.get(gid)
            if entry is None:
                return False
            fragments = dict(entry)
        shard_failures = self._release_fragments(gid, fragments)
        with self._lock:
            # A shard that failed still journals its fragment as active, so
            # the WAL record is then the only durable evidence of the
            # departure: it must land before the maps change and the release
            # is acked (a retry re-runs the idempotent steps), or recovery
            # would re-adopt the surviving fragments.
            journaled = bool(shard_failures) and self._journal(OP_RELEASE, gid=gid)
            if self._gid_map.pop(gid, None) is None:
                return True  # lost a race with a concurrent release
            for shard_index, srid in fragments.items():
                self._srid_map.pop((shard_index, srid), None)
            tenancy = self.replica.get_tenancy(gid)
            if tenancy is not None:
                self.replica.release(tenancy)
            self.ledger.release(gid)
            if not journaled:
                # Roll forward: every fragment is gone from its shard
                # journal, so recovery's release-completion pass finishes
                # the job without this record.
                self._journal(OP_RELEASE, required=False, gid=gid)
        return True

    # ------------------------------------------------------------------
    # Resize
    # ------------------------------------------------------------------

    def resize(
        self,
        gid: int,
        new_n: Optional[int] = None,
        new_mu: Optional[float] = None,
        new_sigma: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Resize one admitted tenant at its owning shard.

        Single-fragment tenancies route to their shard, whose serialized
        resize path revalidates Eq. (6) on every link it owns.  Grows that
        would add effective bandwidth to the shared core links first pass a
        two-phase **delta reservation** on the ledger (estimated from an
        in-place plan on the replica), so a concurrent cross-shard round
        cannot race the grown footprint past ``O_L = 1``; the reservation
        is dropped once the ledger's committed entry is swapped to the
        post-resize footprint (or on any failure).  Cross-shard tenancies
        are rejected — shrinking or growing a placement that spans shards
        would need a cross-shard re-plan, not a resize.

        Raises :class:`CoordinatorError` when the outcome is unknown (the
        shard acked nothing durable); a retry with the same
        ``idempotency_key`` converges on the journaled decision.
        """
        started = self.clock()
        if idempotency_key is not None:
            with self._lock:
                known = self._idem.get(idempotency_key)
                if known is not None:
                    return dict(known, deduped=True)
                if idempotency_key in self._inflight:
                    raise CoordinatorError(
                        f"key {idempotency_key!r} already has a decision in "
                        "flight; retry after it resolves"
                    )
                self._inflight.add(idempotency_key)
        try:
            return self._resize(
                gid, new_n, new_mu, new_sigma, idempotency_key, started
            )
        finally:
            if idempotency_key is not None:
                with self._lock:
                    self._inflight.discard(idempotency_key)

    def _resize(
        self,
        gid: int,
        new_n: Optional[int],
        new_mu: Optional[float],
        new_sigma: Optional[float],
        idempotency_key: Optional[str],
        started: float,
    ) -> Dict[str, Any]:
        reserve_id = -gid  # synthetic ledger id for the delta hold
        with self._lock:
            for _expired in self.ledger.expire():
                self._obs.reservation("expire")
            entry = self._gid_map.get(gid)
            if entry is None:
                return {
                    "outcome": "unknown",
                    "request_id": gid,
                    "detail": f"no active tenancy with id {gid}",
                }
            if len(entry) > 1:
                return self._resize_rejected(
                    gid,
                    "tenancy spans multiple shards; resize requires a "
                    "single-shard placement",
                    idempotency_key,
                    started,
                )
            ((shard_index, srid),) = entry.items()
            tenancy = self.replica.get_tenancy(gid)
            if tenancy is None:
                raise CoordinatorError(
                    f"gid {gid} mapped to shard {shard_index} but absent "
                    "from the replica"
                )
            old_allocation = tenancy.allocation
            try:
                new_request = resized_request(
                    old_allocation.request,
                    new_n=new_n,
                    new_mu=new_mu,
                    new_sigma=new_sigma,
                )
            except ValueError as exc:
                return self._resize_rejected(
                    gid, str(exc), idempotency_key, started
                )
            # Two-phase delta: estimate the post-resize core footprint from
            # an in-place plan on the replica and reserve the positive
            # component deltas before asking the shard.  The estimate only
            # guards capacity — the committed footprint is reconciled from
            # the shard's actual post-resize allocation afterwards.
            delta = self._core_delta(old_allocation, new_request)
            if delta:
                reserved = self.ledger.reserve(reserve_id, delta)
                if not reserved:
                    self._obs.reservation("reserve_denied")
                    self._flight("reservation_denied", gid=gid, resize=True)
                    return self._resize_rejected(
                        gid,
                        "core links at capacity (resize delta denied)",
                        idempotency_key,
                        started,
                    )
                self._obs.reservation("reserve")
            self._resize_seq += 1
            rseq = self._resize_seq
            skey = f"rs-{gid}-{rseq}"
            FAILPOINTS.hit(FP_COORD_RESIZE_BEFORE_WAL)
            self._journal(
                OP_RSINTENT,
                undo=lambda: self.ledger.abort(reserve_id),
                gid=gid,
                shard=shard_index,
                srid=srid,
                skey=skey,
                rseq=rseq,
                idem=idempotency_key,
            )
        try:
            decision = self.shards[shard_index].resize(
                srid,
                new_n=new_n,
                new_mu=new_mu,
                new_sigma=new_sigma,
                idempotency_key=skey,
            )
        except ServiceError as exc:
            with self._lock:
                self.ledger.abort(reserve_id)
                self._obs.reservation("abort")
            raise CoordinatorError(
                f"resize of gid {gid} did not conclude at shard "
                f"{shard_index}: {exc}"
            ) from exc
        outcome = decision.get("outcome")
        with self._lock:
            self.ledger.abort(reserve_id)
            if outcome not in (RESIZE_IN_PLACE, RESIZE_REPLACED):
                if outcome != RESIZE_REJECTED:
                    raise CoordinatorError(
                        f"shard {shard_index} returned resize outcome "
                        f"{outcome!r} for gid {gid}"
                    )
                return self._resize_rejected(
                    gid, decision.get("detail"), idempotency_key, started
                )
            local_allocation = decision.get("allocation")
            if local_allocation is None:
                # The shard deduplicated the key onto an earlier round; its
                # live tenancy is the post-resize truth.
                local_allocation = self._shard_active(shard_index).get(srid)
                if local_allocation is None:
                    raise CoordinatorError(
                        f"shard {shard_index} acked resize of srid {srid} "
                        "without an allocation"
                    )
            view = self.shards[shard_index].view
            global_allocation = view.allocation_to_global(
                local_allocation, request_id=gid
            )
            # Roll forward: the shard has already committed the new size and
            # its journal is authoritative — recovery's shard reconciliation
            # re-derives the post-resize allocation without this record.
            self._journal(
                OP_RSDONE,
                required=False,
                gid=gid,
                shard=shard_index,
                srid=srid,
                outcome=outcome,
                idem=idempotency_key,
                allocation=allocation_to_dict(global_allocation),
            )
            FAILPOINTS.hit(FP_COORD_RESIZE_AFTER_WAL)
            old_tenancy = self.replica.get_tenancy(gid)
            if old_tenancy is not None:
                self.replica.release(old_tenancy)
            self.replica.adopt(global_allocation)
            self.ledger.release(gid)
            core = core_demands_of(global_allocation, self.partition.core_link_ids)
            if core:
                self.ledger.commit_direct(gid, core)
                self._obs.reservation("mirror")
            self.resize_counts[outcome] += 1
            payload = self._decision(
                gid, outcome, decision.get("detail"), ROUTE_LOCAL
            )
            self._remember(idempotency_key, payload)
            self._obs.observe_latency("resize", self.clock() - started)
            self._flight(
                "cluster_resize", gid=gid, outcome=outcome, shard=shard_index,
            )
            return payload

    def _resize_rejected(
        self,
        gid: int,
        detail: Optional[str],
        idempotency_key: Optional[str],
        started: float,
    ) -> Dict[str, Any]:
        """Settle a rejected resize: journal, tally, remember. Lock held."""
        # Roll forward: the old allocation stands either way; a post-crash
        # retry re-runs the (deterministic) decision.
        self._journal(
            OP_RSDONE, required=False, gid=gid, outcome=RESIZE_REJECTED,
            idem=idempotency_key,
        )
        self.resize_counts[RESIZE_REJECTED] += 1
        payload = self._decision(gid, RESIZE_REJECTED, detail, ROUTE_LOCAL)
        self._remember(idempotency_key, payload)
        self._obs.observe_latency("resize", self.clock() - started)
        self._flight(
            "cluster_resize", gid=gid, outcome=RESIZE_REJECTED, detail=detail,
        )
        return payload

    def _core_delta(
        self, old_allocation: Allocation, new_request
    ) -> Dict[int, CoreDemand]:
        """Positive core-link demand delta of an in-place resize estimate.

        Returns ``{}`` when no in-place plan exists on the replica (the
        shard may still accept via its fallback path — its own links are
        revalidated there; only the *extra* core headroom cannot be held in
        advance, which matches what the local-admit path risks today).
        """
        try:
            plan = plan_in_place(
                self.replica.state,
                self.replica.allocator,
                old_allocation,
                new_request,
            )
        except Exception:  # noqa: BLE001 — an estimate must never block
            plan = None
        if plan is None:
            return {}
        core_ids = self.partition.core_link_ids
        new_core = core_demands_of(plan.allocation, core_ids)
        old_core = core_demands_of(old_allocation, core_ids)
        delta: Dict[int, CoreDemand] = {}
        for link_id, new_demand in new_core.items():
            old_demand = old_core.get(link_id, CoreDemand())
            mean = max(0.0, new_demand.mean - old_demand.mean)
            variance = max(0.0, new_demand.variance - old_demand.variance)
            det = max(0.0, new_demand.deterministic - old_demand.deterministic)
            if mean > 0.0 or variance > 0.0 or det > 0.0:
                delta[link_id] = CoreDemand(
                    mean=mean, variance=variance, deterministic=det
                )
        return delta

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Stop the coordinator (shards are owned by the caller)."""
        if self._wal is not None:
            self._wal.close()

    def kill(self) -> None:
        """Chaos-harness death: drop the WAL handle without any drain."""
        if self._wal is not None:
            self._wal.close()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild coordinator state from the WAL + the recovered shards.

        The shards recover themselves (their own WALs) before the
        coordinator is constructed; this pass reconciles the coordinator's
        view with what each shard actually journaled: dangling two-phase
        rounds are presumed aborted, in-flight keyed submits resolve to
        the shard's journaled decision, half-done releases are finished,
        and shard tenancies the WAL never acknowledged are re-attached
        under fresh global ids.  Idempotent: recovering twice converges.

        Replica/ledger adoption is deferred until after the recovered set
        has been reconciled against the shards' live tenancies.  The WAL
        alone can over-state occupancy — a roll-forward release whose
        record was lost leaves a stale radmit whose slots the shard has
        since reused — and adopting stale tenancies into the replica
        first would conflict with the re-used slots.  Shard journals are
        authoritative for their own tenancies; only fragments still
        active at their shard are adopted.
        """
        assert self._wal is not None
        open_rintents: Dict[int, Dict[str, Any]] = {}
        open_xintents: Dict[int, Dict[str, Any]] = {}
        open_resizes: Dict[int, Dict[str, Any]] = {}
        closed_xintents: List[Dict[str, Any]] = []
        # gid -> (fragments {shard: srid}, global Allocation): the WAL's
        # view of what is admitted, before shard reconciliation.
        recovered: Dict[int, Tuple[Dict[int, int], Allocation]] = {}
        srid_to_gid: Dict[Tuple[int, int], int] = {}
        # Fragments of WAL-acknowledged releases: a shard that was down
        # for its fragment release still journals the tenancy as active,
        # and the orphan sweep must finish the release, not resurrect it.
        released_srids: set = set()

        def remember_admit(
            gid: int, srids: Dict[int, int], allocation: Allocation, key: Optional[str]
        ) -> None:
            if gid in recovered:
                return
            recovered[gid] = (dict(srids), allocation)
            for shard_index, srid in srids.items():
                srid_to_gid[(shard_index, srid)] = gid
            if key is not None:
                self._idem[key] = self._decision(gid, "admitted", None)
            self.admitted_count += 1

        max_gid = 0
        for record in Journal.iter_records(self._wal.path):
            op = record.get("op")
            gid = int(record.get("gid", 0))
            max_gid = max(max_gid, gid)
            if op == OP_RINTENT:
                open_rintents[gid] = record
            elif op == OP_RADMIT:
                key = record.get("idem")
                open_rintents.pop(gid, None)
                shard_index = int(record["shard"])
                srid = int(record["srid"])
                if (shard_index, srid) in srid_to_gid:
                    if key is not None:
                        existing = srid_to_gid[(shard_index, srid)]
                        self._idem[key] = self._decision(existing, "admitted", None)
                    continue
                allocation = allocation_from_dict(record["allocation"])
                remember_admit(gid, {shard_index: srid}, allocation, key)
            elif op == OP_RREJECT:
                key = record.get("idem")
                open_rintents.pop(gid, None)
                if key is not None:
                    self._idem[key] = self._decision(gid, "rejected", None)
                self.rejected_count += 1
            elif op == OP_XINTENT:
                open_xintents[gid] = record
            elif op == OP_XCOMMIT:
                open_rintents.pop(gid, None)
                intent = open_xintents.pop(gid, None)
                if intent is None:
                    continue
                allocation = allocation_from_dict(intent["allocation"])
                srids = {
                    int(shard_index): int(srid)
                    for shard_index, srid in record.get("srids", {}).items()
                }
                remember_admit(gid, srids, allocation, record.get("idem"))
            elif op == OP_XABORT:
                intent = open_xintents.pop(gid, None)
                if intent is not None:
                    closed_xintents.append(intent)
            elif op == OP_RELEASE:
                entry = recovered.pop(gid, None)
                open_resizes.pop(gid, None)
                if entry is None:
                    continue
                for shard_index, srid in entry[0].items():
                    srid_to_gid.pop((shard_index, srid), None)
                    released_srids.add((shard_index, srid))
            elif op == OP_RSINTENT:
                self._resize_seq = max(self._resize_seq, int(record.get("rseq", 0)))
                open_resizes[gid] = record
            elif op == OP_RSDONE:
                open_resizes.pop(gid, None)
                outcome = str(record.get("outcome", RESIZE_REJECTED))
                key = record.get("idem")
                if key is not None:
                    self._idem[key] = self._decision(gid, outcome, None)
                if outcome in self.resize_counts and not record.get("reconciled"):
                    self.resize_counts[outcome] += 1
                if "allocation" in record and gid in recovered:
                    srids, _stale = recovered[gid]
                    recovered[gid] = (
                        srids, allocation_from_dict(record["allocation"])
                    )
            # Unknown ops are skipped (forward compatibility).
        self._next_gid = max(self._next_gid, max_gid + 1)

        # Presumed abort: release fragments of rounds that never committed
        # (journaled aborts whose fragment releases may not have landed,
        # plus intents dangling at the crash).
        for intent in closed_xintents:
            self._presume_abort(intent, journal_abort=False)
        for gid, intent in sorted(open_xintents.items()):
            self._presume_abort(intent, journal_abort=True)

        # Resolve in-flight submits against the routed shard's journal.
        for gid, record in sorted(open_rintents.items()):
            shard_index = int(record["shard"])
            skey = record.get("skey")
            key = record.get("idem")
            found = self._shard_idem(shard_index, skey) if skey else None
            if found is None:
                continue  # never reached a shard; a retry starts fresh
            if found.get("outcome") == "admitted":
                srid = found.get("request_id")
                allocation = found.get("allocation")
                if srid is None or allocation is None:
                    # Journaled at the shard but since released — the
                    # coordinator rolled it back before the crash.
                    continue
                if (shard_index, int(srid)) in srid_to_gid:
                    if key is not None:
                        self._idem[key] = self._decision(
                            srid_to_gid[(shard_index, int(srid))],
                            "admitted", None,
                        )
                    continue
                view = self.shards[shard_index].view
                global_allocation = view.allocation_to_global(allocation, request_id=gid)
                self._wal.append(
                    OP_RADMIT,
                    gid=gid,
                    shard=shard_index,
                    srid=int(srid),
                    idem=key,
                    allocation=allocation_to_dict(global_allocation),
                )
                remember_admit(gid, {shard_index: int(srid)}, global_allocation, key)
            elif found.get("outcome") == "rejected" and self.num_shards == 1:
                # With one shard the shard's decision IS the decision.  In
                # a multi-shard cluster a local reject only means "did not
                # fit here" — the cross-shard path never concluded, so the
                # outcome stays unknown and a retry re-decides.
                if key is not None:
                    self._wal.append(OP_RREJECT, gid=gid, idem=key)
                    self._idem[key] = self._decision(gid, "rejected", None)
                self.rejected_count += 1

        # Finish releases that were acknowledged by some shards only (or
        # whose WAL record was lost in a roll-forward): a gid with ANY
        # fragment gone from its shard was being released — shards are the
        # source of truth, so drop it and release the remaining fragments.
        live_by_shard: Dict[int, Dict[int, Allocation]] = {
            shard.index: self._shard_active(shard.index) for shard in self.shards
        }
        active_by_shard = {
            shard_index: set(active) for shard_index, active in live_by_shard.items()
        }
        for gid in sorted(list(recovered)):
            fragments = recovered[gid][0]
            if all(
                srid in active_by_shard.get(shard_index, set())
                for shard_index, srid in fragments.items()
            ):
                continue
            for shard_index, srid in sorted(fragments.items()):
                if srid in active_by_shard.get(shard_index, set()):
                    try:
                        self.shards[shard_index].release(srid)
                        active_by_shard[shard_index].discard(srid)
                    except ServiceError:
                        logger.warning(
                            "recovery: gid=%d fragment on shard %d not releasable",
                            gid, shard_index,
                        )
                srid_to_gid.pop((shard_index, srid), None)
            recovered.pop(gid, None)
            self._wal.append(OP_RELEASE, gid=gid)

        # Resolve in-flight resizes against the owning shard's journal: an
        # intent without a done record means the crash hit between the two
        # appends — the shard either never saw the round (nothing changed)
        # or committed it (its journal is authoritative for the new size).
        for gid, record in sorted(open_resizes.items()):
            if gid not in recovered:
                continue
            shard_index = int(record["shard"])
            srid = int(record["srid"])
            skey = record.get("skey")
            key = record.get("idem")
            found = self._shard_idem(shard_index, skey) if skey else None
            if found is None:
                continue  # never reached the shard; a retry starts fresh
            outcome = found.get("outcome")
            if outcome in (RESIZE_IN_PLACE, RESIZE_REPLACED):
                live = live_by_shard.get(shard_index, {}).get(srid)
                if live is None:
                    continue  # the release pass already settled this gid
                view = self.shards[shard_index].view
                live_global = view.allocation_to_global(live, request_id=gid)
                self._wal.append(
                    OP_RSDONE,
                    gid=gid,
                    shard=shard_index,
                    srid=srid,
                    outcome=outcome,
                    idem=key,
                    allocation=allocation_to_dict(live_global),
                )
                srids = recovered[gid][0]
                recovered[gid] = (srids, live_global)
                if key is not None:
                    self._idem[key] = self._decision(gid, outcome, None)
                self.resize_counts[outcome] += 1
            elif outcome == RESIZE_REJECTED:
                self._wal.append(
                    OP_RSDONE, gid=gid, outcome=RESIZE_REJECTED, idem=key
                )
                if key is not None:
                    self._idem[key] = self._decision(gid, RESIZE_REJECTED, None)
                self.resize_counts[RESIZE_REJECTED] += 1

        # Shard-authoritative size reconciliation: whatever the WAL believes
        # a single-fragment tenant's allocation is, the shard's live tenancy
        # wins (a resize whose done record was rolled forward past a WAL
        # failure is re-derived here — no tenant stays half-sized).
        for gid in sorted(recovered):
            srids, allocation = recovered[gid]
            if len(srids) != 1:
                continue
            ((shard_index, srid),) = srids.items()
            live = live_by_shard.get(shard_index, {}).get(srid)
            if live is None:
                continue
            view = self.shards[shard_index].view
            live_global = view.allocation_to_global(live, request_id=gid)
            if self._footprint(live_global) != self._footprint(allocation):
                self._wal.append(
                    OP_RSDONE,
                    gid=gid,
                    shard=shard_index,
                    srid=srid,
                    outcome=RESIZE_IN_PLACE,
                    reconciled=True,
                    allocation=allocation_to_dict(live_global),
                )
                recovered[gid] = (srids, live_global)

        # Orphan sweep: shard tenancies the coordinator WAL never linked
        # (crash between shard ack and the radmit append).  Re-attach them
        # under fresh global ids so no acked-at-the-shard resource is lost.
        for shard in self.shards:
            active = self._shard_active(shard.index)
            for srid in sorted(active):
                if (shard.index, srid) in srid_to_gid:
                    continue
                if (shard.index, srid) in released_srids:
                    # The WAL acknowledged this tenant's release; the shard
                    # was down for its fragment — finish the release now.
                    try:
                        shard.release(srid)
                    except ServiceError:
                        logger.warning(
                            "recovery: released gid's fragment on shard %d "
                            "srid %d not releasable", shard.index, srid,
                        )
                    continue
                allocation = active[srid]
                gid = self._next_gid
                self._next_gid += 1
                global_allocation = shard.view.allocation_to_global(
                    allocation, request_id=gid
                )
                self._wal.append(
                    OP_RADMIT,
                    gid=gid,
                    shard=shard.index,
                    srid=srid,
                    idem=None,
                    allocation=allocation_to_dict(global_allocation),
                )
                remember_admit(gid, {shard.index: srid}, global_allocation, None)

        # Adopt the reconciled set: every fragment is live at its shard and
        # every shard is internally capacity-consistent, so the union fits
        # the replica by construction (machines and pod-internal links are
        # owned by exactly one shard each).
        for gid in sorted(recovered):
            srids, allocation = recovered[gid]
            self.replica.adopt(allocation)
            core = core_demands_of(allocation, self.partition.core_link_ids)
            if core:
                self.ledger.commit_direct(gid, core)
            self._gid_map[gid] = dict(srids)
            for shard_index, srid in srids.items():
                self._srid_map[(shard_index, srid)] = gid

    @staticmethod
    def _footprint(allocation: Allocation) -> Dict[str, Any]:
        """An allocation's capacity footprint, for shard reconciliation.

        ``host_node`` is excluded: a spilled tenant's fragment is rebuilt
        with the shard root as its host while the WAL keeps the replica's
        deeper pick — same links, same machines, not a size divergence.
        """
        payload = allocation_to_dict(allocation)
        payload.pop("host_node", None)
        return payload

    def _presume_abort(self, intent: Dict[str, Any], journal_abort: bool) -> None:
        """Release any adopted fragments of a round that never committed."""
        gid = int(intent["gid"])
        fragment_key = intent.get("fkey")
        if fragment_key is not None:
            for shard_text in intent.get("fragments", {}):
                shard_index = int(shard_text)
                found = self._shard_idem(shard_index, fragment_key)
                if (
                    found is not None
                    and found.get("outcome") == "admitted"
                    and found.get("request_id") is not None
                    and found.get("allocation") is not None
                ):
                    try:
                        self.shards[shard_index].release(int(found["request_id"]))
                    except ServiceError:
                        logger.warning(
                            "presumed abort: gid=%d fragment on shard %d not "
                            "releasable", gid, shard_index,
                        )
        self.ledger.abort(gid)
        if journal_abort and self._wal is not None:
            self._wal.append(OP_XABORT, gid=gid)

    def _shard_idem(self, shard_index: int, key: str) -> Optional[Dict[str, Any]]:
        try:
            return self.shards[shard_index].idem_lookup(key)
        except ServiceError:
            return None

    def _shard_active(self, shard_index: int) -> Dict[int, Allocation]:
        try:
            return self.shards[shard_index].active_allocations()
        except ServiceError:
            return {}

    # ------------------------------------------------------------------

    @staticmethod
    def _decision(
        gid: int,
        outcome: str,
        detail: Optional[str],
        route: Optional[str] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"outcome": outcome, "request_id": gid}
        if detail:
            payload["detail"] = detail
        if route is not None:
            payload["route"] = route
        return payload

    def _remember(self, key: Optional[str], payload: Dict[str, Any]) -> None:
        if key is not None:
            self._idem[key] = dict(payload)
