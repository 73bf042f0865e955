"""Cluster coordinator: locality-first routing + two-phase core-link commits.

The coordinator is the cluster's client-facing admission front-end.  It owns
three pieces of state, all guarded by one lock (the same single-owner
discipline as ``AdmissionService``):

* a **replica** ``NetworkManager`` over the *global* tree, kept in sync by
  applying every shard admission and release (translated to global ids).
  It is the only record of what the cluster has admitted, core links
  included: tenancies enter and leave it — together with the gid/srid maps —
  through :meth:`ClusterCoordinator._install` / ``_uninstall`` and nowhere
  else, live or in recovery.  Routing reads per-shard free slots from it
  without touching a shard, and the cross-shard allocator runs on it with
  the exact full-tree Lemma-1 moments — so a placement spanning shards
  carries the same per-link effective bandwidth ``E^L_i`` a single giant
  manager would compute, and Eq. (1) composes across shards (DESIGN.md §9);
* the **core-link ledger** (:mod:`repro.cluster.ledger`): TTL'd holds on
  aggregation-uplink capacity for in-flight two-phase rounds, priced on top
  of the replica's committed core-link load;
* a **write-ahead log** (reusing :class:`repro.service.journal.Journal`)
  whose record order is the order coordinator state changed.

Request lifecycle:

* **local** — routed to one shard (most free capacity, weighted by the
  advisory rebalancer; with a single shard this degenerates to a pass-
  through, which is what makes the one-shard cluster bit-identical to the
  direct service).  The shard's own serialized admission guards everything
  it touches, including its own core links; the coordinator installs the
  decision into the replica after the ack.
* **cross-shard** — placement computed on the replica, then a two-phase
  round: ``reserve`` effective bandwidth on the ledger (TTL'd), journal the
  intent, ``adopt`` one revalidated fragment per shard, then drop the hold
  (``commit``) and install the tenancy (or release every adopted fragment
  and ``abort`` on any conflict).  Every step is idempotent per global
  request id, so crash recovery can re-walk the protocol without
  double-counting or leaking.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from contextlib import contextmanager, nullcontext
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
            self.replica.state,
            partition.core_link_ids,
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
        #: gid -> allocation installed by recovery but not yet adopted into
        #: the replica (DESIGN.md §9.4); ``None`` outside recovery.
        self._awaiting: Optional[Dict[int, Allocation]] = None
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

    def _expire_holds(self) -> None:
        for _expired in self.ledger.expire():
            self._obs.reservation("expire")

    def _reserve(self, hold_id: int, demands: Dict[int, CoreDemand], **audit) -> bool:
        """Take a ledger hold, or leave the audit trail of the denial."""
        if self.ledger.reserve(hold_id, demands):
            self._obs.reservation("reserve")
            return True
        self._obs.reservation("reserve_denied")
        self._flight("reservation_denied", **audit)
        return False

    # ------------------------------------------------------------------
    # Tenancies in and out, keys, decisions: one path each (lock held)
    # ------------------------------------------------------------------

    def _install(self, gid: int, srids: Dict[int, int], allocation: Allocation) -> None:
        """The one way a tenancy enters coordinator state.

        Replica and both id maps change together; a gid that is already
        there is swapped (resize).  In recovery the replica half waits in
        ``_awaiting`` until the recovered set is reconciled with the shards.
        """
        self._uninstall(gid)
        if self._awaiting is None:
            self.replica.adopt(allocation)
        else:
            self._awaiting[gid] = allocation
        self._gid_map[gid] = dict(srids)
        for fragment in srids.items():
            self._srid_map[fragment] = gid

    def _uninstall(self, gid: int) -> Optional[Dict[int, int]]:
        """The one way out; returns the fragments held, None if unknown."""
        srids = self._gid_map.pop(gid, None)
        if srids is None:
            return None
        for fragment in srids.items():
            self._srid_map.pop(fragment, None)
        if self._awaiting is not None:
            self._awaiting.pop(gid, None)
        tenancy = self.replica.get_tenancy(gid)
        if tenancy is not None:
            self.replica.release(tenancy)
        return srids

    @contextmanager
    def _claim(self, key: Optional[str]):
        """Hold ``key`` in flight for one decision (takes the lock itself).

        Yields the remembered decision if there is one, else None; a second
        caller while the first is still deciding is refused.
        """
        if key is None:
            yield None
            return
        with self._lock:
            known = self._idem.get(key)
            if known is not None:
                yield dict(known, deduped=True)  # lock held: callers count it
                return
            if key in self._inflight:
                raise CoordinatorError(
                    f"key {key!r} already has a decision in flight; "
                    "retry after it resolves"
                )
            self._inflight.add(key)
        try:
            yield None
        finally:
            with self._lock:
                self._inflight.discard(key)

    def _decide(
        self, gid: int, outcome: str, route: str, *, key: Optional[str],
        started: float, path: str = "local", detail: Optional[str] = None,
        trace: Optional[Trace] = None, **audit: Any,
    ) -> Dict[str, Any]:
        """The one decision epilogue: tally, remember, observe, audit.

        ``path`` is the latency series; ``"resize"`` also selects the resize
        tallies and the ``cluster_resize`` event over the admission ones.
        """
        if path == "resize":
            self.resize_counts[outcome] += 1
        elif outcome == "admitted":
            self.admitted_count += 1
        else:
            self.rejected_count += 1
        payload = self._decision(gid, outcome, detail, route)
        self._remember(key, payload)
        self._obs.observe_latency(path, self.clock() - started)
        if outcome == RESIZE_REJECTED:  # == "rejected": both kinds say why
            audit["detail"] = detail
        if path == "resize":
            self._flight("cluster_resize", gid=gid, outcome=outcome, **audit)
        else:
            self._obs.routing(route)
            self._flight(
                "cluster_decision", gid=gid, outcome=outcome, route=route, **audit
            )
        self._finish_trace(trace, route, outcome)
        return payload

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
        with self._claim(idempotency_key) as known:
            if known is not None:
                self._obs.routing(ROUTE_DEDUP)
                return known
            return self._submit(request, idempotency_key, timeout)

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
            self._expire_holds()
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
                    gid, idempotency_key, decision.get("detail"), started, trace
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
            self._install(gid, {shard_index: srid}, global_allocation)
            return self._decide(
                gid, "admitted", ROUTE_LOCAL, key=idempotency_key,
                started=started, detail=decision.get("detail"), trace=trace,
                shard=shard_index,
            )

    def _complete_reject(
        self,
        gid: int,
        idempotency_key: Optional[str],
        detail: Optional[str],
        started: float,
        trace: Optional[Trace],
    ) -> Dict[str, Any]:
        with self._lock:
            if idempotency_key is not None:
                # Roll forward: a lost reject record only means a post-crash
                # retry re-runs the (deterministic) decision.
                self._journal(
                    OP_RREJECT, required=False, gid=gid, idem=idempotency_key
                )
            return self._decide(
                gid, "rejected", ROUTE_REJECT, key=idempotency_key,
                started=started, detail=detail, trace=trace,
            )

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
                        gid, idempotency_key, last_detail, started, trace
                    )
                core = core_demands_of(allocation, self.partition.core_link_ids)
                with _tspan(trace, "reserve"):
                    reserved = self._reserve(gid, core, gid=gid)
                if not reserved:
                    return self._complete_reject(
                        gid, idempotency_key,
                        "core links at capacity (reservation denied)",
                        started, trace,
                    )
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
                    self._install(gid, adopted, allocation)
                    return self._decide(
                        gid,
                        "admitted",
                        ROUTE_SPILL if len(fragments) == 1 else ROUTE_CROSS,
                        key=idempotency_key, started=started, path="cross",
                        trace=trace, shards=sorted(fragments),
                    )
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
            gid, idempotency_key,
            last_detail or "cross-shard placement kept conflicting",
            started, trace,
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
            if self._uninstall(gid) is None:
                return True  # lost a race with a concurrent release
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
        cannot race the grown footprint past ``O_L = 1``; the hold is
        dropped once the shard has answered, in the same lock hold that
        swaps the replica to the post-resize footprint.  Cross-shard tenancies
        are rejected — shrinking or growing a placement that spans shards
        would need a cross-shard re-plan, not a resize.

        Raises :class:`CoordinatorError` when the outcome is unknown (the
        shard acked nothing durable); a retry with the same
        ``idempotency_key`` converges on the journaled decision.
        """
        started = self.clock()
        with self._claim(idempotency_key) as known:
            if known is not None:
                return known
            return self._resize(
                gid, new_n, new_mu, new_sigma, idempotency_key, started
            )

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

        def rejected(detail: Optional[str]) -> Dict[str, Any]:
            """Settle a rejected resize: journal, tally, remember (lock held)."""
            # Roll forward: the old allocation stands either way; a post-crash
            # retry re-runs the (deterministic) decision.
            self._journal(
                OP_RSDONE, required=False, gid=gid, outcome=RESIZE_REJECTED,
                idem=idempotency_key,
            )
            return self._decide(
                gid, RESIZE_REJECTED, ROUTE_LOCAL, key=idempotency_key,
                started=started, path="resize", detail=detail,
            )

        with self._lock:
            self._expire_holds()
            entry = self._gid_map.get(gid)
            if entry is None:
                return {
                    "outcome": "unknown",
                    "request_id": gid,
                    "detail": f"no active tenancy with id {gid}",
                }
            if len(entry) > 1:
                return rejected(
                    "tenancy spans multiple shards; resize requires a "
                    "single-shard placement"
                )
            ((shard_index, srid),) = entry.items()
            # In the replica because in the maps: _install sets both or neither.
            old_allocation = self.replica.tenancy(gid).allocation
            try:
                new_request = resized_request(
                    old_allocation.request,
                    new_n=new_n,
                    new_mu=new_mu,
                    new_sigma=new_sigma,
                )
            except ValueError as exc:
                return rejected(str(exc))
            # Two-phase delta: estimate the post-resize core footprint from
            # an in-place plan on the replica and reserve the positive
            # component deltas before asking the shard.  The estimate only
            # guards capacity — the committed footprint is reconciled from
            # the shard's actual post-resize allocation afterwards.
            delta = self._core_delta(old_allocation, new_request)
            if delta and not self._reserve(reserve_id, delta, gid=gid, resize=True):
                return rejected("core links at capacity (resize delta denied)")
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
                return rejected(decision.get("detail"))
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
            self._journal_resized(
                gid, shard_index, srid, outcome, global_allocation,
                idem=idempotency_key,
            )
            FAILPOINTS.hit(FP_COORD_RESIZE_AFTER_WAL)
            self._install(gid, {shard_index: srid}, global_allocation)
            return self._decide(
                gid, outcome, ROUTE_LOCAL, key=idempotency_key, started=started,
                path="resize", detail=decision.get("detail"), shard=shard_index,
            )

    def _journal_resized(
        self, gid: int, shard_index: int, srid: int, outcome: str,
        allocation: Allocation, **fields: Any,
    ) -> None:
        """Journal an accepted resize (lock held), live or re-derived.

        Roll forward: the shard has already committed the new size and its
        journal is authoritative — recovery's shard reconciliation
        re-derives the post-resize allocation without this record.
        """
        self._journal(
            OP_RSDONE, required=False, gid=gid, shard=shard_index, srid=srid,
            outcome=outcome, **fields, allocation=allocation_to_dict(allocation),
        )

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
        coordinator is constructed; this pass replays the WAL through the
        same ``_install``/``_uninstall`` pair the live paths use, then
        reconciles the result with what each shard actually journaled:
        dangling two-phase rounds are presumed aborted, in-flight keyed
        submits resolve to the shard's journaled decision, half-done
        releases are finished, and shard tenancies the WAL never
        acknowledged are re-attached under fresh global ids.  Every record
        appended here restates what the shard journals re-derive, so each is
        a roll-forward append.  Idempotent: recovering twice converges.

        Replica adoption is deferred (``_awaiting``) until after the
        recovered set has been reconciled against the shards' live
        tenancies.  The WAL alone can over-state occupancy — a roll-forward
        release whose record was lost leaves a stale radmit whose slots the
        shard has since reused — and adopting stale tenancies into the
        replica first would conflict with the re-used slots.  Shard
        journals are authoritative for their own tenancies; only fragments
        still active at their shard are adopted.
        """
        assert self._wal is not None
        self._awaiting = {}
        open_rintents: Dict[int, Dict[str, Any]] = {}
        open_xintents: Dict[int, Dict[str, Any]] = {}
        open_resizes: Dict[int, Dict[str, Any]] = {}
        closed_xintents: List[Dict[str, Any]] = []
        # Fragments of WAL-acknowledged releases: a shard that was down
        # for its fragment release still journals the tenancy as active,
        # and the orphan sweep must finish the release, not resurrect it.
        released: Dict[Tuple[int, int], int] = {}

        max_gid = 0
        for record in Journal.iter_records(self._wal.path):
            op = record.get("op")
            gid = int(record.get("gid", 0))
            key = record.get("idem")
            max_gid = max(max_gid, gid)
            if op == OP_RINTENT:
                open_rintents[gid] = record
            elif op == OP_RADMIT:
                open_rintents.pop(gid, None)
                self._replay_admit(
                    gid, {int(record["shard"]): int(record["srid"])},
                    allocation_from_dict(record["allocation"]), key,
                )
            elif op == OP_RREJECT:
                open_rintents.pop(gid, None)
                self._remember(key, self._decision(gid, "rejected", None))
                self.rejected_count += 1
            elif op == OP_XINTENT:
                open_xintents[gid] = record
            elif op == OP_XCOMMIT:
                open_rintents.pop(gid, None)
                intent = open_xintents.pop(gid, None)
                if intent is not None:
                    srids = record.get("srids", {})
                    self._replay_admit(
                        gid, {int(index): int(srid) for index, srid in srids.items()},
                        allocation_from_dict(intent["allocation"]), key,
                    )
            elif op == OP_XABORT:
                intent = open_xintents.pop(gid, None)
                if intent is not None:
                    closed_xintents.append(intent)
            elif op == OP_RELEASE:
                open_resizes.pop(gid, None)
                for fragment in (self._uninstall(gid) or {}).items():
                    released[fragment] = gid
                if record.get("forget_keys"):
                    self._forget_admission(gid)
            elif op == OP_RSINTENT:
                self._resize_seq = max(self._resize_seq, int(record.get("rseq", 0)))
                open_resizes[gid] = record
            elif op == OP_RSDONE:
                open_resizes.pop(gid, None)
                outcome = str(record.get("outcome", RESIZE_REJECTED))
                self._remember(key, self._decision(gid, outcome, None))
                if outcome in self.resize_counts and not record.get("reconciled"):
                    self.resize_counts[outcome] += 1
                if "allocation" in record and gid in self._gid_map:
                    allocation = allocation_from_dict(record["allocation"])
                    self._install(gid, self._gid_map[gid], allocation)
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
                view = self.shards[shard_index].view
                self._replay_admit(
                    gid, {shard_index: int(srid)},
                    view.allocation_to_global(allocation, request_id=gid),
                    key, journal=True,
                )
            elif found.get("outcome") == "rejected" and self.num_shards == 1:
                # With one shard the shard's decision IS the decision.  In
                # a multi-shard cluster a local reject only means "did not
                # fit here" — the cross-shard path never concluded, so the
                # outcome stays unknown and a retry re-decides.
                if key is not None:
                    self._journal(OP_RREJECT, required=False, gid=gid, idem=key)
                    self._remember(key, self._decision(gid, "rejected", None))
                self.rejected_count += 1

        # Finish releases that were acknowledged by some shards only (or
        # whose WAL record was lost in a roll-forward): a gid with ANY
        # fragment gone from its shard was being released — shards are the
        # source of truth, so drop it and release the remaining fragments.
        # An admission that was never acked can end up here too (its radmit
        # outlived a failed append and the rollback that followed), so the
        # keys that answer "admitted" with the gid go with it, and the flag
        # on the record repeats that at the next restart.
        live_by_shard: Dict[int, Dict[int, Allocation]] = {
            shard.index: self._shard_active(shard.index) for shard in self.shards
        }
        for gid in sorted(self._gid_map):
            remaining = {
                shard_index: srid
                for shard_index, srid in self._gid_map[gid].items()
                if srid in live_by_shard.get(shard_index, {})
            }
            if len(remaining) == len(self._gid_map[gid]):
                continue
            self._release_fragments(gid, remaining)
            self._uninstall(gid)
            self._forget_admission(gid)
            self._journal(OP_RELEASE, required=False, gid=gid, forget_keys=True)

        # Resolve in-flight resizes against the owning shard's journal: an
        # intent without a done record means the crash hit between the two
        # appends — the shard either never saw the round (nothing changed)
        # or committed it (its journal is authoritative for the new size).
        for gid, record in sorted(open_resizes.items()):
            if gid not in self._gid_map:
                continue  # the release pass already settled this gid
            shard_index = int(record["shard"])
            srid = int(record["srid"])
            skey = record.get("skey")
            key = record.get("idem")
            found = self._shard_idem(shard_index, skey) if skey else None
            outcome = found.get("outcome") if found is not None else None
            live = live_by_shard.get(shard_index, {}).get(srid)
            if outcome in (RESIZE_IN_PLACE, RESIZE_REPLACED) and live is not None:
                view = self.shards[shard_index].view
                live_global = view.allocation_to_global(live, request_id=gid)
                self._journal_resized(
                    gid, shard_index, srid, outcome, live_global, idem=key
                )
                self._install(gid, self._gid_map[gid], live_global)
            elif outcome == RESIZE_REJECTED:
                self._journal(
                    OP_RSDONE, required=False, gid=gid, outcome=outcome, idem=key
                )
            else:
                continue  # never reached the shard; a retry starts fresh
            self._remember(key, self._decision(gid, outcome, None))
            self.resize_counts[outcome] += 1

        # Shard-authoritative size reconciliation: whatever the WAL believes
        # a single-fragment tenant's allocation is, the shard's live tenancy
        # wins (a resize whose done record was rolled forward past a WAL
        # failure is re-derived here — no tenant stays half-sized).
        for gid in sorted(self._gid_map):
            srids = self._gid_map[gid]
            if len(srids) != 1:
                continue
            ((shard_index, srid),) = srids.items()
            live = live_by_shard.get(shard_index, {}).get(srid)
            if live is None:
                continue
            view = self.shards[shard_index].view
            live_global = view.allocation_to_global(live, request_id=gid)
            if self._footprint(live_global) != self._footprint(self._awaiting[gid]):
                self._journal_resized(
                    gid, shard_index, srid, RESIZE_IN_PLACE, live_global,
                    reconciled=True,
                )
                self._install(gid, srids, live_global)

        # Orphan sweep: shard tenancies the coordinator WAL never linked
        # (crash between shard ack and the radmit append).  Re-attach them
        # under fresh global ids so no acked-at-the-shard resource is lost.
        for shard in self.shards:
            active = self._shard_active(shard.index)
            for srid in sorted(active):
                if (shard.index, srid) in self._srid_map:
                    continue
                if (shard.index, srid) in released:
                    # The WAL acknowledged this tenant's release; the shard
                    # was down for its fragment — finish the release now.
                    self._release_fragments(
                        released[shard.index, srid], {shard.index: srid}
                    )
                    continue
                gid = self._next_gid
                self._next_gid += 1
                self._replay_admit(
                    gid, {shard.index: srid},
                    shard.view.allocation_to_global(active[srid], request_id=gid),
                    None, journal=True,
                )

        # Adopt the reconciled set: every fragment is live at its shard and
        # every shard is internally capacity-consistent, so the union fits
        # the replica by construction (machines and pod-internal links are
        # owned by exactly one shard each).
        awaiting, self._awaiting = self._awaiting, None
        for gid in sorted(awaiting):
            self._install(gid, self._gid_map[gid], awaiting[gid])

    def _replay_admit(
        self, gid: int, srids: Dict[int, int], allocation: Allocation,
        key: Optional[str], journal: bool = False,
    ) -> None:
        """Recovery: one acknowledged admission enters the recovered set.

        A fragment some gid already owns only points ``key`` at that owner
        (the shard deduplicated a retried key); ``journal`` writes the
        radmit the crash kept from the WAL.
        """
        owner = next(
            (self._srid_map[f] for f in srids.items() if f in self._srid_map), None
        )
        if owner is None:
            if gid in self._gid_map:
                return
            if journal:
                ((shard_index, srid),) = srids.items()
                self._journal(
                    OP_RADMIT, required=False, gid=gid, shard=shard_index,
                    srid=srid, idem=key, allocation=allocation_to_dict(allocation),
                )
            self._install(gid, srids, allocation)
            self.admitted_count += 1
            owner = gid
        self._remember(key, self._decision(owner, "admitted", None))

    def _forget_admission(self, gid: int) -> None:
        """Drop every key that answers "admitted" with ``gid``."""
        stale = [
            key
            for key, known in self._idem.items()
            if known.get("request_id") == gid and known.get("outcome") == "admitted"
        ]
        for key in stale:
            del self._idem[key]

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
        adopted: Dict[int, int] = {}
        if fragment_key is not None:
            for shard_text in intent.get("fragments", {}):
                found = self._shard_idem(int(shard_text), fragment_key)
                if (
                    found is not None
                    and found.get("outcome") == "admitted"
                    and found.get("request_id") is not None
                    and found.get("allocation") is not None
                ):
                    adopted[int(shard_text)] = int(found["request_id"])
        self._release_fragments(gid, adopted)
        if journal_abort:
            self._journal(OP_XABORT, required=False, gid=gid)

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
