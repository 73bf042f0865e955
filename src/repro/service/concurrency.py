"""Thread-safe admission front-end: worker pool, tickets, statistics.

:class:`AdmissionService` is the serving layer around a single
:class:`~repro.manager.network_manager.NetworkManager`.  One condition
variable guards the manager, the queue and the journal together, so the
journal's record order is exactly the order state mutations were applied —
the invariant crash recovery relies on.  One method decides,
:meth:`AdmissionService._step`: it takes what the fair queue serves next, runs
the allocator under the lock (admission control is inherently serial: each
decision depends on the link state the previous one produced), and resolves
the submitter's :class:`Ticket`.  Worker threads call it in a loop; the async
front door (``submit(inline=True)``) calls it once on its own thread instead.

Durability ordering: state is mutated first, then the event is journaled,
both under the lock, and the ticket is resolved only after the journal
append returns.  A crash can lose at most the final un-acknowledged
operation; everything a client saw acknowledged is recoverable.  What
happens when the append itself fails is decided in exactly one place,
:meth:`AdmissionService._journaled`: the just-applied mutation is **rolled
back** before anyone sees it — memory never acknowledges what the journal
will not remember — and the service steps down the degradation ladder
(:mod:`repro.service.degrade`): mutations shed with typed, retryable
errors while a background probe record (``op: "note"``) tests the volume
until writes succeed again.

Idempotency: ``submit``, ``resize`` and ``adopt`` accept a client-generated
``idempotency_key``.  The key is persisted inside the decision's journal
record and kept in one :class:`~repro.service.journal.KeyWindow`, live and at
recovery alike, so a client retrying after a lost ack gets the original
decision back instead of a second allocation (the "no double-admit on
retry" guarantee).
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.abstractions.requests import VirtualClusterRequest
from repro.faults.failpoints import (
    FAILPOINTS,
    FP_QUEUE_ACCEPT,
    FP_RELEASE_AFTER_JOURNAL,
    FP_RELEASE_BEFORE_JOURNAL,
    FP_RESIZE_AFTER_JOURNAL,
    FP_RESIZE_BEFORE_JOURNAL,
    FP_WORKER_AFTER_JOURNAL,
    FP_WORKER_BEFORE_JOURNAL,
    InjectedCrash,
)
from repro.manager.network_manager import NetworkManager, Tenancy
from repro.network.snapshot import utilization_by_level
from repro.obs.flightrec import flight_recorder
from repro.obs.instruments import global_registry, service_instruments
from repro.obs.tracing import TraceContext, activate_context, record_remote_span
from repro.service.codec import (
    CodecError,
    request_from_dict,
    request_shape_key,
    request_to_dict,
)
from repro.service.degrade import (
    STATE_FAST_FAIL,
    STATE_FULL,
    STATE_READ_ONLY,
    DegradationLadder,
)
from repro.service.errors import (
    CODE_READ_ONLY,
    CODE_UNAVAILABLE,
    ConflictError,
    DegradedError,
    OverloadedError,
    OverQuotaError,
)
from repro.service.journal import (
    IDEMPOTENCY_CAPACITY,
    KIND_ADMISSION,
    KIND_RESIZE,
    DurabilityStore,
    KeyEntry,
    KeyWindow,
)
from repro.service.queue import (
    DEFAULT_TENANT,
    MODE_BATCH,
    MODE_ONLINE,
    MODES,
    FairRequestQueue,
    QueuedRequest,
)
from repro.service.recovery import snapshot_payload

logger = logging.getLogger(__name__)

OUTCOME_ADMITTED = "admitted"
OUTCOME_REJECTED = "rejected"
OUTCOME_EXPIRED = "expired"
OUTCOME_QUEUED = "queued"
OUTCOME_SHUTDOWN = "shutdown"
OUTCOME_ERROR = "error"

#: How long an idle worker sleeps before re-checking deadlines (seconds).
_IDLE_SWEEP_INTERVAL = 0.05

#: Queue-bound default: generous for benchmarks, finite so a stalled
#: worker pool cannot grow the heap without bound.
DEFAULT_MAX_QUEUE_DEPTH = 1024

#: Longest tenant id a client may name.
MAX_TENANT_LENGTH = 128

#: Tenants that get a ``tenant`` label value and a ``stats`` row of their own
#: (those given a weight at start-up, then first come); the rest report under
#: ``OTHER_TENANTS``, so client-chosen ids cannot grow either without bound.
TENANT_LABEL_CAP = 64
OTHER_TENANTS = "other"

#: Ops that mutate manager/journal state and are shed while degraded.
MUTATING_OPS = frozenset({"submit", "release", "resize", "snapshot"})


class LatencyWindow:
    """Bounded reservoir of recent latency samples for percentile stats.

    Percentiles are computed over only the last ``maxlen`` samples while the
    mean covers the whole lifetime — the ``window``/``window_limit`` fields
    in :meth:`summary` make that caveat machine-visible.  Every reported
    number is a finite ``float >= 0.0`` regardless of how few samples exist
    (empty and one-sample windows degrade to zeros / the single sample, not
    ``NaN`` or ``None``), so the payload is always JSON-safe.
    """

    def __init__(self, maxlen: int = 4096) -> None:
        self._maxlen = maxlen
        self._samples: deque = deque(maxlen=maxlen)
        self._count = 0
        self._total = 0.0

    def observe(self, seconds: float) -> None:
        # Non-finite or negative samples (clock anomalies) would poison
        # every percentile in the window; clamp them to zero instead.
        if not math.isfinite(seconds) or seconds < 0.0:
            seconds = 0.0
        self._samples.append(seconds)
        self._count += 1
        self._total += seconds

    def mean_ms(self) -> float:
        """Lifetime mean in milliseconds, 0.0 before the first sample: two
        reads, where :meth:`summary` sorts the whole window."""
        return 1000.0 * self._total / self._count if self._count else 0.0

    def summary(self, percentiles=(50, 90, 99)) -> Dict[str, float]:
        """Percentiles (over the window) and lifetime mean, in milliseconds."""
        result: Dict[str, float] = {"count": self._count}
        result["window"] = len(self._samples)
        result["window_limit"] = self._maxlen
        result["mean_ms"] = self.mean_ms()
        ordered = sorted(self._samples)
        for pct in percentiles:
            if not ordered:
                result[f"p{pct}_ms"] = 0.0
                continue
            rank = min(len(ordered) - 1, max(0, round(pct / 100.0 * (len(ordered) - 1))))
            result[f"p{pct}_ms"] = 1000.0 * ordered[rank]
        return result


@dataclass
class ServiceCounters:
    """Lifetime event counters of one service instance (not persisted)."""

    submitted: int = 0
    admitted: int = 0
    rejected: int = 0
    expired: int = 0
    released: int = 0
    retries: int = 0
    errors: int = 0
    #: Load-shedding responses (backpressure or degradation).
    shed: int = 0
    #: Submits answered from the idempotency index instead of the queue.
    deduped: int = 0
    #: Batch dispatches (each covers one or more coalesced requests).
    batches: int = 0
    #: Requests that rode in a batch behind its leader.
    coalesced: int = 0
    #: Accepted resizes (in-place + replaced).  Kept apart from
    #: ``admitted``/``rejected`` so ``rejection_rate`` never moves.
    resized: int = 0
    #: Resizes that found no feasible new size (old allocation kept).
    resize_rejected: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class Ticket:
    """A client's handle on one submitted request."""

    ticket_id: int
    submitted_at: float
    priority: int = 0
    deadline: Optional[float] = None
    outcome: Optional[str] = None
    request_id: Optional[int] = None
    detail: Optional[str] = None
    latency: Optional[float] = None
    _done: threading.Event = field(default_factory=threading.Event, repr=False)
    _callbacks: List[Callable[["Ticket"], None]] = field(
        default_factory=list, repr=False
    )
    _cb_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def resolve(
        self,
        outcome: str,
        request_id: Optional[int] = None,
        detail: Optional[str] = None,
        latency: Optional[float] = None,
    ) -> None:
        self.outcome = outcome
        self.request_id = request_id
        self.detail = detail
        self.latency = latency
        with self._cb_lock:
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def add_done_callback(self, callback: Callable[["Ticket"], None]) -> None:
        """Run ``callback(self)`` once resolved (immediately if already done).

        The async front door bridges tickets to ``asyncio`` futures through
        this, so a submit a worker decides never blocks the event loop.
        The lock makes registration race-free against a concurrent resolve:
        the callback fires exactly once, on whichever side wins.
        """
        with self._cb_lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the request is decided; False on timeout."""
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def describe(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "ticket": self.ticket_id,
            "outcome": self.outcome if self.done else OUTCOME_QUEUED,
        }
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        if self.detail:
            payload["detail"] = self.detail
        if self.latency is not None:
            payload["latency_ms"] = 1000.0 * self.latency
        return payload


class AdmissionService:
    """Durable, concurrent admission control over one ``NetworkManager``.

    Parameters
    ----------
    manager:
        The (single-threaded) manager to serve; may already hold state,
        e.g. when constructed by :func:`repro.service.recovery.recover_manager`.
    store:
        Optional :class:`DurabilityStore`; without it the service runs
        in-memory only (useful for benchmarks and simulations).
    mode:
        ``"online"`` drops rejected requests immediately; ``"batch"``
        parks them for retry on departures (Section VI-B semantics).
    workers:
        Worker threads draining the queue.  Admission decisions serialize
        on the manager lock regardless; extra workers overlap protocol
        handling, journaling and ticket resolution with allocator runs.
    max_queue_depth:
        Bounded-queue backpressure: submits beyond this many waiting
        requests (ready + parked) shed with :class:`OverloadedError`
        instead of growing the heap.  ``None`` disables the bound.
    default_timeout_s:
        Server-side deadline applied to submits that carry no
        ``timeout_s`` of their own (``None`` = no default deadline).
    degradation:
        The :class:`DegradationLadder` guarding journal health; defaults
        to a fresh ladder when a store is present.
    idempotency_index:
        The :class:`KeyWindow` recovered from the journal (see
        :func:`repro.service.recovery.recover_manager`): the service keeps
        deciding into it, so retries of pre-crash decisions stay idempotent.
        Without one the service starts an empty window.
    batch_max:
        Upper bound on admission-batch size.  A worker that pops a request
        keeps popping *consecutive* queue entries with the same shape key
        (up to this many) and drives them through one allocator batch
        context under one hold of the service lock — decisions bit-identical
        to one-at-a-time processing.  (The DP tables a run of one shape
        reuses are kept by the allocator whether or not a batch forms.)
        ``1`` disables coalescing.
    batch_linger_s:
        With the queue empty and a batch still below ``batch_max``, how
        long the worker waits for more same-shape arrivals before
        dispatching.  ``0`` dispatches immediately (latency-optimal).
    tenant_quota:
        Per-tenant queue bound: a tenant with this many waiting requests
        has further submits shed with :class:`OverQuotaError` (carrying a
        ``retry_after`` hint) while other tenants continue unharmed.
        ``None`` disables per-tenant quotas.
    tenant_weights:
        Deficit-round-robin weights per tenant name (default 1): a tenant
        with weight ``w`` is served up to ``w`` requests per rotation lap.
    """

    #: Tickets kept for ``status`` (a constant; tests lower it in a subclass).
    ticket_capacity = IDEMPOTENCY_CAPACITY

    def __init__(
        self,
        manager: NetworkManager,
        store: Optional[DurabilityStore] = None,
        mode: str = MODE_ONLINE,
        workers: int = 2,
        clock: Callable[[], float] = time.monotonic,
        latency_window: int = 4096,
        max_queue_depth: Optional[int] = DEFAULT_MAX_QUEUE_DEPTH,
        default_timeout_s: Optional[float] = None,
        degradation: Optional[DegradationLadder] = None,
        idempotency_index: Optional[KeyWindow] = None,
        batch_max: int = 1,
        batch_linger_s: float = 0.0,
        tenant_quota: Optional[int] = None,
        tenant_weights: Optional[Dict[str, int]] = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown service mode {mode!r}; choose from {MODES}")
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {batch_max}")
        if batch_linger_s < 0.0:
            raise ValueError(f"batch_linger_s must be >= 0, got {batch_linger_s}")
        if tenant_quota is not None and tenant_quota < 1:
            raise ValueError(f"tenant_quota must be >= 1, got {tenant_quota}")
        self.manager = manager
        self.store = store
        self.mode = mode
        self.workers = workers
        self.clock = clock
        self.max_queue_depth = max_queue_depth
        self.default_timeout_s = default_timeout_s
        self.batch_max = batch_max
        self.batch_linger_s = batch_linger_s
        self.tenant_quota = tenant_quota
        self.counters = ServiceCounters()
        self.latencies = LatencyWindow(maxlen=latency_window)
        self._cond = threading.Condition()
        self._queue = FairRequestQueue(mode, weights=tenant_weights)
        self._known_tenants: set = set()
        self._tickets: "OrderedDict[int, Ticket]" = OrderedDict()
        self._next_ticket = 1
        self._threads: List[threading.Thread] = []
        self._running = False
        self._started_at = self.clock()
        self._degradation = degradation or (
            DegradationLadder(clock=clock) if store is not None else None
        )
        #: Set when a worker died to an injected crash (chaos harness).
        self.crashed = False
        #: Keyed decisions, in journal order (and submits still pending).
        self._keys = idempotency_index if idempotency_index is not None else KeyWindow()
        # Mirror every counter/latency observation onto the process-global
        # metric registry and expose queue depth, uptime and the network
        # guarantee-health gauges through it (pull-style: the callbacks run
        # only when the metrics endpoint renders).
        self._obs = service_instruments()
        self._obs.bind_service(self)
        for tenant in tenant_weights or ():
            self._tenant_label(tenant)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "AdmissionService":
        with self._cond:
            if self._running:
                return self
            self._running = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"admission-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        logger.info(
            "admission service started: mode=%s workers=%d durable=%s",
            self.mode, self.workers, self.store is not None,
        )
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop workers and resolve every still-queued ticket as shutdown."""
        with self._cond:
            if not self._running:
                return
            self._running = False
            abandoned = self._queue.drain()
            self._cond.notify_all()
        for entry in abandoned:
            self._resolve(entry, OUTCOME_SHUTDOWN, detail="service stopped")
        for thread in self._threads:
            thread.join(timeout)
        self._threads.clear()
        logger.info(
            "admission service stopped: %d queued request(s) abandoned", len(abandoned)
        )

    def kill(self, timeout: float = 2.0) -> None:
        """Simulate a crash: stop workers *without* resolving anything.

        Unlike :meth:`stop`, queued tickets stay unresolved and no shutdown
        snapshot is taken — exactly what a power cut leaves behind.  Used
        by the chaos harness; the journal on disk is already crash-ready
        because every append is flushed before it is acknowledged.
        """
        with self._cond:
            self._running = False
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout)
        self._threads.clear()

    def __enter__(self) -> "AdmissionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._running

    @property
    def started_at(self) -> float:
        """Clock reading at construction (uptime reference for gauges)."""
        return self._started_at

    def queue_depths(self) -> Tuple[int, int]:
        """Current ``(ready, parked)`` queue depths, read under the lock."""
        with self._cond:
            return self._queue.ready_count, self._queue.parked_count

    def tenant_depth(self, tenant: str) -> int:
        """One tenant's waiting requests (ready + parked), under the lock."""
        with self._cond:
            return self._queue.tenant_depth(tenant)

    def tenant_depths(self) -> Dict[str, int]:
        """Waiting requests per tenant, read under the lock."""
        with self._cond:
            return self._queue.tenant_depths()

    def coalesce_ratio(self) -> float:
        """Fraction of processed requests that rode in a batch behind its leader."""
        processed = self.counters.batches + self.counters.coalesced
        return self.counters.coalesced / processed if processed else 0.0

    def _tenant_label(self, tenant: str) -> str:
        """The ``tenant`` label value one tenant reports under (under lock).

        Its own name for the first ``TENANT_LABEL_CAP`` tenants — whose
        queue-depth gauge is bound here, on first sight — and
        ``OTHER_TENANTS`` for everyone after.  Only reporting is pooled:
        lanes, quotas and weights always go by the real id.
        """
        known = self._known_tenants
        if tenant in known:
            return tenant
        if len(known) < TENANT_LABEL_CAP and tenant != OTHER_TENANTS:
            known.add(tenant)
            self._obs.bind_tenant_depth(
                tenant, lambda: float(self.tenant_depth(tenant))
            )
            return tenant
        self._obs.bind_tenant_depth(OTHER_TENANTS, self._other_tenants_depth)
        return OTHER_TENANTS

    def _other_tenants_depth(self) -> float:
        """Waiting requests of every tenant without a label of its own."""
        known = self._known_tenants
        return float(
            sum(d for t, d in self.tenant_depths().items() if t not in known)
        )

    def _count(self, event: str, amount: int = 1) -> None:
        """Bump one lifetime counter and its registry mirror together."""
        setattr(self.counters, event, getattr(self.counters, event) + amount)
        self._obs.event(event, amount)

    def _observe_latency(self, seconds: float) -> None:
        self.latencies.observe(seconds)
        self._obs.observe_latency(seconds)

    # ------------------------------------------------------------------
    # Degradation ladder
    # ------------------------------------------------------------------

    @property
    def degradation(self) -> Optional[DegradationLadder]:
        return self._degradation

    def degradation_state(self) -> str:
        return self._degradation.state if self._degradation else STATE_FULL

    def degradation_code(self) -> int:
        """Numeric ladder position for the degradation-state gauge."""
        return self._degradation.code if self._degradation else 0

    def gate(self, op: str) -> None:
        """Shed one op if the current degradation rung forbids it.

        ``full`` passes everything; ``read_only`` sheds mutations;
        ``fast_fail`` sheds everything except ``ping``/``shutdown``/``obs``
        (the flight recorder exists to triage exactly this state, so the
        dump op must survive it).
        Raises :class:`DegradedError` carrying the ladder's current
        ``retry_after`` hint.  Called by the TCP dispatcher for every op
        and by ``submit``/``release`` themselves (the in-process API).
        """
        ladder = self._degradation
        if ladder is None or ladder.state == STATE_FULL:
            return
        if ladder.state == STATE_FAST_FAIL and op not in ("ping", "shutdown", "obs"):
            self._shed(CODE_UNAVAILABLE)
            raise DegradedError(
                f"service is failing fast (journal unavailable: {ladder.last_error})",
                code=CODE_UNAVAILABLE,
                retry_after=ladder.retry_after(),
            )
        if ladder.state == STATE_READ_ONLY and op in MUTATING_OPS:
            self._shed(CODE_READ_ONLY)
            raise DegradedError(
                f"service is read-only (journal failing: {ladder.last_error})",
                code=CODE_READ_ONLY,
                retry_after=ladder.retry_after(),
            )

    def _shed(self, reason: str) -> None:
        self._count("shed")
        self._obs.shed_reason(reason)

    def _degrade(self, error: BaseException) -> None:
        """Step down the ladder after a journal append failed (under lock)."""
        ladder = self._degradation
        if ladder is None:
            return
        before = ladder.state
        ladder.record_failure(error)
        if ladder.state != before:
            self._obs.degradation_transition(ladder.state)
            recorder = flight_recorder()
            recorder.record(
                "degradation",
                from_state=before,
                to_state=ladder.state,
                error=f"{type(error).__name__}: {error}",
            )
            recorder.maybe_dump("degradation")
            logger.warning(
                "degradation: %s -> %s after journal failure: %s",
                before, ladder.state, error,
            )

    def _recover_degradation(self) -> None:
        """Step back to full service after a probe succeeded (under lock)."""
        ladder = self._degradation
        if ladder is None or not ladder.degraded:
            return
        before = ladder.state
        ladder.record_success()
        self._obs.degradation_transition(ladder.state)
        flight_recorder().record(
            "degradation", from_state=before, to_state=ladder.state, recovered=True
        )
        logger.info("degradation: %s -> %s (journal probe succeeded)", before, ladder.state)

    def _probe_journal(self) -> None:
        """While degraded, test the journal with a replay-invisible note."""
        if self.store is not None and self._journaled(
            "note", lambda: self.store.log_note("degradation probe")
        ):
            self._recover_degradation()

    def _journaled(
        self,
        op: str,
        append: Callable[[], Any],
        *,
        undo: Optional[Callable[[], None]] = None,
        degrade: bool = True,
        before: Optional[str] = None,
        after: Optional[str] = None,
        **event: Any,
    ) -> bool:
        """The commit step: journal a mutation already applied (under lock).

        Every durable write goes through here, so "what happens when an
        append fails" is decided once.  The caller has mutated memory;
        ``append`` writes the record.  If it raises:

        * a record with an ``undo`` is one recovery cannot do without
          (admit, adopt, release, resize): the journal will not remember the
          mutation, so memory must forget it — ``undo`` restores the pre-op
          state before anyone is acknowledged, and the caller gets a typed
          :class:`DegradedError` carrying the ladder's ``retry_after``;
        * a record without one is a loss recovery tolerates (a ``reject``
          never touched link state, the probe ``note`` is replay-invisible,
          a snapshot is only a replay shortcut): the operation continues and
          ``False`` is returned.

        Either way the failure steps the degradation ladder, counts one
        ``errors`` and leaves exactly one ``wal_error`` flight event naming
        ``op`` (plus ``event``).  ``degrade=False`` is for the snapshot file
        only: the ladder tracks *journal* health, its probe would succeed
        while snapshots keep failing, and the service would flap read-only
        after every mutation.

        ``before``/``after`` are the crash failpoints bracketing the append;
        an :class:`InjectedCrash` is a ``BaseException`` and passes straight
        through, like the process death it simulates.  Without a store the
        step is a no-op.
        """
        if self.store is None:
            return True
        if before is not None:
            FAILPOINTS.hit(before)
        try:
            append()
        except Exception as exc:
            if undo is not None:
                undo()
            if degrade:
                self._degrade(exc)
            self._count("errors")
            flight_recorder().record(
                "wal_error", op=op, error=f"{type(exc).__name__}: {exc}", **event
            )
            logger.warning(
                "%s not journaled (%s); %s",
                op, exc, "rolled back" if undo is not None else "continuing",
            )
            if undo is None:
                return False
            raise DegradedError(
                f"{op} not journaled ({type(exc).__name__}); rolled back",
                code=CODE_READ_ONLY,
                retry_after=(
                    self._degradation.retry_after() if self._degradation else 1.0
                ),
            ) from exc
        if after is not None:
            FAILPOINTS.hit(after)
        return True

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------

    def submit(
        self,
        request: Union[VirtualClusterRequest, Dict[str, Any]],
        priority: int = 0,
        timeout_s: Optional[float] = None,
        wait: bool = True,
        wait_timeout: Optional[float] = None,
        idempotency_key: Optional[str] = None,
        trace_context: Optional[TraceContext] = None,
        tenant: Optional[str] = None,
        inline: bool = False,
    ) -> Ticket:
        """Enqueue a tenant request; optionally block for the decision.

        ``timeout_s`` is the request's *deadline* relative to now: in batch
        mode a parked request expires once it passes; in online mode it
        only matters if the request expires before a worker first reaches
        it.  Without an explicit value the service's ``default_timeout_s``
        applies.  ``wait_timeout`` bounds how long *this call* blocks — the
        request itself stays queued when the wait times out.

        ``inline`` (the event loop's path) wakes no worker: the calling thread
        runs one :meth:`_step` itself.  The fair queue still picks who that
        step serves; a ticket it left undecided gets a worker woken for it.

        ``idempotency_key`` makes retries safe: a key already decided (in
        this process or recovered from the journal) returns the original
        ticket/decision instead of enqueueing a second copy.

        ``tenant`` names the fair-queue lane the request bills to (default
        ``"default"``); scheduling across tenants is weighted deficit
        round-robin and the per-tenant quota, when configured, sheds a
        tenant's overflow with :class:`OverQuotaError` — a *targeted*
        backpressure that leaves other tenants' admission rate untouched.
        It arrives from the wire unchecked, so anything but a string of 1 to
        ``MAX_TENANT_LENGTH`` characters is a :class:`CodecError` here.

        Raises :class:`DegradedError` while the ladder forbids mutations
        and :class:`OverloadedError` when the queue bound is reached.
        """
        if isinstance(request, dict):
            request = request_from_dict(request)
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        if tenant is None:
            tenant = DEFAULT_TENANT
        elif not (isinstance(tenant, str) and 0 < len(tenant) <= MAX_TENANT_LENGTH):
            raise CodecError(
                f"tenant must be a string of 1 to {MAX_TENANT_LENGTH} characters"
            )
        now = self.clock()
        deadline = now + timeout_s if timeout_s is not None else None
        with self._cond:
            if not self._running:
                raise RuntimeError("service is not running")
            dedup = self._deduplicate(idempotency_key, now)
            if dedup is None:
                self.gate("submit")
                depth = len(self._queue)
                saturated = FAILPOINTS.hit(FP_QUEUE_ACCEPT) is not None
                if saturated or (
                    self.max_queue_depth is not None and depth >= self.max_queue_depth
                ):
                    self._shed(OverloadedError.code)
                    raise OverloadedError(
                        f"admission queue is full ({depth} waiting)",
                        retry_after=self._overload_retry_after(depth),
                    )
                if self.tenant_quota is not None:
                    tenant_depth = self._queue.tenant_depth(tenant)
                    if tenant_depth >= self.tenant_quota:
                        self._shed(OverQuotaError.code)
                        self._obs.tenant_shed(self._tenant_label(tenant))
                        raise OverQuotaError(
                            f"tenant {tenant!r} is at its queue quota "
                            f"({tenant_depth}/{self.tenant_quota} waiting)",
                            retry_after=self._overload_retry_after(tenant_depth),
                        )
                self._tenant_label(tenant)
                ticket = Ticket(
                    ticket_id=self._next_ticket,
                    submitted_at=now,
                    priority=priority,
                    deadline=deadline,
                )
                self._next_ticket += 1
                self._remember_ticket(ticket)
                self._keys.pend(idempotency_key, ticket.ticket_id)
                self._count("submitted")
                entry = QueuedRequest(
                    ticket_id=ticket.ticket_id,
                    request=request,
                    priority=priority,
                    deadline=deadline,
                    enqueued_at=now,
                    idempotency_key=idempotency_key,
                    trace_context=trace_context,
                    tenant=tenant,
                    shape=request_shape_key(request),
                    ticket=ticket,
                )
                self._queue.push(entry)
                if not inline:
                    self._cond.notify()
        if dedup is not None:
            if wait:
                self._await(dedup, wait_timeout)
            return dedup
        logger.debug(
            "submit ticket=%d kind=%s priority=%d timeout_s=%s idem=%s",
            ticket.ticket_id, type(request).__name__, priority, timeout_s,
            idempotency_key,
        )
        if inline:
            self._step(wait=False)
            if not ticket.done:
                with self._cond:
                    self._cond.notify()
        if wait:
            self._await(ticket, wait_timeout)
        return ticket

    def _await(self, ticket: Ticket, timeout: Optional[float]) -> None:
        """Wait for ``ticket`` until ``timeout`` or a crash, which freezes
        in-flight tickets unresolved (see :meth:`_step`)."""
        end = time.monotonic() + (math.inf if timeout is None else timeout)
        while not ticket.done and not self.crashed:
            left = end - time.monotonic()
            if left <= 0.0:
                return
            ticket.wait(min(left, _IDLE_SWEEP_INTERVAL))

    def _deduplicate(self, key: Optional[str], now: float) -> Optional[Ticket]:
        """The ticket answering a repeated submit key, if any (under lock)."""
        known = self._known(key, KIND_ADMISSION)
        if known is None:
            return None
        ticket = self._tickets.get(known.ticket_id)
        if ticket is not None:
            return ticket
        # A decision whose ticket this process never had (rebuilt from the
        # journal) or no longer keeps: a resolved ticket carries it, so the
        # retrying client gets the decision, not a re-run.
        ticket = Ticket(ticket_id=self._next_ticket, submitted_at=now)
        self._next_ticket += 1
        ticket.resolve(
            known.outcome,
            request_id=known.request_id,
            detail=(
                "deduplicated: decision recovered from the journal"
                if known.ticket_id is None
                else "deduplicated: decision already recorded"
            ),
        )
        self._remember_ticket(ticket)
        self._keys.attach(key, ticket.ticket_id)
        return ticket

    def _remember_ticket(self, ticket: Ticket) -> None:
        """Track a ticket, dropping the oldest *resolved* ones beyond capacity.

        A ticket still waiting for its decision is never dropped.  ``status``
        answers for a dropped ticket as for one it never knew, and a retry by
        idempotency key gets the decision pinned to the key.
        """
        self._tickets[ticket.ticket_id] = ticket
        excess = len(self._tickets) - self.ticket_capacity
        if excess > 0:
            resolved = (tid for tid, known in self._tickets.items() if known.done)
            for ticket_id in list(itertools.islice(resolved, excess)):
                del self._tickets[ticket_id]

    def _overload_retry_after(self, depth: int) -> float:
        """Backoff hint: expected drain time of the current backlog."""
        mean = self.latencies.mean_ms() / 1000.0
        per_request = mean if mean > 0.0 else 0.005
        return min(5.0, max(0.05, depth * per_request / max(1, self.workers)))

    def release(self, request_id: int) -> bool:
        """Release an admitted tenancy; False when the id is not active.

        In batch mode a successful release requeues every parked request —
        the departure may have freed exactly the capacity they were
        waiting for.

        If the journal append fails, the release is rolled back (the
        tenancy is re-adopted, see :meth:`_journaled`) and the caller gets a
        :class:`DegradedError` instead of an acknowledgement that recovery
        would silently undo.  Refused with ``RuntimeError`` once the service
        has stopped, been killed or crashed — a dead service mutates nothing.
        """
        with self._cond:
            if not self._running:
                raise RuntimeError("service is not running")
            self.gate("release")
            tenancy = self.manager.get_tenancy(request_id)
            if tenancy is None:
                return False
            FAILPOINTS.hit(FP_RELEASE_BEFORE_JOURNAL)
            self.manager.release(tenancy)
            self._journaled(
                "release",
                lambda: self.store.log_release(request_id),
                undo=lambda: self.manager.adopt(tenancy.allocation),
                after=FP_RELEASE_AFTER_JOURNAL,
                request_id=request_id,
            )
            self._count("released")
            retried = 0
            if self.mode == MODE_BATCH:
                retried = self._queue.requeue_parked()
                self._count("retries", retried)
            self._maybe_snapshot()
            if retried:
                self._cond.notify_all()
        logger.debug("release request_id=%d retried=%d", request_id, retried)
        return True

    def resize(
        self,
        request_id: int,
        new_n: Optional[int] = None,
        new_mu: Optional[float] = None,
        new_sigma: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Resize an active tenancy; returns the decision payload.

        Runs :meth:`NetworkManager.resize` under the service lock and
        commits it through :meth:`_journaled`: if the journal append fails
        the old allocation is re-adopted verbatim.  Idempotent per
        ``idempotency_key``: a retried resize returns the journaled
        decision instead of resizing twice.

        Resize outcomes never touch the admission counters or
        ``rejection_rate`` — they have their own tallies (``resized`` /
        ``resize_rejected`` and the manager's per-outcome counts).

        In batch mode an accepted shrink requeues parked requests: the
        freed capacity may be exactly what they were waiting for.
        """
        t0 = time.perf_counter()
        with self._cond:
            if not self._running:
                raise RuntimeError("service is not running")
            known = self._known(idempotency_key, KIND_RESIZE)
            if known is not None:
                return {
                    "outcome": known.outcome,
                    "request_id": known.request_id,
                    "detail": "deduplicated: decision already recorded",
                }
            self.gate("resize")
            manager = self.manager
            stored = manager.get_tenancy(request_id)
            if stored is None:
                return {
                    "outcome": "unknown",
                    "request_id": request_id,
                    "detail": f"request {request_id} is not active",
                }
            old_allocation = stored.allocation
            FAILPOINTS.hit(FP_RESIZE_BEFORE_JOURNAL)
            result = manager.resize(
                request_id, new_n=new_n, new_mu=new_mu, new_sigma=new_sigma
            )

            def undo() -> None:
                # Swap the old allocation back in (the reverse resize always
                # fits — it just vacated those resources) and undo the tally.
                if result.accepted and result.tenancy.allocation is not old_allocation:
                    manager.release(manager.get_tenancy(request_id))
                    manager.adopt(old_allocation)
                manager.resize_counts[result.outcome] -= 1

            self._journaled(
                "resize",
                lambda: self.store.log_resize(
                    request_id,
                    result.outcome,
                    allocation=result.tenancy.allocation if result.accepted else None,
                    idempotency_key=idempotency_key,
                ),
                undo=undo,
                after=FP_RESIZE_AFTER_JOURNAL,
                request_id=request_id,
            )
            self._keys.decide(idempotency_key, KIND_RESIZE, result.outcome, request_id)
            self._count("resized" if result.accepted else "resize_rejected")
            self._obs.resize(result.outcome, time.perf_counter() - t0)
            retried = 0
            if result.accepted and self.mode == MODE_BATCH:
                retried = self._queue.requeue_parked()
                self._count("retries", retried)
            self._maybe_snapshot()
            if retried:
                self._cond.notify_all()
            flight_recorder().record(
                "resize",
                outcome=result.outcome,
                request_id=request_id,
                n_vms=result.tenancy.n_vms,
            )
            payload: Dict[str, Any] = {
                "outcome": result.outcome,
                "request_id": request_id,
                "n_vms": result.tenancy.n_vms,
            }
            if result.detail:
                payload["detail"] = result.detail
        logger.debug(
            "resize request_id=%d outcome=%s retried=%d",
            request_id, result.outcome, retried,
        )
        return payload

    def adopt(
        self,
        allocation,
        idempotency_key: Optional[str] = None,
        trace_context: Optional[TraceContext] = None,
    ) -> int:
        """Install an already-placed allocation; returns its local request id.

        This is the cluster coordinator's entry point for cross-shard
        fragments: the placement was computed elsewhere (against a replica
        of this shard's state), so no allocator runs here — but the
        placement is **revalidated** under the service lock before it
        commits.  If a concurrent shard-local admission consumed the slots
        or the link headroom in the meantime, :class:`ConflictError` is
        raised and nothing is touched (the optimistic-concurrency abort
        path of the two-phase protocol).

        Committed through :meth:`_journaled` like the worker path (rolled
        back if the journal append fails).  Idempotent per
        ``idempotency_key`` — a retried adopt returns the original local id
        instead of committing a second copy.
        """
        adopt_t0 = time.perf_counter()
        with self._cond:
            if not self._running:
                raise RuntimeError("service is not running")
            known = self._known(idempotency_key, KIND_ADMISSION)
            if known is not None:
                if known.outcome != OUTCOME_ADMITTED:
                    raise CodecError(
                        f"idempotency key {idempotency_key!r} already decided "
                        f"{known.outcome or 'a pending submit'}, not an adopt"
                    )
                return known.request_id
            self.gate("submit")
            manager = self.manager
            state = manager.state
            for machine_id, count in allocation.machine_counts.items():
                if state.free_slots(machine_id) < count:
                    raise ConflictError(
                        f"machine {machine_id} lacks {count} free slots"
                    )
            for link_id, demand in allocation.link_demands.items():
                if allocation.deterministic:
                    extra = dict(extra_deterministic=demand.mean)
                else:
                    extra = dict(extra_mean=demand.mean, extra_var=demand.variance)
                occupancy = state.links[link_id].occupancy_with(
                    state.risk_c, **extra
                )
                if occupancy >= 1.0:
                    raise ConflictError(
                        f"link {link_id} would reach O_L={occupancy:.4f}"
                    )
            local = dataclasses.replace(
                allocation, request_id=manager.next_request_id
            )
            tenancy = manager.adopt(local)
            manager.admitted_count += 1

            def undo() -> None:
                manager.release(tenancy)
                manager.admitted_count -= 1

            self._journaled(
                "adopt",
                lambda: self.store.log_admit(local, idempotency_key=idempotency_key),
                undo=undo,
                before=FP_WORKER_BEFORE_JOURNAL,
                after=FP_WORKER_AFTER_JOURNAL,
                request_id=local.request_id,
            )
            self._keys.decide(
                idempotency_key, KIND_ADMISSION, OUTCOME_ADMITTED, local.request_id
            )
            self._count("admitted")
            self._maybe_snapshot()
            if trace_context is not None and trace_context.sampled:
                record_remote_span(
                    trace_context.trace_id,
                    {
                        "name": "shard_adopt",
                        "duration_ms": 1000.0 * (time.perf_counter() - adopt_t0),
                        "request_id": local.request_id,
                    },
                )
            flight_recorder().record(
                "admission",
                outcome=OUTCOME_ADMITTED,
                adopted=True,
                request_id=local.request_id,
            )
            return local.request_id

    def status(self, ticket_id: int) -> Optional[Dict[str, Any]]:
        with self._cond:
            ticket = self._tickets.get(ticket_id)
        return ticket.describe() if ticket is not None else None

    def lookup_idempotency(self, key: str) -> Optional[KeyEntry]:
        """The decision an idempotency key holds, if any.

        Used by the cluster coordinator's recovery to resolve in-flight
        keys against what this shard actually journaled before a crash.
        """
        with self._cond:
            return self._keys.get(key)

    def _known(self, key: Optional[str], kind: str) -> Optional[KeyEntry]:
        """The decision a repeated ``key`` answers an op of ``kind`` with,
        counted as a dedup (under lock); a key of the other kind is refused."""
        known = self._keys.lookup(key, kind)
        if known is not None:
            self._count("deduped")
        return known

    def stats(self) -> Dict[str, Any]:
        """The metrics payload of the ``stats`` endpoint."""
        with self._cond:
            manager = self.manager
            levels = [
                {
                    "level": row.level,
                    "label": row.label,
                    "links": row.num_links,
                    "mean_occupancy": row.mean_occupancy,
                    "max_occupancy": row.max_occupancy,
                    "mean_deterministic_share": row.mean_deterministic_share,
                }
                for row in utilization_by_level(manager.state)
            ]
            # ``max_L O_L`` is the max of the level maxima: one walk, not two.
            max_occupancy = max((row["max_occupancy"] for row in levels), default=0.0)
            return {
                "mode": self.mode,
                "workers": self.workers,
                "uptime_s": self.clock() - self._started_at,
                "counters": self.counters.as_dict(),
                "admitted_total": manager.admitted_count,
                "rejected_total": manager.rejected_count,
                "rejection_rate": manager.rejection_rate(),
                "rejections_by_allocator": dict(manager.rejections_by_allocator),
                "resizes": dict(manager.resize_counts),
                "active_tenancies": manager.active_tenancies,
                "queue": {
                    "ready": self._queue.ready_count,
                    "parked": self._queue.parked_count,
                    "limit": self.max_queue_depth,
                },
                "batching": {
                    "batch_max": self.batch_max,
                    "linger_s": self.batch_linger_s,
                    "batches": self.counters.batches,
                    "coalesced": self.counters.coalesced,
                    "coalesce_ratio": self.coalesce_ratio(),
                },
                "tenants": {
                    "quota": self.tenant_quota,
                    "depths": self._queue.tenant_depths(),
                    "weights": {
                        tenant: self._queue.weight_of(tenant)
                        for tenant in sorted(self._known_tenants)
                    },
                },
                "degradation": (
                    self._degradation.describe()
                    if self._degradation is not None
                    else {"state": STATE_FULL}
                ),
                "idempotency": {"keys": len(self._keys)},
                "admission_latency": self.latencies.summary(),
                "occupancy": {
                    "max": max_occupancy,
                    "by_level": levels,
                },
                "slots": {
                    "total": manager.state.total_slots,
                    "used": manager.state.used_slots,
                    "free": manager.state.total_free_slots,
                },
                "durability": self._durability_info(),
            }

    def metrics(self) -> Dict[str, Any]:
        """The payload of the ``metrics`` endpoint.

        Both views render from the process-global registry: ``metrics`` is
        the JSON snapshot (rides the line-JSON protocol as-is), and
        ``prometheus`` is the text exposition (version 0.0.4) for scrapers.
        Rendered *without* the service lock — the pull gauges take it
        themselves where they need consistency.
        """
        registry = global_registry()
        return {
            "metrics": registry.snapshot(),
            "prometheus": registry.render_prometheus(),
        }

    def _durability_info(self) -> Dict[str, Any]:
        if self.store is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "directory": str(self.store.directory),
            "journal_seq": self.store.journal.next_seq - 1,
            "snapshot_every": self.store.snapshot_every,
        }

    def take_snapshot(self) -> Optional[str]:
        """Force a snapshot now (returns its path, or None without a store)."""
        with self._cond:
            if self.store is None:
                return None
            return str(self.store.write_snapshot(snapshot_payload(self.manager)))

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while self._step(wait=True):
            pass

    def _step(self, wait: bool) -> bool:
        """Decide what the fair queue serves next: the one decision path.

        ``wait`` is a worker's idle wait (and the batcher's linger); an inline
        submitter passes ``False`` and returns at once when nothing is due.
        Returns False once the service has stopped or crashed.
        """
        batch: List[QueuedRequest] = []
        expired: List[QueuedRequest] = []
        decisions: List[Optional[Tuple]] = []
        try:
            with self._cond:
                entry = None
                while self._running:
                    now = self.clock()
                    if self._degradation is not None and self._degradation.should_probe(now):
                        self._probe_journal()
                    entry, drained = self._queue.pop_ready(now)
                    expired = drained + self._queue.expire(now)
                    if expired:
                        self._count("expired", len(expired))
                    if entry is not None or expired or not wait:
                        break
                    self._cond.wait(timeout=_IDLE_SWEEP_INTERVAL)
                if not self._running and entry is None and not expired:
                    return False
                if entry is not None:
                    batch.append(entry)
                    self._coalesce(batch, expired, self.batch_linger_s if wait else 0.0)
                    decisions = self._attempt_batch(batch)
        except InjectedCrash as crash:
            # Simulated process death (chaos harness): freeze the whole
            # service — no ticket resolution, no drain, no snapshot.
            # The in-flight entries stay unacknowledged, exactly like
            # requests caught mid-flight by a real crash.
            with self._cond:
                self._running = False
                self.crashed = True
                self._cond.notify_all()
            recorder = flight_recorder()
            recorder.record("crash", error=str(crash))
            recorder.maybe_dump("crash")
            logger.warning("worker crashed by injected fault: %s", crash)
            return False
        # Tickets are resolved outside the lock: Event.set wakes the
        # submitting thread, which may immediately call back into the
        # service (status/release) and would contend on the lock.
        for dead in expired:
            self._resolve(dead, OUTCOME_EXPIRED, detail="deadline passed")
        for member, decision in zip(batch, decisions):
            if decision is not None:
                outcome, request_id, detail = decision
                self._resolve(member, outcome, request_id=request_id, detail=detail)
        return True

    def _coalesce(
        self, batch: List[QueuedRequest], expired: List[QueuedRequest], linger_s: float
    ) -> None:
        """Grow ``batch`` with consecutive same-shape entries (under lock).

        Only entries the fair queue would serve *next anyway* are taken
        (:meth:`FairRequestQueue.pop_compatible`), so the batch is exactly a
        prefix of the sequential serving order — the keystone of the
        batched-equals-unbatched decision guarantee.  When the queue runs
        empty below ``batch_max``, the step waits up to ``linger_s`` (a worker's
        ``batch_linger_s``) for more same-shape arrivals; a different-shape
        head always dispatches immediately (waiting could not legally skip
        past it).
        """
        if self.batch_max <= 1:
            return
        leader_shape = batch[0].shape
        linger_deadline = self.clock() + linger_s
        while len(batch) < self.batch_max and self._running:
            now = self.clock()
            more, drained = self._queue.pop_compatible(leader_shape, now)
            if drained:
                expired.extend(drained)
                self._count("expired", len(drained))
            if more is not None:
                batch.append(more)
                continue
            if self._queue.ready_count > 0:
                break
            remaining = linger_deadline - now
            if remaining <= 0.0:
                break
            self._cond.wait(timeout=min(remaining, _IDLE_SWEEP_INTERVAL))

    def _attempt_batch(
        self, batch: List[QueuedRequest]
    ) -> List[Optional[Tuple]]:
        """Drive one coalesced batch through the allocator (under lock).

        Everything stays strictly per-request: each member journals its own
        admit/reject record, parks individually in batch mode, and an
        allocator/journal failure poisons only its own ticket.  The batch
        context is decision-neutral by contract (see
        ``Allocator.batch_context``); the DP tables a run of one shape reuses
        live in the allocator, batched or not.
        """
        now = self.clock()
        context = self.manager.batch_context() if len(batch) > 1 else None
        self._count("batches")
        if len(batch) > 1:
            self._count("coalesced", len(batch) - 1)
        self._obs.observe_batch(len(batch))
        decisions: List[Optional[Tuple]] = []
        for entry in batch:
            try:
                decisions.append(self._attempt(entry, now, batch=context))
            except DegradedError as exc:
                # The commit step already rolled the admission back, counted
                # and degraded; only the ticket is left to fail.
                decisions.append(
                    (
                        OUTCOME_ERROR,
                        None,
                        f"journal unavailable ({type(exc.__cause__).__name__}); "
                        "admission rolled back",
                    )
                )
            except Exception as exc:  # allocator bug etc. — fail the
                # request, keep the worker alive for the next one
                self._count("errors")
                self._keys.forget(entry.idempotency_key)
                logger.warning(
                    "ticket=%d failed during admission: %s",
                    entry.ticket_id, exc, exc_info=True,
                )
                decisions.append(
                    (OUTCOME_ERROR, None, f"{type(exc).__name__}: {exc}")
                )
        return decisions

    def _attempt(self, entry: QueuedRequest, now: float, batch=None):
        """Try one admission under the lock; None means parked for retry."""
        entry.attempts += 1
        manager = self.manager
        probe_id = manager.next_request_id
        context = TraceContext.from_dict(entry.trace_context) if isinstance(
            entry.trace_context, dict
        ) else entry.trace_context
        allocate_t0 = time.perf_counter()
        # Activating the distributed-trace context forces the allocator's
        # own sampled tracer live, so a cross-process trace never loses
        # its shard leg to local every-Nth sampling.  An allocator bug
        # raises through to the batch loop, which fails this ticket only.
        with activate_context(context):
            tenancy: Optional[Tenancy] = manager.request(entry.request, batch=batch)
        if context is not None and context.sampled:
            record_remote_span(
                context.trace_id,
                {
                    "name": "shard_allocate",
                    "duration_ms": 1000.0 * (time.perf_counter() - allocate_t0),
                    "admitted": tenancy is not None,
                },
            )
        if tenancy is not None:

            def undo() -> None:
                # request() bumped the admitted counter with the tenancy.
                manager.release(tenancy)
                manager.admitted_count -= 1
                self._keys.forget(entry.idempotency_key)

            self._journaled(
                "admit",
                lambda: self.store.log_admit(
                    tenancy.allocation, idempotency_key=entry.idempotency_key
                ),
                undo=undo,
                before=FP_WORKER_BEFORE_JOURNAL,
                after=FP_WORKER_AFTER_JOURNAL,
                ticket=entry.ticket_id,
            )
            self._keys.decide(
                entry.idempotency_key, KIND_ADMISSION, OUTCOME_ADMITTED,
                tenancy.request_id, entry.ticket_id,
            )
            self._count("admitted")
            self._observe_latency(self.clock() - entry.enqueued_at)
            self._maybe_snapshot()
            flight_recorder().record(
                "admission",
                outcome=OUTCOME_ADMITTED,
                ticket=entry.ticket_id,
                request_id=tenancy.request_id,
                attempts=entry.attempts,
            )
            return (OUTCOME_ADMITTED, tenancy.request_id, None)
        if self.mode == MODE_BATCH and not entry.expired(self.clock()):
            self._queue.park(entry)
            return None
        # No undo: a rejection never touched link state, so the client is
        # still answered (the only divergence recovery can see is the reject
        # counter).
        self._journaled(
            "reject",
            lambda: self.store.log_reject(
                request_to_dict(entry.request),
                request_id=probe_id,
                idempotency_key=entry.idempotency_key,
            ),
            ticket=entry.ticket_id,
        )
        self._keys.decide(
            entry.idempotency_key, KIND_ADMISSION, OUTCOME_REJECTED, None,
            entry.ticket_id,
        )
        self._count("rejected")
        self._observe_latency(self.clock() - entry.enqueued_at)
        self._maybe_snapshot()
        rejected_by = manager.last_rejection_allocator
        detail = (
            f"no valid placement (allocator={rejected_by})"
            if rejected_by
            else "no valid placement"
        )
        flight_recorder().record(
            "admission",
            outcome=OUTCOME_REJECTED,
            ticket=entry.ticket_id,
            reason=rejected_by or "no_valid_placement",
            attempts=entry.attempts,
        )
        return (OUTCOME_REJECTED, None, detail)

    def _maybe_snapshot(self) -> None:
        """Opportunistic snapshot; never fatal (the journal is the truth)."""
        if self.store is not None and self.store.should_snapshot():
            self._journaled(
                "snapshot",
                lambda: self.store.write_snapshot(snapshot_payload(self.manager)),
                degrade=False,
            )

    def _resolve(self, entry: QueuedRequest, outcome: str, request_id=None, detail=None):
        if outcome in (OUTCOME_EXPIRED, OUTCOME_SHUTDOWN):
            # Nothing was decided: a retry of the key runs afresh, as it
            # would after a restart.
            with self._cond:
                self._keys.forget(entry.idempotency_key)
        ticket = entry.ticket
        if ticket is not None:
            latency = self.clock() - entry.enqueued_at
            ticket.resolve(outcome, request_id=request_id, detail=detail, latency=latency)
            logger.debug(
                "ticket=%d outcome=%s request_id=%s attempts=%d latency_ms=%.3f",
                entry.ticket_id, outcome, request_id, entry.attempts, 1000.0 * latency,
            )
