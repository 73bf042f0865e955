"""Pre-wired instrument sets binding the metric registry to the system layers.

This module owns the **process-global registry** (the one the service's
``metrics`` endpoint serves), the :data:`FAMILIES` table — the one place a
family's kind, help text, buckets, label names and present-from-start
children are written down — and the instrument facades the hot paths call:

- :func:`admission_instruments` — allocator-side tracing and counters
  (DP phase timings, table-cache hit rates, rejection reasons);
- :func:`service_instruments`, :func:`cluster_instruments`,
  :func:`experiment_instruments` — counters, histograms and pull gauges of
  the admission service, the sharded coordinator and the sweep harness;
- :func:`outage_monitor` — the empirical Eq.-(1) violation counter fed by
  the simulation engine's data plane;
- :func:`bind_network_gauges` — pull gauges over a live ``NetworkManager``
  (per-level occupancy ``O_L``, headroom ``S_L - sum mu_i``, tenant count).

Every facade resolves its children through the one cache, :class:`_Children`,
so adding a metric is one ``FAMILIES`` row, one call site, and
``scripts/check_metrics_schema.py --update`` for the reviewed contract.

Everything is cheap-by-default: counters are O(1) increments, phase timing
only happens on sampled traces, and :func:`configure` can disable the whole
layer (swapping in no-op facades) for overhead A/B measurements —
``benchmarks/bench_obs_overhead.py`` gates the difference at <= 5%.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.obs.registry import DEFAULT_TIME_BUCKETS, MetricsRegistry
from repro.obs.tracing import SpanTracer, Trace

__all__ = [
    "FAMILIES",
    "Family",
    "global_registry",
    "reset_global_registry",
    "configure",
    "enabled",
    "count",
    "admission_instruments",
    "AdmissionInstruments",
    "service_instruments",
    "ServiceInstruments",
    "record_fault",
    "experiment_instruments",
    "ExperimentInstruments",
    "outage_monitor",
    "OutageMonitor",
    "bind_network_gauges",
    "cluster_instruments",
    "ClusterInstruments",
    "PHASE_PRUNE",
    "PHASE_TABLE_BUILD",
    "PHASE_BATCH_OCCUPANCY",
    "PHASE_COMBINE",
    "PHASE_ALLOC",
    "REASON_NO_FREE_SLOTS",
    "REASON_NO_FEASIBLE_SUBTREE",
    "REASON_NO_FEASIBLE_MACHINE_LINK",
]

#: Buckets for allocate/phase timings: 20us .. 10s.
_ALLOC_BUCKETS: Tuple[float, ...] = (
    0.00002, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0,
)

#: Buckets for admission batch sizes (requests per dispatch).
_BATCH_BUCKETS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Buckets for sweep-cell wall times: 10ms (tiny cells) .. 1h (paper scale).
_CELL_BUCKETS: Tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0,
)

# Fast-DP phase names (Algorithm 1 stages, see DESIGN.md).
PHASE_PRUNE = "prune"
PHASE_TABLE_BUILD = "table_build"
PHASE_BATCH_OCCUPANCY = "batch_occupancy"
PHASE_COMBINE = "combine"
PHASE_ALLOC = "alloc"

# Allocator-level rejection reasons.
REASON_NO_FREE_SLOTS = "no_free_slots"
REASON_NO_FEASIBLE_SUBTREE = "no_feasible_subtree"
#: However the request is cut into per-machine pieces, one of them passes no
#: machine's own uplink as loaded now: the tenant's VMs outgrow a NIC, and the
#: datacenter need not be full.
REASON_NO_FEASIBLE_MACHINE_LINK = "no_feasible_machine_link"


# ----------------------------------------------------------------------
# The family table
# ----------------------------------------------------------------------


class Family(NamedTuple):
    """One metric family: everything the registry needs to make a child."""

    kind: str
    help: str
    #: Label names, in the order call sites pass the values.
    labels: Tuple[str, ...] = ()
    #: Children that exist from the moment the owning facade is built, so a
    #: scrape sees the series (at zero) before any traffic: one label value
    #: per entry for a single-label family, ``_SOLE`` for the one child of an
    #: unlabelled family.  Families whose children are bound to a live object
    #: (``bind_service``, ``bind_coordinator``, ``bind_network_gauges``) or
    #: keyed by an open set (allocator names) preset nothing.
    preset: Tuple = ()
    buckets: Tuple[float, ...] = DEFAULT_TIME_BUCKETS


_SOLE = ((),)

#: ``METRICS_SCHEMA.json`` is the name -> kind projection of this table.
FAMILIES: Dict[str, Family] = {
    # -- allocator admission path --------------------------------------
    "repro_admission_requests_total": Family(
        "counter", "Admission (allocate) attempts per allocator.", ("allocator",)
    ),
    "repro_admission_admitted_total": Family(
        "counter", "Successful placements per allocator.", ("allocator",)
    ),
    "repro_admission_rejected_total": Family(
        "counter", "Rejected placements per allocator and reason.",
        ("allocator", "reason"),
    ),
    "repro_admission_allocate_seconds": Family(
        "histogram", "Wall time of one allocate() decision.",
        ("allocator",), buckets=_ALLOC_BUCKETS,
    ),
    "repro_admission_phase_seconds": Family(
        "histogram", "Per-request wall time of one fast-DP phase (sampled traces).",
        ("phase",), buckets=_ALLOC_BUCKETS,
        preset=(PHASE_PRUNE, PHASE_TABLE_BUILD, PHASE_BATCH_OCCUPANCY,
                PHASE_COMBINE, PHASE_ALLOC),
    ),
    "repro_admission_cache_lookups_total": Family(
        "counter",
        "DP table cache probes (machine = per-free-slot tables, "
        "vertex = per-signature rack tables).",
        ("cache",), preset=("machine", "vertex"),
    ),
    "repro_admission_cache_hits_total": Family(
        "counter", "DP table cache probes answered by a shared table.",
        ("cache",), preset=("machine", "vertex"),
    ),
    # -- admission service ---------------------------------------------
    "repro_service_events_total": Family(
        "counter", "Admission-service lifecycle events (submit/decision/release).",
        ("event",),
        # The fields of repro.service.concurrency.ServiceCounters.
        preset=("submitted", "admitted", "rejected", "expired", "released",
                "retries", "errors", "shed", "deduped", "batches", "coalesced",
                "resized", "resize_rejected"),
    ),
    "repro_service_admission_latency_seconds": Family(
        "histogram",
        "End-to-end admission latency: enqueue to decision, queueing included.",
        preset=_SOLE,
    ),
    "repro_service_batch_size": Family(
        "histogram", "Coalesced requests dispatched per admission batch.",
        preset=_SOLE, buckets=_BATCH_BUCKETS,
    ),
    "repro_resize_total": Family(
        "counter", "Elastic resize operations, by outcome.",
        ("outcome",), preset=("in_place", "replaced", "rejected"),
    ),
    "repro_service_resize_latency_seconds": Family(
        "histogram", "End-to-end resize latency under the service lock.", preset=_SOLE
    ),
    "repro_service_tenant_shed_total": Family(
        "counter", "Over-quota sheds, by tenant.", ("tenant",), preset=("none",)
    ),
    "repro_service_tenant_queue_depth": Family(
        "gauge", "Waiting requests (ready + parked) per tenant.",
        ("tenant",), preset=("none",),
    ),
    "repro_service_shed_total": Family(
        "counter", "Requests refused with a typed load-shedding error, by reason.",
        ("reason",), preset=("overloaded", "read_only", "unavailable", "over_quota"),
    ),
    "repro_service_degradation_transitions_total": Family(
        "counter", "Degradation-ladder transitions, by destination state.",
        ("to",), preset=("full", "read_only", "fast_fail"),
    ),
    "repro_service_queue_depth": Family(
        "gauge", "Requests waiting in the admission queue.", ("queue",)
    ),
    "repro_service_uptime_seconds": Family(
        "gauge", "Seconds since the admission service instance started."
    ),
    "repro_service_workers": Family("gauge", "Configured admission worker threads."),
    "repro_service_degradation_state": Family(
        "gauge", "Degradation ladder position: 0=full, 1=read_only, 2=fast_fail."
    ),
    "repro_service_coalesce_ratio": Family(
        "gauge",
        "Fraction of processed requests that shared a batch leader's "
        "DP tables (0 = batching off or never coalesced).",
    ),
    # Written through count() by the failpoints and the flight recorder;
    # preset (by the service facade) so a daemon that never faults or dumps
    # still exposes them.
    "repro_faults_injected_total": Family(
        "counter", "Failpoint triggers, by failpoint name.",
        ("failpoint",), preset=("none",),
    ),
    "repro_flight_events_total": Family(
        "counter", "Flight-recorder events recorded, by kind.",
        ("kind",), preset=("none",),
    ),
    "repro_flight_dumps_total": Family(
        "counter", "Flight-recorder dumps written, by trigger.",
        ("trigger",), preset=("none",),
    ),
    # -- experiment harness --------------------------------------------
    "repro_experiment_cells_completed_total": Family(
        "counter", "Sweep cells computed by this process, per experiment.",
        ("experiment",), preset=("none",),
    ),
    "repro_experiment_cell_seconds": Family(
        "histogram", "Wall time to compute one sweep cell.",
        ("experiment",), preset=("none",), buckets=_CELL_BUCKETS,
    ),
    # -- empirical outage monitor (Eq. 1) ------------------------------
    "repro_outage_link_seconds_total": Family(
        "counter",
        "(directed link, second) pairs whose offered demand exceeded capacity.",
        preset=_SOLE,
    ),
    "repro_loaded_link_seconds_total": Family(
        "counter", "(directed link, second) pairs that carried stochastic load.",
        preset=_SOLE,
    ),
    "repro_outage_epsilon": Family(
        "gauge", "Configured SLA risk factor epsilon of Eq. (1).", preset=_SOLE
    ),
    "repro_outage_empirical_rate": Family(
        "gauge", "Measured outage frequency; the guarantee holds while <= epsilon.",
        preset=_SOLE,
    ),
    # -- sharded coordinator -------------------------------------------
    "repro_cluster_routing_total": Family(
        "counter",
        "Coordinator routing decisions (local/cross_shard/spill/reject/dedup).",
        # repro.cluster.coordinator ROUTE_*.
        ("decision",), preset=("local", "cross_shard", "spill", "reject", "dedup"),
    ),
    "repro_cluster_reservations_total": Family(
        "counter",
        "Core-link ledger reservation lifecycle events of the two-phase protocol.",
        ("event",),
        preset=("reserve", "reserve_denied", "commit", "abort", "expire"),
    ),
    "repro_cluster_coordinator_latency_seconds": Family(
        "histogram", "End-to-end coordinator decision latency, by admission path.",
        ("path",), preset=("local", "cross"),
    ),
    # The three "none" gauges are placeholders: bind_coordinator adds the
    # live per-shard / per-link children beside them.
    "repro_cluster_shard_free_slots": Family(
        "gauge", "Free VM slots per shard, read from the coordinator replica.",
        ("shard",), preset=("none",),
    ),
    "repro_cluster_shard_queue_depth": Family(
        "gauge", "Queued requests per shard (last collected shard summary).",
        ("shard",), preset=("none",),
    ),
    "repro_cluster_core_link_occupancy": Family(
        "gauge", "Ledger occupancy O_L per shared core link, committed + reserved.",
        ("link",), preset=("none",),
    ),
    "repro_cluster_pending_reservations": Family(
        "gauge", "Live (uncommitted, unexpired) core-link reservations.", preset=_SOLE
    ),
    "repro_cluster_federation_scrapes_total": Family(
        "counter", "Per-shard registry snapshot collections by the coordinator.",
        ("outcome",), preset=("ok", "error"),
    ),
    "repro_cluster_trace_spans_total": Family(
        "counter", "Spans folded into end-to-end cluster traces, by origin.",
        ("origin",), preset=("coordinator", "shard"),
    ),
    # -- network guarantee health (bind_network_gauges) ----------------
    "repro_network_link_occupancy": Family(
        "gauge", "Per-level link occupancy O_L (Eq. 6) at the configured epsilon.",
        ("level", "stat"),
    ),
    "repro_network_headroom_mbps": Family(
        "gauge", "Per-level stochastic headroom S_L - sum mu_i in Mbps.",
        ("level", "stat"),
    ),
    "repro_network_max_occupancy": Family(
        "gauge", "max_L O_L over the whole datacenter (the Fig. 9 statistic)."
    ),
    "repro_network_tenants": Family(
        "gauge", "Tenants currently holding slots and bandwidth."
    ),
    "repro_network_slots": Family(
        "gauge", "VM slot accounting of the managed datacenter.", ("state",)
    ),
}


class _Children(dict):
    """``children[name, *label values]`` -> the registry child, made once.

    The only get-or-create in this module: a miss looks the family up in
    :data:`FAMILIES`, asks the registry for the child with the table's help
    text and buckets, and remembers it, so the hot path is one dict hit.
    An unlabelled family may be keyed by its bare name.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        super().__init__()
        self.registry = registry

    def __missing__(self, key):
        name, *values = (key,) if isinstance(key, str) else key
        family = FAMILIES[name]
        if len(values) != len(family.labels):
            raise KeyError(f"{name} takes labels {family.labels}, got {values}")
        labels = dict(zip(family.labels, values))
        if family.kind == "histogram":
            child = self.registry.histogram(
                name, family.help, buckets=family.buckets, **labels
            )
        else:
            make = getattr(self.registry, family.kind)  # counter | gauge
            child = make(name, family.help, **labels)
        self[key] = child
        return child

    def preset(self, *prefixes: str) -> "_Children":
        """Make the preset children of every family under ``prefixes``."""
        for name, family in FAMILIES.items():
            if name.startswith(prefixes):
                for values in family.preset:
                    labels = (values,) if isinstance(values, str) else values
                    self.__getitem__((name, *labels) if labels else name)
        return self


# ----------------------------------------------------------------------
# Process-global state
# ----------------------------------------------------------------------

_REGISTRY = MetricsRegistry()
_CHILDREN = _Children(_REGISTRY)
_ENABLED = True
_SAMPLE_EVERY = 64
_SAMPLE_PHASE = 0
#: The live facades of the global registry, by class, built on first use.
_LIVE: Dict[type, object] = {}


def global_registry() -> MetricsRegistry:
    """The process-wide registry served by the ``metrics`` endpoint."""
    return _REGISTRY


def enabled() -> bool:
    return _ENABLED


def configure(
    enabled: Optional[bool] = None,
    sample_every: Optional[int] = None,
    sample_phase: Optional[int] = None,
) -> None:
    """Flip instrumentation on/off or retune trace sampling at runtime.

    Disabling swaps the admission facade for a shared no-op object, so the
    allocator hot path pays a single global read and nothing else — the
    baseline side of the overhead benchmark.

    ``sample_phase`` staggers the deterministic every-Nth sampler between
    processes: spawned shard workers seed it from their shard index so the
    cluster does not sample the same startup-biased Nth calls on every
    shard.  Applying it resets the live tracer's call counter to the phase.
    """
    global _ENABLED, _SAMPLE_EVERY, _SAMPLE_PHASE
    admission = _LIVE.get(AdmissionInstruments)
    if enabled is not None:
        _ENABLED = bool(enabled)
    if sample_every is not None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        _SAMPLE_EVERY = int(sample_every)
        if admission is not None:
            admission.tracer.sample_every = _SAMPLE_EVERY
    if sample_phase is not None:
        if sample_phase < 0:
            raise ValueError(f"sample_phase must be >= 0, got {sample_phase}")
        _SAMPLE_PHASE = int(sample_phase)
        if admission is not None:
            admission.tracer._calls = _SAMPLE_PHASE
            admission.tracer._phase = _SAMPLE_PHASE


def reset_global_registry() -> MetricsRegistry:
    """Fresh global registry (tests only — live gauges are left behind)."""
    global _REGISTRY, _CHILDREN
    _REGISTRY = MetricsRegistry()
    _CHILDREN = _Children(_REGISTRY)
    _LIVE.clear()
    return _REGISTRY


def _facade(cls, null, *args):
    """The live ``cls`` facade of the global registry, or ``null`` when off."""
    if not _ENABLED:
        return null
    live = _LIVE.get(cls)
    if live is None:
        live = _LIVE[cls] = cls(_REGISTRY, *args)
    return live


def count(name: str, *label_values: str) -> None:
    """Bump one counter of the global registry (nothing when disabled).

    For the writers outside the facades: failpoints and the flight recorder.
    """
    if _ENABLED:
        _CHILDREN[(name, *label_values)].inc()


def record_fault(failpoint: str) -> None:
    """Count one failpoint trigger (called by ``repro.faults``, best effort)."""
    count("repro_faults_injected_total", failpoint)


class _NullFacade:
    """Accepts every facade call and does nothing (instrumentation disabled)."""

    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        return self._ignore

    @staticmethod
    def _ignore(*args, **kwargs) -> None:
        pass


_NULL_FACADE = _NullFacade()


# ----------------------------------------------------------------------
# Admission (allocator) instruments
# ----------------------------------------------------------------------


class AdmissionInstruments:
    """Counters + sampled tracer for the allocator admission path.

    One instance serves every allocator in the process; the per-request
    cost is a handful of child-cache hits and integer adds.
    """

    enabled = True

    def __init__(
        self, registry: MetricsRegistry, sample_every: int = 64, phase: int = 0
    ) -> None:
        self.tracer = SpanTracer(sample_every=sample_every, phase=phase)
        self._children = _Children(registry).preset("repro_admission_")

    def start(self, allocator: str) -> Optional[Trace]:
        """Begin one admission decision; a Trace only when sampled."""
        self._children["repro_admission_requests_total", allocator].inc()
        return self.tracer.start(allocator)

    def done(
        self,
        allocator: str,
        duration_s: float,
        admitted: bool,
        reason: Optional[str] = None,
        trace: Optional[Trace] = None,
        n_vms: int = 0,
    ) -> None:
        """Finish one admission decision started with :meth:`start`."""
        children = self._children
        children["repro_admission_allocate_seconds", allocator].observe(duration_s)
        # Looked up on both branches: an allocator's admitted series exists
        # from its first decision, even while everything is being rejected.
        admitted_total = children["repro_admission_admitted_total", allocator]
        if admitted:
            admitted_total.inc()
        else:
            why = reason or REASON_NO_FEASIBLE_SUBTREE
            children["repro_admission_rejected_total", allocator, why].inc()
        if trace is not None:
            for phase, seconds in trace.phases.items():
                children["repro_admission_phase_seconds", phase].observe(seconds)
            trace.annotate(
                allocator=allocator,
                admitted=admitted,
                reason=reason,
                n_vms=n_vms,
            )
            self.tracer.finish(trace)

    def cache(self, cache: str, lookups: int, hits: int) -> None:
        """Fold one request's cache statistics in (O(1) per request)."""
        if lookups <= 0:
            return
        children = self._children
        children["repro_admission_cache_lookups_total", cache].inc(lookups)
        hit_total = children["repro_admission_cache_hits_total", cache]
        if hits > 0:
            hit_total.inc(hits)


class _NullAdmission:
    """Shape-compatible no-op facade used while instrumentation is disabled.

    Written out (not :class:`_NullFacade`) because it is the measured
    baseline of the overhead benchmark and ``tracer`` is read as a value.
    """

    enabled = False
    tracer = None

    def start(self, allocator: str) -> None:
        return None

    def done(self, *args, **kwargs) -> None:
        pass

    def cache(self, *args, **kwargs) -> None:
        pass


_NULL_ADMISSION = _NullAdmission()


def admission_instruments():
    """The live admission facade, or the shared no-op when disabled."""
    return _facade(
        AdmissionInstruments, _NULL_ADMISSION, _SAMPLE_EVERY, _SAMPLE_PHASE
    )


# ----------------------------------------------------------------------
# Service-layer instruments
# ----------------------------------------------------------------------


class ServiceInstruments:
    """Counters, latency histogram and live gauges for the admission service.

    The service's ``stats()`` integers are per instance and stay
    authoritative for the line-JSON ``stats`` op; this mirrors every
    increment onto the process-wide registry so the ``metrics`` endpoint
    and Prometheus scrapers see the same story with standard metric
    semantics.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        # The fault and flight-recorder families are written lazily from
        # outside (count()); the daemon's exposition must carry them anyway.
        self._children = _Children(registry).preset(
            "repro_service_", "repro_resize_", "repro_faults_", "repro_flight_"
        )
        # The metrics endpoint must always carry the guarantee-health
        # families, even before any simulation ran in this process.
        outage_monitor()

    def event(self, name: str, amount: int = 1) -> None:
        if amount > 0:
            self._children["repro_service_events_total", name].inc(amount)

    def observe_latency(self, seconds: float) -> None:
        self._children["repro_service_admission_latency_seconds"].observe(seconds)

    def observe_batch(self, size: int) -> None:
        """Record one batch dispatch and how many requests rode in it."""
        self._children["repro_service_batch_size"].observe(float(size))

    def resize(self, outcome: str, seconds: float) -> None:
        """Record one resize decision and its latency."""
        self._children["repro_resize_total", outcome].inc()
        self._children["repro_service_resize_latency_seconds"].observe(seconds)

    def tenant_shed(self, tenant: str) -> None:
        self._children["repro_service_tenant_shed_total", tenant].inc()

    def bind_tenant_depth(self, tenant: str, read) -> None:
        """Register (or refresh) the pull gauge for one tenant's queue depth."""
        self._children["repro_service_tenant_queue_depth", tenant].set_function(read)

    def shed_reason(self, reason: str) -> None:
        self._children["repro_service_shed_total", reason].inc()

    def degradation_transition(self, to_state: str) -> None:
        self._children["repro_service_degradation_transitions_total", to_state].inc()

    def bind_service(self, service) -> None:
        """Register pull gauges over one live ``AdmissionService``.

        Also binds the network guarantee-health gauges over its manager.
        Re-binding (a fresh service in the same process) replaces the
        callbacks, so the exposition always follows the newest instance.
        """
        children = self._children
        children["repro_service_queue_depth", "ready"].set_function(
            lambda: float(service.queue_depths()[0])
        )
        children["repro_service_queue_depth", "parked"].set_function(
            lambda: float(service.queue_depths()[1])
        )
        children["repro_service_uptime_seconds"].set_function(
            lambda: max(0.0, service.clock() - service.started_at)
        )
        children["repro_service_workers"].set_function(lambda: float(service.workers))
        children["repro_service_degradation_state"].set_function(
            lambda: float(service.degradation_code())
        )
        children["repro_service_coalesce_ratio"].set_function(
            lambda: float(service.coalesce_ratio())
        )
        bind_network_gauges(children.registry, service.manager)


def service_instruments():
    """The live service facade, or the shared no-op when disabled."""
    return _facade(ServiceInstruments, _NULL_FACADE)


# ----------------------------------------------------------------------
# Experiment harness instruments
# ----------------------------------------------------------------------


class ExperimentInstruments:
    """Progress counters for the (parallel) experiment harness.

    The harness records one observation per completed sweep cell, so the
    cost is negligible next to the cell itself.  Resumed-from-checkpoint
    cells are *not* recorded: the metrics describe compute performed by
    this process, which is what a progress dashboard wants.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._children = _Children(registry).preset("repro_experiment_")

    def cell_completed(self, experiment: str, seconds: float) -> None:
        """Record one freshly-computed cell and its wall time."""
        children = self._children
        children["repro_experiment_cells_completed_total", experiment].inc()
        children["repro_experiment_cell_seconds", experiment].observe(seconds)


def experiment_instruments():
    """The live harness facade, or the shared no-op when disabled."""
    return _facade(ExperimentInstruments, _NULL_FACADE)


# ----------------------------------------------------------------------
# Empirical outage monitor (Eq. 1 validation signal)
# ----------------------------------------------------------------------


class OutageMonitor:
    """Counts empirical violations of the probabilistic guarantee.

    The data plane reports, per simulated second, how many directed links
    carried stochastic load and on how many of those the *offered* demand
    exceeded capacity.  ``rate()`` — outage link-seconds over loaded
    link-seconds — is the measured counterpart of the per-link outage
    probability Eq. (1) bounds by ``epsilon``.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        children = _Children(registry)  # all four families are fetched below
        self.outage = children["repro_outage_link_seconds_total"]
        self.loaded = children["repro_loaded_link_seconds_total"]
        self._epsilon = children["repro_outage_epsilon"]
        children["repro_outage_empirical_rate"].set_function(self.rate)

    def record(self, outage_seconds: int, loaded_seconds: int) -> None:
        if loaded_seconds:
            self.loaded.inc(loaded_seconds)
        if outage_seconds:
            self.outage.inc(outage_seconds)

    def set_epsilon(self, epsilon: float) -> None:
        self._epsilon.set(epsilon)

    @property
    def epsilon(self) -> float:
        return self._epsilon.value

    def rate(self) -> float:
        loaded = self.loaded.value
        return self.outage.value / loaded if loaded else 0.0

    def within_bound(self, epsilon: Optional[float] = None) -> bool:
        """Is the measured rate within the configured (or given) epsilon?"""
        bound = self._epsilon.value if epsilon is None else epsilon
        return self.rate() <= bound


class _NullOutage:
    """Written out (not :class:`_NullFacade`): its answers are read."""

    def record(self, outage_seconds: int, loaded_seconds: int) -> None:
        pass

    def set_epsilon(self, epsilon: float) -> None:
        pass

    def rate(self) -> float:
        return 0.0

    def within_bound(self, epsilon: Optional[float] = None) -> bool:
        return True


_NULL_OUTAGE = _NullOutage()


def outage_monitor():
    """The live outage monitor, or a no-op when instrumentation is off."""
    return _facade(OutageMonitor, _NULL_OUTAGE)


# ----------------------------------------------------------------------
# Cluster (sharded admission) instruments
# ----------------------------------------------------------------------


class ClusterInstruments:
    """Counters, latency histograms and gauges for the sharded coordinator.

    Same discipline as the other facades: gauges are pull-based over the
    live coordinator, and the preset children make the exposition carry the
    cluster story from process start even before the first request.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._children = _Children(registry).preset("repro_cluster_")

    def federation_scrape(self, outcome: str) -> None:
        self._children["repro_cluster_federation_scrapes_total", outcome].inc()

    def trace_spans(self, origin: str, count: int = 1) -> None:
        if count > 0:
            self._children["repro_cluster_trace_spans_total", origin].inc(count)

    def routing(self, decision: str) -> None:
        self._children["repro_cluster_routing_total", decision].inc()

    def reservation(self, event: str) -> None:
        self._children["repro_cluster_reservations_total", event].inc()

    def observe_latency(self, path: str, seconds: float) -> None:
        latency = self._children["repro_cluster_coordinator_latency_seconds", path]
        latency.observe(seconds)

    def bind_coordinator(self, coordinator) -> None:
        """Register pull gauges over one live ``ClusterCoordinator``.

        Shard gauges read the replica (free slots, no RPC) and the last
        collected shard summaries (queue depth — refreshed by
        ``refresh_shard_stats``); core-link occupancy reads the ledger
        live, committed plus reserved, which is exactly the quantity the
        two-phase protocol admits against.
        """
        children = self._children
        for shard in coordinator.shards:
            label = str(shard.index)
            children["repro_cluster_shard_free_slots", label].set_function(
                lambda i=shard.index: float(coordinator.shard_free_slots(i))
            )
            children["repro_cluster_shard_queue_depth", label].set_function(
                lambda i=shard.index: coordinator.cached_shard_stat(i, "queue_depth")
            )
        for link_id in coordinator.partition.core_link_ids:
            link = coordinator.partition.tree.node(link_id).name
            children["repro_cluster_core_link_occupancy", link].set_function(
                lambda i=link_id: float(coordinator.ledger.occupancy_of(i))
            )
        children["repro_cluster_pending_reservations"].set_function(
            lambda: float(coordinator.ledger.pending_reservations)
        )


def cluster_instruments():
    """The live cluster facade, or the shared no-op when disabled."""
    return _facade(ClusterInstruments, _NULL_FACADE)


# ----------------------------------------------------------------------
# Network guarantee-health gauges
# ----------------------------------------------------------------------


def bind_network_gauges(registry: MetricsRegistry, manager) -> None:
    """Register pull gauges over one live ``NetworkManager``.

    Callbacks are evaluated only when a snapshot/exposition is rendered,
    so binding costs nothing between scrapes.  Re-binding (a second service
    over a new manager in the same process) replaces the callbacks.
    """
    from repro.network.snapshot import utilization_by_level  # local: no cycle

    children = _Children(registry)

    def _row(level: int, attr: str):
        def read() -> float:
            for row in utilization_by_level(manager.state):
                if row.level == level:
                    return float(getattr(row, attr))
            return 0.0

        return read

    for row in utilization_by_level(manager.state):
        for name, stat, attr in (
            ("repro_network_link_occupancy", "mean", "mean_occupancy"),
            ("repro_network_link_occupancy", "max", "max_occupancy"),
            ("repro_network_headroom_mbps", "mean", "mean_headroom_mbps"),
            ("repro_network_headroom_mbps", "min", "min_headroom_mbps"),
        ):
            children[name, row.label, stat].set_function(_row(row.level, attr))
    children["repro_network_max_occupancy"].set_function(
        lambda: float(manager.max_occupancy())
    )
    children["repro_network_tenants"].set_function(
        lambda: float(manager.active_tenancies)
    )
    for state_name, read in (
        ("free", lambda: float(manager.state.total_free_slots)),
        ("used", lambda: float(manager.state.used_slots)),
        ("total", lambda: float(manager.state.total_slots)),
    ):
        children["repro_network_slots", state_name].set_function(read)
