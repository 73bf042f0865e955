"""One workload, start to finish: set up, warm up, measure, crash, recover, check.

``run_timed`` is the untraced run every end-to-end metric comes from (plus the
per-layer metrics that can be read from replies, ``stats`` deltas, ``/proc``
and the journal directory).  ``run_traced`` resumes from the timed run's
warm-up state with the traced in-process stack, then repeats the same
operations on the plain in-process stack to price the tracing itself.
"""

from __future__ import annotations

import copy
import hashlib
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from loadgen import journal_usage, proc_sample
from measure import CPUS, HostSpeed, Samples, Window, percentile
from spec import FAILED_SHARE_LIMIT
from systems import ClusterSystem, ServiceSystem, TcpSystem
from workloads import (
    BurstGenerator,
    ChurnGenerator,
    Generator,
    paper_size,
    uniform_size,
)

#: A fifth of the Section VI-A rates: on the 480-slot tree the paper's rates
#: fill the links at a fifth of the slots, and every reject is a bandwidth
#: reject on the first shard asked.  At these rates slots run out first, so a
#: tenant that no single shard can hold is placed across both.
CLUSTER_RATES_MBPS = (20.0, 40.0, 60.0, 80.0, 100.0)
DIGEST_DECISIONS = 256
#: Journal length ``recover_s`` is scaled to where a start replays everything.
RECOVER_REFERENCE_OPS = 1000
#: End-to-end metrics that exist only where the workload has the traffic for
#: them, and the sample family each is the slice-median p50 of.
SPECIFIC_FAMILIES = {
    "workload.hom_submit_p50_ms": "submit.hom",
    "workload.det_submit_p50_ms": "submit.det",
    "workload.het_submit_p50_ms": "submit.het",
    "workload.resize_p50_ms": "resize",
    "workload.burst_p50_ms": "burst",
    "workload.xshard_submit_p50_ms": "xshard",
}
SPECIFIC = (*SPECIFIC_FAMILIES, "workload.burst_decisions_per_s", "workload.failed_share")


@dataclass(frozen=True)
class Workload:
    name: str
    #: "paper" / "small" run the daemon at that --scale; "cluster" is in-process.
    scale: str
    clients: int
    generator: Callable[[int, int], Generator]  # (seed, client index) -> generator
    #: Highest of p90/p95/p99 that keeps >= 10 samples beyond it in a window.
    tail_percentile: float
    traced_ops: int
    #: Accepted (lo, hi) shares; None where the issue sets no band.
    reject_band: Optional[Tuple[float, float]] = None
    cross_shard_min: float = 0.0
    loadgen_cpu_max: Optional[float] = None


def _capped_het_size(u: float) -> int:
    """Section VI-A sizes, cut at 64 VMs for heterogeneous requests.

    The substring heuristic takes 0.3 s on a 100-VM request and 1-3 s on a
    150-200 VM one; uncut, the one submit in fifty that large was a third of
    the window's time, and how many a window happened to hold decided
    ``ops_per_s``.
    """
    return min(64, paper_size(u))


def _paper_mixed(seed: int, client: int) -> Generator:
    return ChurnGenerator(
        seed, "orchestrator",
        target=1100, band=200,
        kinds={"hom": 10, "det": 4, "het": 6},
        size={"hom": paper_size, "det": paper_size, "het": _capped_het_size},
        resize_share=0.10, stats_share=0.0, warmup_ops=120,
    )


def _frontdoor_small(seed: int, client: int) -> Generator:
    return ChurnGenerator(
        seed * 2 + client, "ab"[client],
        target=170, band=24,
        kinds={"hom": 4, "det": 1},
        size={"hom": uniform_size(2, 6), "det": uniform_size(2, 2)},
        resize_share=0.05, stats_share=0.05, warmup_ops=400,
    )


def _paper_burst(seed: int, client: int) -> Generator:
    return BurstGenerator(seed * 2 + client, "ab"[client], target=1000, warmup_bursts=5)


def _cluster_cross(seed: int, client: int) -> Generator:
    return ChurnGenerator(
        seed, "driver",
        target=445, band=30,
        kinds={"hom": 5, "det": 2, "het": 3},
        size={kind: uniform_size(8, 48) for kind in ("hom", "det", "het")},
        resize_share=0.10, stats_share=0.0, warmup_ops=250,
        rates=CLUSTER_RATES_MBPS,
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-mixed", "paper", 1, _paper_mixed, 95.0, traced_ops=150,
            reject_band=(0.10, 0.20), loadgen_cpu_max=0.25,
        ),
        Workload(
            "frontdoor-small", "small", 2, _frontdoor_small, 99.0, traced_ops=4000,
        ),
        Workload(
            "paper-burst", "paper", 2, _paper_burst, 95.0, traced_ops=640,
            loadgen_cpu_max=0.25,
        ),
        Workload(
            "cluster-cross", "cluster", 1, _cluster_cross, 99.0, traced_ops=1500,
            reject_band=(0.10, 0.25), cross_shard_min=0.15,
        ),
    )
}


def make_system(workload: Workload, in_process: bool = False, tracer=None):
    if workload.scale == "cluster":
        return ClusterSystem(tracer)
    if in_process:
        return ServiceSystem(workload.scale, tracer)
    return TcpSystem(workload.scale)


# ----------------------------------------------------------------------
# Client threads
# ----------------------------------------------------------------------


class Client(threading.Thread):
    """One closed-loop client: next op, send, wait for the reply, book it."""

    def __init__(self, target, generator: Generator, gate: "Gate") -> None:
        super().__init__(daemon=True)
        self.target = target
        self.generator = generator
        self.gate = gate
        self.samples = Samples()
        self.generator_s = 0.0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        generator, gate = self.generator, self.gate
        try:
            while generator.warming or generator.busy():
                self._step(record=False)
            gate.barrier.wait()  # warmed up; the main thread reads the "before" state
            gate.barrier.wait()  # go
            while not gate.reached(self):
                self._step(record=True)
            while generator.busy():
                self._step(record=False)
        except threading.BrokenBarrierError:
            pass
        except BaseException as exc:  # surfaced by the main thread after join
            self.error = exc
            gate.barrier.abort()

    def _step(self, record: bool) -> None:
        t0 = time.perf_counter()
        op = self.generator.next_op()
        sent = time.perf_counter()
        reply = self.target.do(op.command)
        done = time.perf_counter()
        samples = self.generator.ack(op, reply, sent, done)
        if record:
            self.samples.ops.append(done)
            for family, ms in samples:
                self.samples.add(done, family, ms)
            self.generator_s += (sent - t0) + (time.perf_counter() - done)


class Gate:
    """Start line and finish rule shared by the clients of one pass."""

    def __init__(self, clients: int, seconds: Optional[float], ops_each: Optional[int]) -> None:
        self.barrier = threading.Barrier(clients + 1)
        self.seconds = seconds
        self.ops_each = ops_each
        self.start = 0.0

    def reached(self, client: Client) -> bool:
        if self.ops_each is not None:
            return len(client.samples.ops) >= self.ops_each
        return time.perf_counter() >= self.start + self.seconds


def drive(
    system,
    generators: List[Generator],
    seconds: Optional[float] = None,
    ops_each: Optional[int] = None,
    at_start: Callable[[], None] = lambda: None,
) -> Tuple[List[Client], Gate, float]:
    """Warm up, call ``at_start`` with every client parked, then measure.

    Returns the finished clients, the gate (its ``start``), and the wall time
    from the start line to the last client's return.
    """
    gate = Gate(len(generators), seconds, ops_each)
    clients = [Client(system.target(), generator, gate) for generator in generators]
    for client in clients:
        client.start()
    try:
        gate.barrier.wait()
        at_start()
        gate.start = time.perf_counter()
        gate.barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a client failed; its error is raised below
    except BaseException:
        gate.barrier.abort()
        raise
    finally:
        for client in clients:
            client.join()
    wall = time.perf_counter() - gate.start
    for client in clients:
        if client.error is not None:
            raise client.error
    return clients, gate, wall


# ----------------------------------------------------------------------
# The timed run
# ----------------------------------------------------------------------


@dataclass
class Timed:
    end_to_end: Dict[str, Dict[str, Any]]
    #: Readings behind the ``workload.*`` entries of ``layers`` that apply.
    specific: Dict[str, Dict[str, Any]]
    layers: Dict[str, float]
    checks: List[Tuple[str, bool, str]]
    attempted: int
    failed: int
    config: Dict[str, Any]
    digest: Optional[str]
    #: Host-probe snippets per second during the window (see HostSpeed).
    host_per_s: float
    shape: Dict[str, float]
    #: Warm-up state the traced pass resumes from.
    warm_dir: Path = field(repr=False, default=None)
    warm_generators: List[Generator] = field(repr=False, default_factory=list)
    #: First sojourns (single node) or RTTs (cluster) per client, in order.
    submit_ms: List[List[float]] = field(repr=False, default_factory=list)
    overhead_ms: float = 0.0


def _usage(system, directory: Path) -> Dict[str, float]:
    wal_bytes = records = newest = 0
    for journal_dir in system.journal_dirs(directory):
        size, lines, snapshot = journal_usage(journal_dir)
        wal_bytes += size
        records += lines
        newest += snapshot
    coordinator_wal = directory / "coordinator.jsonl"
    return {
        "wal_bytes": wal_bytes,
        "records": records,
        "snapshot_seq": newest,
        "coordinator_bytes": coordinator_wal.stat().st_size if coordinator_wal.exists() else 0,
    }


def _metric(values: List[float], n: int, middle=statistics.median) -> Dict[str, Any]:
    """One end-to-end reading: the middle of its parts, and its sample count.

    Latencies take the median over slices.  Rates take the mean: what moves a
    slice's rate is which requests fell into it, which averages out, and over
    ten seeds the mean was half as spread as the median.
    """
    return {"value": middle(values), "n": n, "parts": values}


def _timed_starts(
    system, host: HostSpeed, directories: List[Path], keep_last: bool = False
) -> List[float]:
    """Start the system on each directory in turn; host-scaled seconds each took.

    Every start but (with ``keep_last``) the last is crashed again at once.
    """
    began = time.perf_counter()
    seconds = []
    for index, directory in enumerate(directories):
        seconds.append(system.start(directory))
        if not (keep_last and index == len(directories) - 1):
            system.crash()
    factor = host.factor(began, time.perf_counter())
    return [value * factor for value in seconds]


def run_timed(
    workload: Workload,
    seed: int,
    seconds: float,
    work: Path,
    host: HostSpeed,
    repeats: Optional[int] = None,
) -> Timed:
    """``repeats`` caps how often set-up and recovery are timed (``--quick``: once)."""
    cores = len(CPUS)
    if workload.clients > cores:
        raise SystemExit(
            f"{workload.name} needs {workload.clients} client threads but this "
            f"host offers {cores} cores; refusing to oversubscribe"
        )
    system = make_system(workload)
    try:
        return _run_timed(workload, system, seed, seconds, work, host, repeats or system.repeats)
    finally:
        system.stop()


def _run_timed(
    workload: Workload,
    system,
    seed: int,
    seconds: float,
    work: Path,
    host: HostSpeed,
    repeats: int,
) -> Timed:
    # Set-up time: median of a few fresh starts; the last one is measured on.
    fresh = [work / f"fresh-{index}" for index in range(repeats)]
    for directory in fresh:
        directory.mkdir(parents=True)
    setup_s = _timed_starts(system, host, fresh, keep_last=True)
    live = fresh[-1]
    config = system.config()

    generators = [workload.generator(seed, index) for index in range(workload.clients)]
    before: Dict[str, Any] = {}
    warm = work / "warm"

    def at_start() -> None:
        # Every client is parked between ops: the journal is quiescent, so a
        # copy of it is exactly what a crash at this instant would leave.
        shutil.copytree(live, warm)
        before["generators"] = copy.deepcopy(generators)
        before["counts"] = [dict(g.ledger.counts) for g in generators]
        before["attempted"] = sum(g.ledger.attempted for g in generators)
        before["stats"] = system.stats()
        before["usage"] = _usage(system, live)
        before["proc"] = proc_sample(system.pid)
        before["cpu"] = time.process_time()

    clients, gate, _wall = drive(system, generators, seconds=seconds, at_start=at_start)
    loadgen_cpu_s = time.process_time() - before["cpu"]
    after_proc = proc_sample(system.pid)
    after_stats = system.stats()
    after_usage = _usage(system, live)

    ledgers = [generator.ledger for generator in generators]
    active = sum(len(ledger.active) for ledger in ledgers)
    used = sum(ledger.used for ledger in ledgers)
    attempted = sum(ledger.attempted for ledger in ledgers)
    failed = sum(ledger.failed for ledger in ledgers)
    checks: List[Tuple[str, bool, str]] = []

    def state_check(label: str, stats: Dict[str, Any]) -> None:
        checks.append((
            f"{label}: ledger == server state",
            stats["active"] == active and stats["used"] == used,
            f"ledger {active} tenants / {used} slots, server "
            f"{stats['active']} / {stats['used']}",
        ))
        checks.append((
            f"{label}: occupancy.max < 1",
            stats["occupancy_max"] < 1.0,
            f"{stats['occupancy_max']:.6f}",
        ))

    state_check("live", after_stats)

    # kill -9, restart on the same journal: every acked operation must be there.
    # (kill -9 keeps the OS cache: this is crash-, not power-loss durability.)
    system.crash()
    postkill_s = system.start(live)
    state_check("after kill -9", system.stats())
    replayed = system.recovered_records
    system.crash()

    # Recovery time.  Behind the daemon a snapshot bounds what a start replays,
    # so the drill uses the warm-up's journal: a fixed length, and a faster
    # server, which writes a longer journal per window, is not charged.  The
    # cluster takes no snapshots: a start replays every operation since the
    # first, at a cost that follows the seed's mix of sizes and kinds, which
    # the few hundred warm-up operations are too few to even out.  There the
    # drill replays the whole window's journal, and the reading is scaled to
    # a journal of RECOVER_REFERENCE_OPS operations.
    source, scale = warm, 1.0
    if system.replays_whole_history:
        source, scale = live, RECOVER_REFERENCE_OPS / attempted
    drills = [work / f"drill-{index}" for index in range(min(repeats, system.drills))]
    for directory in drills:
        shutil.copytree(source, directory)
    recover_s = [scale * value for value in _timed_starts(system, host, drills)]

    window = Window(gate.start, seconds, [client.samples for client in clients], host)
    host_per_s = host.per_second(gate.start, gate.start + seconds)
    counts: Dict[str, int] = {}
    for generator, earlier in zip(generators, before["counts"]):
        for key, value in generator.ledger.counts.items():
            counts[key] = counts.get(key, 0) + value - earlier.get(key, 0)
    ops = attempted - before["attempted"]
    # RSS at the start line, after a fixed number of operations: the daemon's
    # RSS climbs through a window (server.rss_growth_kb_per_op), so its peak
    # would mostly say how many operations the window happened to hold.
    end_to_end, specific = _end_to_end(
        workload, window, setup_s, recover_s, before["proc"]["rss_mb"]
    )
    decided = counts.get("admitted", 0) + counts.get("rejected", 0)
    shape = {
        "reject_share": counts.get("rejected", 0) / decided if decided else 0.0,
        "cross_shard_share": counts.get("route.cross_shard", 0) / decided if decided else 0.0,
        "failed_share": failed / attempted,
        "loadgen_cpu_share": (
            sum(client.generator_s for client in clients) / seconds
            if system.in_process else loadgen_cpu_s / seconds
        ),
        "ops": ops,
    }
    specific["workload.failed_share"] = {"value": shape["failed_share"], "n": attempted}
    checks.extend(_shape_checks(workload, shape))
    layers = {name: specific[name]["value"] if name in specific else 0.0 for name in SPECIFIC}
    layers.update(_untraced_layers(
        window, counts, ops, shape, before, after_stats["raw"], after_usage, after_proc,
        config, replayed, after_usage["records"] / postkill_s, host_per_s,
    ))

    # With one driver the op sequence, and so every decision, repeats exactly.
    digest = None
    if workload.clients == 1:
        head = generators[0].ledger.decisions[:DIGEST_DECISIONS]
        digest = hashlib.sha256(repr(head).encode()).hexdigest()[:16]

    first = "sojourn" if not system.in_process else "submit."
    return Timed(
        end_to_end=end_to_end,
        specific=specific,
        layers=layers,
        checks=checks,
        attempted=attempted,
        failed=failed,
        config=config,
        digest=digest,
        host_per_s=host_per_s,
        shape=shape,
        warm_dir=warm,
        warm_generators=before["generators"],
        submit_ms=[window.in_order(client.samples, first) for client in clients],
        overhead_ms=_mean(window.pooled("overhead")),
    )


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _end_to_end(
    workload: Workload,
    window: Window,
    setup_s: List[float],
    recover_s: List[float],
    rss_mb: float,
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Dict[str, Any]]]:
    """``(core, specific)`` readings.

    ``core`` holds the metrics every workload produces, the ones
    ``BENCHMARK.json`` declares as ``end_to_end``.  ``specific`` holds the
    end-to-end metrics only some workloads have (a latency per request kind,
    bursts, cross-shard submits); they are reported as ``workload.*``.
    """
    submits = window.families("submit.")
    pooled = window.pooled(*submits)
    core = {
        "setup_s": _metric(setup_s, len(setup_s)),
        "recover_s": _metric(recover_s, len(recover_s)),
        "server_rss_mb": _metric([rss_mb], 1),
        "ops_per_s": _metric(window.rate_per_slice(), sum(window.op_counts), statistics.mean),
        "submit_p50_ms": _metric(window.p50_per_slice(*submits), len(pooled)),
        "submit_tail_ms": {
            "value": percentile(pooled, workload.tail_percentile),
            "n": len(pooled),
            "percentile": workload.tail_percentile,
        },
        "release_p50_ms": _metric(
            window.p50_per_slice("release"), len(window.pooled("release"))
        ),
    }
    specific = {}
    for name, family in SPECIFIC_FAMILIES.items():
        values = window.p50_per_slice(family)
        if values:
            specific[name] = _metric(values, len(window.pooled(family)))
    if "workload.burst_p50_ms" in specific:
        specific["workload.burst_decisions_per_s"] = _metric(
            window.rate_per_slice(*submits), len(pooled), statistics.mean
        )
    return core, specific


def _shape_checks(workload: Workload, shape: Dict[str, float]) -> List[Tuple[str, bool, str]]:
    checks = [(
        f"failed_share <= {FAILED_SHARE_LIMIT}",
        shape["failed_share"] <= FAILED_SHARE_LIMIT,
        f"{shape['failed_share']:.5f}",
    )]
    if workload.reject_band is not None:
        lo, hi = workload.reject_band
        checks.append((
            f"reject share in [{lo}, {hi}]",
            lo <= shape["reject_share"] <= hi,
            f"{shape['reject_share']:.3f}",
        ))
    if workload.cross_shard_min:
        checks.append((
            f"cross_shard share >= {workload.cross_shard_min}",
            shape["cross_shard_share"] >= workload.cross_shard_min,
            f"{shape['cross_shard_share']:.3f}",
        ))
    if workload.loadgen_cpu_max is not None:
        checks.append((
            f"loadgen cpu share < {workload.loadgen_cpu_max} of a core",
            shape["loadgen_cpu_share"] < workload.loadgen_cpu_max,
            f"{shape['loadgen_cpu_share']:.3f}",
        ))
    return checks


def _untraced_layers(
    window: Window,
    counts: Dict[str, int],
    ops: int,
    shape: Dict[str, float],
    before: Dict[str, Any],
    after_raw: Dict[str, Any],
    after_usage: Dict[str, float],
    after_proc: Dict[str, float],
    config: Dict[str, Any],
    replayed: int,
    recovery_rate: float,
    host_per_s: float,
) -> Dict[str, float]:
    """Per-layer metrics read from replies, stats deltas, /proc and the journal."""
    before_raw = before["stats"]["raw"]

    def delta(*path: str) -> float:
        old, new = before_raw, after_raw
        for key in path:
            old, new = old.get(key, {}), new.get(key, {})
        return (new or 0) - (old or 0)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    def p50(family: str) -> float:
        values = window.pooled(family)
        return percentile(values, 50.0) if values else 0.0

    records = after_usage["records"] - before["usage"]["records"]
    resizes = sum(value for key, value in counts.items() if key.startswith("resize."))
    decided = counts.get("admitted", 0) + counts.get("rejected", 0)
    batches = delta("counters", "batches")
    coalesced = delta("counters", "coalesced")
    layers = {
        "frontdoor.overhead_p50_ms": p50("overhead"),
        "service.sojourn_p50_ms": p50("sojourn"),
        "service.shed_share": ratio(delta("counters", "shed"), delta("counters", "submitted")),
        "service.coalesce_ratio": ratio(coalesced, batches + coalesced),
        "service.mean_batch_size": ratio(batches + coalesced, batches),
        "manager.reject_share": shape["reject_share"],
        "manager.resize_in_place_share": ratio(counts.get("resize.in_place", 0), resizes),
        "journal.records_per_op": ratio(records, ops),
        "journal.bytes_per_record": ratio(
            after_usage["wal_bytes"] - before["usage"]["wal_bytes"], records
        ),
        "journal.snapshots": ratio(
            after_usage["snapshot_seq"] - before["usage"]["snapshot_seq"],
            config.get("snapshot_every", 0),
        ),
        "recovery.records_replayed": float(replayed),
        "recovery.records_per_s": recovery_rate,
        "coordinator.wal_bytes_per_op": ratio(
            after_usage["coordinator_bytes"] - before["usage"]["coordinator_bytes"], ops
        ),
        "loadgen.cpu_share": shape["loadgen_cpu_share"],
        "calib.ops_per_s": host_per_s,
    }
    for route in ("local", "cross_shard", "reject"):
        layers[f"coordinator.route_share.{route}"] = ratio(
            counts.get(f"route.{route}", 0), decided
        )
    for name, key, scale in (
        ("cpu_ms", "cpu_s", 1000.0),
        ("write_bytes", "write_bytes", 1.0),
        ("write_syscalls", "write_syscalls", 1.0),
        ("rss_growth_kb", "rss_mb", 1024.0),
    ):
        layers[f"server.{name}_per_op"] = ratio(
            scale * (after_proc[key] - before["proc"][key]), ops
        )
    layers["server.rss_peak_mb"] = after_proc["rss_peak_mb"]
    return layers


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------

ROOTS = ("submit", "release", "resize", "stats", "status")


def run_traced(
    workload: Workload,
    timed: Timed,
    work: Path,
    ops: int,
    trace_path: Optional[Path],
    host: HostSpeed,
) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
    """Per-layer metrics from spans, and the ranked ``(layer, ms per op)`` table.

    Both passes resume from a copy of the timed run's warm-up journal with a
    copy of its generators, so they replay the first ``ops`` operations of the
    measured window: once through the traced stack, once through the plain one.
    """
    from tracing import Tracer, self_times

    ops_each = max(1, ops // workload.clients)
    tracer = Tracer()
    walls: Dict[str, float] = {}
    speed: Dict[str, float] = {}
    for label, pass_tracer in (("traced", tracer), ("plain", None)):
        directory = work / f"trace-{label}"
        shutil.copytree(timed.warm_dir, directory)
        system = make_system(workload, in_process=True, tracer=pass_tracer)
        system.start(directory)
        try:
            _clients, gate, wall = drive(
                system, copy.deepcopy(timed.warm_generators), ops_each=ops_each
            )
        finally:
            system.stop()
        # One host-speed factor per pass scales every duration taken in it.
        speed[label] = host.factor(gate.start, gate.start + wall)
        walls[label] = wall * speed[label]
    if trace_path is not None:
        tracer.dump(trace_path)
    ms = 1000.0 * speed["traced"]  # span seconds -> reference-host milliseconds

    spans = tracer.spans
    own = self_times(spans)
    named: Dict[str, List[Any]] = {}
    for span in spans:
        named.setdefault(span.name, []).append(span)
    roots = [span for span in spans if span.name in ROOTS and span.parent is None]
    root_of = {span.op: span.name for span in roots}
    n_ops = len(roots)
    root_s = sum(span.end - span.start for span in roots)

    def total(name: str, tag: Optional[str] = None) -> Tuple[float, int]:
        chosen = [s for s in named.get(name, []) if tag is None or s.tag == tag]
        return sum(s.end - s.start for s in chosen), len(chosen)

    def per_call_ms(name: str, tag: Optional[str] = None) -> float:
        seconds, calls = total(name, tag)
        return ms * seconds / calls if calls else 0.0

    def self_ms(name: str) -> float:
        chosen = named.get(name, [])
        return ms * sum(own[s.id] for s in chosen) / len(chosen) if chosen else 0.0

    sojourns = [span.tag * speed["traced"] for span in roots if isinstance(span.tag, float)]
    decide_s = total("manager.request")[0] + sum(
        s.end - s.start for s in named.get("journal.append", []) if root_of.get(s.op) == "submit"
    )
    shard_calls = sum(len(named.get(f"shard.{call}", [])) for call in ("submit", "adopt", "release", "resize"))
    cluster = workload.scale == "cluster"
    layers = {
        "codec.decode_us_per_op": 1000.0 * ms * total("codec.decode")[0] / n_ops,
        "codec.encode_us_per_op": 1000.0 * ms * total("codec.encode")[0] / n_ops,
        "allocation.hom.admit_ms_per_call": per_call_ms("allocation.hom", "admit"),
        "allocation.hom.reject_ms_per_call": per_call_ms("allocation.hom", "reject"),
        "allocation.det.ms_per_call": per_call_ms("allocation.det"),
        "allocation.het.admit_ms_per_call": per_call_ms("allocation.het", "admit"),
        "allocation.het.reject_ms_per_call": per_call_ms("allocation.het", "reject"),
        "allocation.batch.ms_per_call": per_call_ms("allocation.batch"),
        "manager.commit_self_ms_per_op": self_ms("manager.request"),
        "manager.release_ms_per_op": per_call_ms("manager.release"),
        "manager.resize_ms_per_op": per_call_ms("manager.resize"),
        "journal.append_ms_per_record": per_call_ms("journal.append"),
        "journal.snapshot_ms": per_call_ms("journal.snapshot"),
        "journal.snapshot_stall_share": total("journal.snapshot")[0] / root_s,
        # Sojourn the service reports, less the manager and journal spans it
        # covers: queueing, lock waits and thread hand-offs.
        "service.queue_lock_wait_ms_per_op": (
            (sum(sojourns) - ms * decide_s) / len(sojourns) if sojourns else 0.0
        ),
        "coordinator.submit_self_ms_per_op": self_ms("submit") if cluster else 0.0,
        "coordinator.release_self_ms_per_op": self_ms("release") if cluster else 0.0,
        "shard.submit_ms_per_call": per_call_ms("shard.submit"),
        "shard.adopt_ms_per_call": per_call_ms("shard.adopt"),
        "shard.calls_per_op": shard_calls / n_ops,
        "trace.overhead_share": (walls["traced"] - walls["plain"]) / walls["plain"],
    }

    # Does the traced stack explain what the timed run measured?  Over the
    # same first decisions: the timed run's submit time against the traced
    # run's layer sum (its sojourn, or the coordinator call) plus the front
    # door's share measured in the timed run.
    if cluster:
        explained = [ms * (s.end - s.start) for s in roots if s.name == "submit"]
    else:
        explained = [sojourn + timed.overhead_ms for sojourn in sojourns]
    each = max(1, len(explained) // workload.clients)
    measured = [value for client in timed.submit_ms for value in client[:each]]
    if not cluster:
        measured = [value + timed.overhead_ms for value in measured]
    layers["trace.unattributed_share"] = (
        (_mean(measured) - _mean(explained)) / _mean(measured) if measured and explained else 0.0
    )

    # Ranked self time per operation: every named span, what is left of the
    # operation outside all of them (service or coordinator code, queues,
    # locks, hand-offs between threads), and the front door, which only the
    # timed run passes through.
    table: Dict[str, float] = {}
    for span in spans:
        name = span.name
        if span.name in ROOTS:
            name = "coordinator (self)" if cluster else "service (queues, locks, hand-offs)"
        elif span.name.startswith("allocation."):
            name = f"{span.name}.{span.tag}" if span.tag else span.name
        table[name] = table.get(name, 0.0) + ms * own[span.id] / n_ops
    if timed.overhead_ms:
        table["frontdoor (timed run: RTT - reported sojourn)"] = timed.overhead_ms
    return layers, sorted(table.items(), key=lambda row: -row[1])
