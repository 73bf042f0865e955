"""Line-delimited JSON TCP server for the admission service.

Protocol: one JSON object per line in each direction, UTF-8, ``\\n``
terminated.  Every response carries ``"ok"``; failures add ``"error"``.

Operations::

    {"op": "ping"}
    {"op": "submit", "request": {...}, "priority": 0, "tenant": "gold",
     "timeout_s": 5.0, "wait": true, "wait_timeout": 10.0}
    {"op": "status", "ticket": 7}
    {"op": "release", "request_id": 3}
    {"op": "resize", "request_id": 3, "new_n": 12, "new_mu": 250.0,
     "new_sigma": 90.0, "idem": "client-key"}
    {"op": "stats"}
    {"op": "metrics"}
    {"op": "obs", "dump": false}
    {"op": "snapshot"}
    {"op": "shutdown"}

Request payloads are the :mod:`repro.service.codec` request encoding, e.g.
``{"kind": "homogeneous", "n_vms": 8, "mean": 200.0, "std": 80.0}``.

One front end serves this protocol: the ``asyncio`` loop of
:mod:`repro.service.aio`, which runs each command on its own thread.  This
module owns the op table (:func:`dispatch_command`), the error envelope
(:func:`error_response`) and the ``svc-repro serve`` wiring, which prints a
single machine-readable ready line so scripts and tests can discover the
bound port::

    {"event": "ready", "host": "127.0.0.1", "port": 40123, "pid": 1234, ...}
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.allocation.dispatch import ALLOCATOR_FACTORIES, allocator_by_name
from repro.experiments.config import SCALES
from repro.faults.failpoints import FAILPOINTS, arm_from_spec
from repro.logconfig import LOG_LEVELS, setup_logging
from repro.manager.network_manager import NetworkManager
from repro.obs.flightrec import configure_flight_recorder, flight_recorder
from repro.obs.instruments import admission_instruments
from repro.obs.instruments import configure as configure_obs
from repro.obs.instruments import outage_monitor
from repro.service.codec import CodecError
from repro.service.concurrency import AdmissionService
from repro.service.degrade import DegradationLadder
from repro.service.errors import ServiceError
from repro.service.journal import DurabilityStore
from repro.service.queue import MODE_ONLINE, MODES
from repro.service.recovery import recover_manager, snapshot_payload
from repro.topology.builder import build_datacenter

logger = logging.getLogger(__name__)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7421


def error_response(exc: BaseException) -> Dict[str, Any]:
    """The ``ok: false`` envelope for one failed protocol op.

    Typed :class:`ServiceError` sheds keep their machine-readable ``code``
    and ``retry_after`` hint; codec errors surface their message; anything
    else is reported by exception type without killing the connection.
    """
    if isinstance(exc, ServiceError):
        response: Dict[str, Any] = {"ok": False, "error": str(exc)}
        if exc.code is not None:
            response["code"] = exc.code
        if exc.retry_after is not None:
            response["retry_after"] = exc.retry_after
        return response
    if isinstance(exc, CodecError):
        return {"ok": False, "error": str(exc)}
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def dispatch_command(
    service: AdmissionService,
    command: Dict[str, Any],
    request_shutdown: Callable[[], None],
) -> Dict[str, Any]:
    """Execute one decoded protocol command against the service.

    This is the single source of truth for the op table: the async front
    door calls it on the event-loop thread (``submit`` excepted — that path
    never blocks on a worker's decision, see ``repro.service.aio``).
    Raises the typed service/codec errors; callers map them through
    :func:`error_response`.
    """
    op = command.get("op")
    # The degradation gate runs before any work: in fast-fail even
    # reads shed (with code + retry_after), keeping ping/shutdown as
    # the operator's lifeline.
    if isinstance(op, str):
        service.gate(op)
    if op == "ping":
        return {"ok": True, "pong": True, "state": service.degradation_state()}
    if op == "submit":
        ticket = service.submit(
            command["request"],
            priority=int(command.get("priority", 0)),
            timeout_s=command.get("timeout_s"),
            wait=bool(command.get("wait", True)),
            wait_timeout=command.get("wait_timeout"),
            idempotency_key=command.get("idem"),
            tenant=command.get("tenant"),
        )
        return {"ok": True, **ticket.describe()}
    if op == "status":
        status = service.status(int(command["ticket"]))
        if status is None:
            return {"ok": False, "error": f"unknown ticket {command['ticket']}"}
        return {"ok": True, **status}
    if op == "release":
        released = service.release(int(command["request_id"]))
        if not released:
            return {
                "ok": False,
                "error": f"request {command['request_id']} is not active",
            }
        return {"ok": True, "released": int(command["request_id"])}
    if op == "resize":
        new_n = command.get("new_n")
        new_mu = command.get("new_mu")
        new_sigma = command.get("new_sigma")
        decision = service.resize(
            int(command["request_id"]),
            new_n=int(new_n) if new_n is not None else None,
            new_mu=float(new_mu) if new_mu is not None else None,
            new_sigma=float(new_sigma) if new_sigma is not None else None,
            idempotency_key=command.get("idem"),
        )
        if decision.get("outcome") == "unknown":
            return {
                "ok": False,
                "error": f"request {command['request_id']} is not active",
            }
        return {"ok": True, **decision}
    if op == "stats":
        return {"ok": True, "stats": service.stats()}
    if op == "metrics":
        return {"ok": True, **service.metrics()}
    if op == "obs":
        tracer = getattr(admission_instruments(), "tracer", None)
        recorder = flight_recorder()
        payload: Dict[str, Any] = {
            "pid": os.getpid(),
            "flight": recorder.events(limit=command.get("limit")),
            "traces": tracer.recent() if tracer is not None else [],
        }
        if command.get("dump"):
            payload["dump_path"] = recorder.maybe_dump("request")
        return {"ok": True, "obs": payload}
    if op == "snapshot":
        path = service.take_snapshot()
        if path is None:
            return {"ok": False, "error": "durability is not enabled"}
        return {"ok": True, "snapshot": path}
    if op == "shutdown":
        request_shutdown()
        return {"ok": True, "bye": True}
    return {"ok": False, "error": f"unknown op {op!r}"}


# ----------------------------------------------------------------------
# ``svc-repro serve``
# ----------------------------------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svc-repro serve",
        description="Run the admission-control daemon over a simulated datacenter.",
    )
    parser.add_argument("--host", default=DEFAULT_HOST, help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port; 0 picks an ephemeral port (default: {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="datacenter topology to manage (default: small)",
    )
    parser.add_argument(
        "--epsilon",
        type=float,
        default=0.05,
        help="SLA risk factor of Eq. (1) (default: 0.05)",
    )
    parser.add_argument(
        "--allocator",
        choices=sorted(ALLOCATOR_FACTORIES),
        default="default",
        help="allocation stack (default: the paper's system)",
    )
    parser.add_argument(
        "--mode",
        choices=MODES,
        default=MODE_ONLINE,
        help="online = drop rejected requests; batch = park and retry on departures",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="admission worker threads (default: 4)"
    )
    parser.add_argument(
        "--batch-max",
        type=int,
        default=8,
        help="coalesce up to this many consecutive same-shape queued "
        "requests into one admission batch sharing DP tables; 1 disables "
        "(default: 8)",
    )
    parser.add_argument(
        "--batch-linger-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="with an empty queue and a non-full batch, wait this long for "
        "more same-shape arrivals before dispatching (default: 0)",
    )
    parser.add_argument(
        "--tenant-quota",
        type=int,
        default=0,
        help="per-tenant queue bound: shed a tenant's submits with "
        "code=over_quota beyond this many waiting; 0 disables (default: 0)",
    )
    parser.add_argument(
        "--tenant-weight",
        action="append",
        default=None,
        metavar="TENANT=W",
        help="deficit-round-robin weight for one tenant (repeatable), e.g. "
        "--tenant-weight gold=4 --tenant-weight batch=1",
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        help="durability directory (WAL + snapshots); omit for in-memory only",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=256,
        help="journal records between automatic snapshots (default: 256)",
    )
    parser.add_argument(
        "--fsync",
        action="store_true",
        help="fsync the journal on every append (durable against power loss)",
    )
    parser.add_argument(
        "--no-recover",
        action="store_true",
        help="ignore any existing journal instead of recovering from it",
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default="info",
        help="stderr log verbosity (default: info)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="N",
        help="record a full admission trace every N requests (default: 64)",
    )
    parser.add_argument(
        "--no-metrics",
        action="store_true",
        help="disable the observability layer (no-op instruments, bare endpoint)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        help="bounded-queue backpressure: shed submits beyond this many "
        "waiting requests; 0 disables the bound (default: 1024)",
    )
    parser.add_argument(
        "--default-timeout-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="server-side deadline for submits that carry no timeout_s "
        "(default: none)",
    )
    parser.add_argument(
        "--client-timeout-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="drop connections idle/stalled longer than this (slow-client "
        "defense; default: none)",
    )
    parser.add_argument(
        "--probe-interval-s",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="base interval between journal health probes while degraded "
        "(default: 1.0)",
    )
    parser.add_argument(
        "--failpoints",
        default=None,
        metavar="SPEC",
        help="arm fault-injection failpoints, e.g. "
        "'journal.write=error:p=0.01,snapshot.write=corrupt' "
        "(testing/chaos only; crashes exit the process)",
    )
    return parser


def _parse_tenant_weights(specs: Optional[List[str]]) -> Optional[Dict[str, int]]:
    """Parse repeated ``--tenant-weight TENANT=W`` flags into a dict."""
    if not specs:
        return None
    weights: Dict[str, int] = {}
    for spec in specs:
        tenant, sep, raw = spec.partition("=")
        if not sep or not tenant:
            raise SystemExit(
                f"--tenant-weight expects TENANT=WEIGHT, got {spec!r}"
            )
        try:
            weights[tenant] = int(raw)
        except ValueError:
            raise SystemExit(
                f"--tenant-weight {spec!r}: weight must be an integer"
            ) from None
    return weights


def _build_service(args: argparse.Namespace) -> AdmissionService:
    store: Optional[DurabilityStore] = None
    epsilon = args.epsilon
    scale_name = args.scale
    recovered = None
    if args.journal_dir is not None:
        store = DurabilityStore(
            Path(args.journal_dir),
            fsync=args.fsync,
            snapshot_every=args.snapshot_every,
        )
        config = store.read_config()
        if config is not None and not args.no_recover:
            # The journal is only replayable over the topology it was
            # recorded against: persisted config wins over the flags.
            if config.get("scale", scale_name) != scale_name:
                logger.warning(
                    "journal was recorded at scale %r; overriding --scale %r",
                    config["scale"], scale_name,
                )
            scale_name = config.get("scale", scale_name)
            if float(config.get("epsilon", epsilon)) != epsilon:
                logger.warning(
                    "journal was recorded with epsilon %s; overriding --epsilon %s",
                    config["epsilon"], epsilon,
                )
            epsilon = float(config.get("epsilon", epsilon))
        store.write_config(
            {"scale": scale_name, "epsilon": epsilon, "mode": args.mode}
        )
    tree = build_datacenter(SCALES[scale_name].spec)
    allocator = allocator_by_name(args.allocator)
    if store is not None and not args.no_recover:
        manager, report = recover_manager(store, tree, epsilon=epsilon, allocator=allocator)
        recovered = report
        if report.replayed_records or report.used_snapshot:
            logger.info(
                "recovered: snapshot seq %s, %d journal records replayed "
                "(%d admits, %d releases), %d active tenancies, "
                "%d idempotency key(s) indexed",
                report.snapshot_seq, report.replayed_records,
                report.admits_replayed, report.releases_replayed,
                manager.active_tenancies, len(report.idempotency_index),
            )
            # Checkpoint the recovered state so the next crash replays only
            # the delta, then keep journaling after the recovered prefix.
            store.write_snapshot(snapshot_payload(manager))
    else:
        manager = NetworkManager(tree, epsilon=epsilon, allocator=allocator)
    service = AdmissionService(
        manager,
        store=store,
        mode=args.mode,
        workers=args.workers,
        max_queue_depth=args.max_queue or None,
        default_timeout_s=args.default_timeout_s,
        degradation=(
            DegradationLadder(probe_interval=args.probe_interval_s)
            if store is not None
            else None
        ),
        idempotency_index=recovered.idempotency_index if recovered else None,
        batch_max=args.batch_max,
        batch_linger_s=args.batch_linger_ms / 1000.0,
        tenant_quota=args.tenant_quota or None,
        tenant_weights=_parse_tenant_weights(args.tenant_weight),
    )
    # Publish the SLA bound so the empirical-outage gauges compare against
    # the epsilon this daemon actually guarantees (Eq. 1).
    outage_monitor().set_epsilon(epsilon)
    service.recovery_report = recovered  # type: ignore[attr-defined]
    service.effective_scale = scale_name  # type: ignore[attr-defined]
    return service


def announce_ready(
    service: AdmissionService, args: argparse.Namespace, host: str, port: int
) -> None:
    """Print the machine-readable ready line on stdout.

    The ready line is protocol output, not logging: it must stay the first
    (and only) line scripts see on stdout.
    """
    ready = {
        "event": "ready",
        "host": host,
        "port": port,
        "pid": os.getpid(),
        "scale": getattr(service, "effective_scale", args.scale),
        "mode": args.mode,
        "frontend": "async",
        "epsilon": service.manager.epsilon,
        "journal_dir": args.journal_dir,
    }
    report = getattr(service, "recovery_report", None)
    if report is not None:
        ready["recovered_records"] = report.replayed_records
        ready["active_tenancies"] = service.manager.active_tenancies
    sys.stdout.write(json.dumps(ready) + "\n")
    sys.stdout.flush()


def final_shutdown(service: AdmissionService) -> None:
    """Common teardown: stop workers, checkpoint, close the journal."""
    service.stop()
    if service.store is not None:
        # A clean shutdown checkpoints, so restart needs no replay.
        service.store.write_snapshot(snapshot_payload(service.manager))
        service.store.close()
    logger.info("server stopped")


def dump_flight_on_sigusr2() -> None:
    path = flight_recorder().maybe_dump("sigusr2")
    logger.info("flight recorder dump: %s", path or "skipped (no --journal-dir)")


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``svc-repro serve``."""
    args = build_serve_parser().parse_args(argv)
    setup_logging(args.log_level)
    if args.no_metrics:
        configure_obs(enabled=False)
    elif args.trace_sample is not None:
        configure_obs(sample_every=args.trace_sample)
    if args.failpoints:
        # A real daemon dies on a crash-mode failpoint (os._exit), unlike
        # the in-process chaos harness which catches InjectedCrash.
        FAILPOINTS.crash_mode = "exit"
        armed = arm_from_spec(args.failpoints)
        logger.warning("fault injection armed: %d failpoint(s)", armed)
    service = _build_service(args)
    if args.journal_dir is not None:
        # Crash/degradation/SIGUSR2 flight dumps land next to the journal.
        configure_flight_recorder(dump_dir=args.journal_dir)
    from repro.service.aio import run_async_server  # local: aio imports this module

    return run_async_server(service, args)
