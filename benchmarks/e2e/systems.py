"""The three ways the benchmark stands the system up.

``TcpSystem`` is the real daemon behind loopback TCP (the timed run of the
single-node workloads).  ``ServiceSystem`` is the same stack in this process,
optionally built from the traced wrappers (the traced run).  ``ClusterSystem``
is the in-process two-shard cluster, timed and traced: the cluster has no TCP
front end of its own.

Each ``start(directory)`` builds on whatever ``directory`` holds — nothing for
a fresh start, a journal for a recovery — and returns the seconds it took.
Each ``target()`` gives one client something with ``do(command) -> reply``
that speaks the wire commands the generators emit.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional

from loadgen import LineClient, ServerProcess


class NullTracer:
    """Stands in for ``tracing.Tracer`` on untraced passes: the same calls,
    nothing recorded."""

    def op(self, _name: str):
        return nullcontext()

    def span(self, _name: str):
        return nullcontext()

    def bind(self, _request: Any) -> None:
        pass

    def forget(self, _request: Any) -> None:
        pass


def _normal_stats(active: int, used: int, occupancy_max: float, raw: Dict[str, Any]):
    return {"active": active, "used": used, "occupancy_max": occupancy_max, "raw": raw}


class TcpSystem:
    in_process = False
    #: Fresh starts and recovery drills timed per run; the medians are reported.
    repeats = 3
    drills = 5
    #: The daemon snapshots: a start loads the newest and replays the tail.
    replays_whole_history = False

    def __init__(self, scale: str) -> None:
        self.scale = scale
        self.server: Optional[ServerProcess] = None
        self._clients: List[LineClient] = []

    def start(self, directory: Path) -> float:
        self.server = ServerProcess(self.scale, directory).start()
        self._control = self._connect()
        return self.server.spawn_s

    def _connect(self) -> LineClient:
        client = self.server.connect()
        self._clients.append(client)
        return client

    @property
    def pid(self) -> int:
        return self.server.pid

    @property
    def recovered_records(self) -> int:
        return int(self.server.ready.get("recovered_records", 0))

    def journal_dirs(self, directory: Path) -> List[Path]:
        return [directory]

    def target(self) -> "TcpTarget":
        return TcpTarget(self._connect())

    def stats(self) -> Dict[str, Any]:
        raw = self._control.call({"op": "stats"})["stats"]
        return _normal_stats(
            raw["active_tenancies"], raw["slots"]["used"], raw["occupancy"]["max"], raw
        )

    def config(self) -> Dict[str, Any]:
        """The daemon's effective settings, as its own ``stats`` reports them."""
        raw = self.stats()["raw"]
        return {
            "scale": self.server.ready["scale"],
            "frontend": self.server.ready["frontend"],
            "epsilon": self.server.ready["epsilon"],
            "mode": raw["mode"],
            "workers": raw["workers"],
            "max_queue": raw["queue"]["limit"],
            "batch_max": raw["batching"]["batch_max"],
            "batch_linger_s": raw["batching"]["linger_s"],
            "tenant_quota": raw["tenants"]["quota"],
            "snapshot_every": raw["durability"]["snapshot_every"],
            "fsync": True,
        }

    def crash(self) -> None:
        self._close_clients()
        self.server.kill9()

    def stop(self) -> None:
        self._close_clients()
        if self.server is not None:
            self.server.stop()

    def _close_clients(self) -> None:
        for client in self._clients:
            client.close()
        self._clients = []


class TcpTarget:
    def __init__(self, client: LineClient) -> None:
        self._client = client

    def do(self, command: Dict[str, Any]) -> Dict[str, Any]:
        return self._client.call(command)


class ServiceSystem:
    """``AdmissionService`` with ``serve``'s shipped defaults, in this process."""

    in_process = True

    def __init__(self, scale: str, tracer=None) -> None:
        self.scale = scale
        self.tracer = tracer
        self.service = None
        self.pid = os.getpid()

    def start(self, directory: Path) -> float:
        from repro.allocation.dispatch import allocator_by_name
        from repro.experiments.config import SCALES
        from repro.manager.network_manager import NetworkManager
        from repro.service.concurrency import AdmissionService
        from repro.service.degrade import DegradationLadder
        from repro.service.journal import DurabilityStore
        from repro.service.recovery import recover_manager
        from repro.service.server import build_serve_parser
        from repro.topology.builder import build_datacenter
        from tracing import TracedAllocator, TracedManager, TracedStore

        started = time.perf_counter()
        # The shipped parser is the source of the defaults, as in TcpSystem.
        args = build_serve_parser().parse_args(["--scale", self.scale, "--fsync"])
        tree = build_datacenter(SCALES[self.scale].spec)
        allocator = allocator_by_name(args.allocator)
        store_kwargs = dict(fsync=args.fsync, snapshot_every=args.snapshot_every)
        if self.tracer is not None:
            store = TracedStore(directory, self.tracer, **store_kwargs)
        else:
            store = DurabilityStore(directory, **store_kwargs)
        recovered, report = recover_manager(
            store, tree, epsilon=args.epsilon, allocator=allocator
        )
        # Traced and untraced passes re-adopt the recovered tenancies in the
        # same order into a fresh manager, so both start bit-identical.
        if self.tracer is not None:
            manager = TracedManager(
                tree, recovered.epsilon, TracedAllocator(allocator, self.tracer), self.tracer
            )
        else:
            manager = NetworkManager(tree, epsilon=recovered.epsilon, allocator=allocator)
        for tenancy in recovered.tenancies():
            manager.adopt(tenancy.allocation)
        manager.next_request_id = recovered.next_request_id
        manager.admitted_count = recovered.admitted_count
        manager.rejected_count = recovered.rejected_count
        manager.resize_counts.update(recovered.resize_counts)
        self.store = store
        self.service = AdmissionService(
            manager,
            store=store,
            mode=args.mode,
            workers=args.workers,
            max_queue_depth=args.max_queue or None,
            default_timeout_s=args.default_timeout_s,
            degradation=DegradationLadder(probe_interval=args.probe_interval_s),
            idempotency_index=report.idempotency_index,
            batch_max=args.batch_max,
            batch_linger_s=args.batch_linger_ms / 1000.0,
            tenant_quota=args.tenant_quota or None,
        )
        self.service.start()
        return time.perf_counter() - started

    def target(self) -> "ServiceTarget":
        return ServiceTarget(self.service, self.tracer)

    def stats(self) -> Dict[str, Any]:
        raw = self.service.stats()
        return _normal_stats(
            raw["active_tenancies"], raw["slots"]["used"], raw["occupancy"]["max"], raw
        )

    def stop(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.store.close()
            self.service = None


class ServiceTarget:
    """What the front door does around the core: decode, dispatch, encode."""

    def __init__(self, service, tracer) -> None:
        from repro.service.codec import CodecError, request_from_dict
        from repro.service.errors import ServiceError
        from repro.service.server import dispatch_command, error_response

        self._service = service
        self._tracer = tracer if tracer is not None else NullTracer()
        self._decode = request_from_dict
        self._dispatch = dispatch_command
        self._error = error_response
        self._expected = (ServiceError, CodecError)

    def do(self, command: Dict[str, Any]) -> Dict[str, Any]:
        tracer = self._tracer
        line = json.dumps(command)
        with tracer.op(command["op"]) as root:
            with tracer.span("codec.decode"):
                command = json.loads(line)
                if command["op"] == "submit":
                    command["request"] = self._decode(command["request"])
                    tracer.bind(command["request"])
            try:
                reply = self._dispatch(self._service, command, lambda: None)
            except self._expected as exc:
                reply = self._error(exc)
            with tracer.span("codec.encode"):
                json.dumps(reply)
            if root is not None:
                root.tag = reply.get("latency_ms")
        return reply


class ClusterSystem:
    """``ClusterPartition.build(SMALL_SPEC, 2)``, two ``LocalShard``s and a
    ``ClusterCoordinator``, all three WALs fsynced."""

    in_process = True
    #: Building the cluster takes 4 ms, so many repeats cost little: a hundred
    #: last long enough for the host-speed probes to sample the interval.
    repeats = 100
    #: A recovery replays the whole window's journal, a second or two.
    drills = 5
    replays_whole_history = True
    SHARDS = 2

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.coordinator = None
        self.shards: List[Any] = []
        self.pid = os.getpid()
        self.total_slots = 0

    def start(self, directory: Path) -> float:
        from repro.allocation.dispatch import default_allocator
        from repro.cluster.coordinator import ClusterCoordinator
        from repro.cluster.partition import ClusterPartition
        from repro.cluster.shard import LocalShard
        from repro.topology.builder import SMALL_SPEC
        from tracing import TracedAllocator, TracedShard

        def allocator():
            inner = default_allocator()
            return TracedAllocator(inner, self.tracer) if self.tracer is not None else inner

        started = time.perf_counter()
        partition = ClusterPartition.build(SMALL_SPEC, self.SHARDS)
        self.total_slots = SMALL_SPEC.total_slots
        self.shards = [
            LocalShard(
                view, directory / f"shard-{view.shard_index}",
                allocator=allocator(), fsync=True,
            )
            for view in partition.shards
        ]
        handles = self.shards
        if self.tracer is not None:
            handles = [TracedShard(shard, self.tracer) for shard in self.shards]
        self.coordinator = ClusterCoordinator(
            partition, handles, directory=directory, allocator=allocator(), fsync=True
        )
        return time.perf_counter() - started

    @property
    def recovered_records(self) -> int:
        return sum(shard.recovery_report.replayed_records for shard in self.shards)

    def journal_dirs(self, directory: Path) -> List[Path]:
        return [directory / f"shard-{index}" for index in range(self.SHARDS)]

    def target(self) -> "ClusterTarget":
        return ClusterTarget(self.coordinator, self.tracer)

    def stats(self) -> Dict[str, Any]:
        raw = self.coordinator.stats()
        used = self.total_slots - sum(raw["free_slots"].values())
        occupancy = max([raw["replica_max_occupancy"], *raw["core_occupancy"].values()])
        return _normal_stats(raw["active_tenancies"], used, occupancy, raw)

    def config(self) -> Dict[str, Any]:
        return {"scale": "small", "shards": self.SHARDS, "shard_kind": "LocalShard", "fsync": True}

    def crash(self) -> None:
        self.coordinator.kill()
        for shard in self.shards:
            shard.kill()
        self.coordinator = None

    def stop(self) -> None:
        if self.coordinator is not None:
            self.coordinator.stop()
            for shard in self.shards:
                shard.close()
            self.coordinator = None


class ClusterTarget:
    def __init__(self, coordinator, tracer) -> None:
        from repro.service.codec import request_from_dict
        from repro.service.errors import ServiceError

        self._coordinator = coordinator
        self._tracer = tracer if tracer is not None else NullTracer()
        self._decode = request_from_dict
        self._expected = ServiceError  # CoordinatorError is one

    def do(self, command: Dict[str, Any]) -> Dict[str, Any]:
        tracer = self._tracer
        coordinator = self._coordinator
        op = command["op"]
        request = self._decode(command["request"]) if op == "submit" else None
        try:
            with tracer.op(op):
                if op == "submit":
                    tracer.bind(request)
                    return {"ok": True, **coordinator.submit(request)}
                if op == "release":
                    return {"ok": coordinator.release(command["request_id"])}
                if op == "resize":
                    decision = coordinator.resize(
                        command["request_id"], new_n=command["new_n"]
                    )
                    return {"ok": decision["outcome"] != "unknown", **decision}
                return {"ok": True, "stats": coordinator.stats()}
        except self._expected as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        finally:
            tracer.forget(request)
