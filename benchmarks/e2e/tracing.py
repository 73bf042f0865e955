"""Spans recorded from outside, around the public call into each layer.

Nothing in ``repro`` is patched: the traced stack is built from a
``NetworkManager`` subclass, a delegating ``Allocator`` (and ``BatchContext``),
a ``DurabilityStore`` subclass and ``ShardHandle`` wrappers, each injected
through a constructor argument the package already has.

A span is ``(id, name, start, end, parent id, op id, tag)``.  Spans of one
operation share its op id; within one operation calls nest strictly even when
they hop threads (the caller blocks while a worker decides), so the parent of
a new span is the innermost span of the same op that is still open.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional

from repro.abstractions.requests import DeterministicVC, HomogeneousSVC
from repro.allocation.base import Allocator, BatchContext
from repro.manager.network_manager import NetworkManager
from repro.service.journal import DurabilityStore


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "tag", "_tracer")

    #: ``tag`` is "admit"/"reject" on allocator spans and the service-reported
    #: sojourn (ms) on the root span of an operation whose reply carries one.

    def __init__(self, tracer: "Tracer", name: str, op: Optional[int]) -> None:
        self._tracer = tracer
        self.id = next(tracer._ids)
        self.name = name
        self.op = op
        self.tag: Optional[str] = None
        self.parent: Optional[int] = None
        self.start = self.end = 0.0

    def __enter__(self) -> "Span":
        stack = self._tracer._open[self.op]
        self.parent = stack[-1].id if stack else None
        stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = perf_counter()
        self._tracer._open[self.op].remove(self)
        self._tracer.spans.append(self)

    def record(self) -> Dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "tag": self.tag,
        }


class Tracer:
    """In-memory span sink; ``dump`` writes ``trace.jsonl`` at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._open: Dict[Optional[int], List[Span]] = defaultdict(list)
        self._by_request: Dict[int, int] = {}
        self._local = threading.local()

    def op(self, name: str) -> Span:
        """Root span of one client operation (on the calling thread)."""
        op_id = next(self._ops)
        self._local.op = op_id
        return Span(self, name, op_id)

    def bind(self, request: Any) -> None:
        """Spans that are handed ``request`` on another thread join this op."""
        self._by_request[id(request)] = self._local.op

    def span(self, name: str, request: Any = None) -> Span:
        """A layer span; ``request`` finds the op when the thread cannot."""
        op_id = self._by_request.get(id(request)) if request is not None else None
        if op_id is None:
            op_id = getattr(self._local, "op", None)
        else:
            self._local.op = op_id  # later spans on this worker belong to it too
        return Span(self, name, op_id)

    def forget(self, request: Any) -> None:
        """Drop a binding once its request is decided (ids are recycled)."""
        self._by_request.pop(id(request), None)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.record()) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """``{span id: duration minus the time its child spans cover}``."""
    spans = list(spans)
    own = {span.id: span.end - span.start for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.end - span.start
    return own


def _kind(request: Any) -> str:
    if isinstance(request, DeterministicVC):
        return "det"
    return "hom" if isinstance(request, HomogeneousSVC) else "het"


class TracedAllocator(Allocator):
    """Delegates everything to ``inner``; times ``allocate``."""

    def __init__(self, inner: Allocator, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name

    def allocate(self, state, request, request_id):
        with self._tracer.span(f"allocation.{_kind(request)}", request) as span:
            allocation = self._inner.allocate(state, request, request_id)
            span.tag = "reject" if allocation is None else "admit"
        return allocation

    def supports(self, request) -> bool:
        return self._inner.supports(request)

    def resize_link_demands(self, *args, **kwargs):
        return self._inner.resize_link_demands(*args, **kwargs)

    def occupancy_delta(self, *args, **kwargs):
        return self._inner.occupancy_delta(*args, **kwargs)

    def batch_context(self) -> BatchContext:
        return TracedBatch(self, self._inner.batch_context(), self._tracer)

    # The manager reads and restores the dispatcher's rejection attribution.
    @property
    def last_rejected_by(self):
        return getattr(self._inner, "last_rejected_by", None)

    @last_rejected_by.setter
    def last_rejected_by(self, value) -> None:
        self._inner.last_rejected_by = value

    @property
    def rejection_counts(self):
        return getattr(self._inner, "rejection_counts", None)


class TracedBatch(BatchContext):
    def __init__(self, allocator: Allocator, inner: BatchContext, tracer: Tracer) -> None:
        super().__init__(allocator)
        self._inner = inner
        self._tracer = tracer

    def allocate(self, state, request, request_id):
        with self._tracer.span("allocation.batch", request) as span:
            allocation = self._inner.allocate(state, request, request_id)
            span.tag = "reject" if allocation is None else "admit"
        return allocation

    def note_commit(self, state, allocation) -> None:
        self._inner.note_commit(state, allocation)


class TracedManager(NetworkManager):
    def __init__(self, tree, epsilon, allocator, tracer: Tracer) -> None:
        super().__init__(tree, epsilon=epsilon, allocator=allocator)
        self._tracer = tracer

    def request(self, request, batch=None):
        with self._tracer.span("manager.request", request):
            tenancy = super().request(request, batch=batch)
        self._tracer.forget(request)
        return tenancy

    def release(self, tenancy) -> None:
        with self._tracer.span("manager.release"):
            super().release(tenancy)

    def resize(self, request_id, new_n=None, new_mu=None, new_sigma=None):
        with self._tracer.span("manager.resize"):
            return super().resize(request_id, new_n=new_n, new_mu=new_mu, new_sigma=new_sigma)


class TracedStore(DurabilityStore):
    def __init__(self, directory: Path, tracer: Tracer, **kwargs) -> None:
        super().__init__(directory, **kwargs)
        self._tracer = tracer

    def log_admit(self, allocation, idempotency_key=None) -> int:
        with self._tracer.span("journal.append"):
            return super().log_admit(allocation, idempotency_key=idempotency_key)

    def log_release(self, request_id) -> int:
        with self._tracer.span("journal.append"):
            return super().log_release(request_id)

    def log_resize(self, request_id, outcome, allocation=None, idempotency_key=None) -> int:
        with self._tracer.span("journal.append"):
            return super().log_resize(
                request_id, outcome, allocation=allocation, idempotency_key=idempotency_key
            )

    def log_reject(self, request_payload, request_id=None, idempotency_key=None) -> int:
        with self._tracer.span("journal.append"):
            return super().log_reject(
                request_payload, request_id=request_id, idempotency_key=idempotency_key
            )

    def write_snapshot(self, payload, seq=None) -> Path:
        with self._tracer.span("journal.snapshot"):
            return super().write_snapshot(payload, seq=seq)


class TracedShard:
    """A ``ShardHandle`` stand-in: times the four mutating shard calls and
    passes everything else straight through."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.index = inner.index
        self.view = inner.view

    def submit(self, request, idempotency_key=None, timeout=None, trace=None):
        with self._tracer.span("shard.submit"):
            return self._inner.submit(
                request, idempotency_key=idempotency_key, timeout=timeout, trace=trace
            )

    def adopt(self, allocation, idempotency_key=None, trace=None) -> int:
        with self._tracer.span("shard.adopt"):
            return self._inner.adopt(allocation, idempotency_key=idempotency_key, trace=trace)

    def release(self, request_id) -> bool:
        with self._tracer.span("shard.release"):
            return self._inner.release(request_id)

    def resize(self, request_id, new_n=None, new_mu=None, new_sigma=None, idempotency_key=None):
        with self._tracer.span("shard.resize"):
            return self._inner.resize(
                request_id, new_n=new_n, new_mu=new_mu, new_sigma=new_sigma,
                idempotency_key=idempotency_key,
            )

    def __getattr__(self, name: str):
        # stats, idem_lookup, active_allocations, kill, stop, close, ...
        return getattr(self._inner, name)
