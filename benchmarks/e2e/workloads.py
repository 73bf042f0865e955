"""Seeded operation generators: the four workloads' traffic and their ledgers.

A generator owns one client's tenants.  ``next_op`` hands out the next wire
command; ``ack`` takes the reply, updates the ledger of acknowledged
admits/releases/resizes and returns the latency samples the reply completes.
Everything random comes from ``random.Random(seed)``; the program under test
sees only the generated commands.

Request sizes, rates and deviations come from low-discrepancy streams, kinds
from shuffled blocks that each hold the exact mix, and burst shapes from a
fixed walk over the menu, so two seeds see different sequences but nearly the
same mix of cheap and expensive requests within a measured window.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

RATES_MBPS = (100.0, 200.0, 300.0, 400.0, 500.0)  # Section VI-A mean rates

ADMITTED = "admitted"
REJECTED = "rejected"
QUEUED = "queued"
RESIZE_ACCEPTED = ("in_place", "replaced")

Sample = Tuple[str, float]


@dataclass
class Op:
    kind: str  # submit | release | resize | stats | status
    command: Dict[str, Any]
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Tenant:
    kind: str
    n: int


class Blocks:
    """Endless draws from reshuffled copies of ``items``: every run of
    ``len(items)`` draws from a block boundary holds exactly ``items``."""

    def __init__(self, rng: random.Random, items: Sequence[Any]) -> None:
        self._rng = rng
        self._items = list(items)
        self._pool: List[Any] = []

    def draw(self) -> Any:
        if not self._pool:
            self._pool = list(self._items)
            self._rng.shuffle(self._pool)
        return self._pool.pop()


class Quasi:
    """A low-discrepancy stream on [0, 1): ``u_k = frac(u_0 + k * step)``.

    Any run of consecutive draws covers [0, 1) almost evenly, however long
    the run is, so a measured window sees nearly the same distribution of
    sizes under every seed; the seed sets only where the stream starts.
    """

    GOLDEN = 0.6180339887498949
    ROOT2 = 0.41421356237309515
    ROOT3 = 0.7320508075688772

    def __init__(self, start: float, step: float = GOLDEN) -> None:
        self._u = start
        self._step = step

    def draw(self) -> float:
        self._u = (self._u + self._step) % 1.0
        return self._u


def paper_size(u: float) -> int:
    """Section VI-A: ``N ~ min(200, max(2, Exp(49)))``."""
    return min(200, max(2, int(round(-49.0 * math.log(1.0 - u)))))


def uniform_size(lo: int, hi: int) -> Callable[[float], int]:
    return lambda u: min(hi, lo + int(u * (hi - lo + 1)))


class Ledger:
    """Acknowledged state of one client's tenants, plus its op tallies."""

    def __init__(self) -> None:
        self.active: "OrderedDict[int, Tenant]" = OrderedDict()
        self.used = 0
        self.attempted = 0
        self.failed = 0
        self.decisions: List[Tuple[Any, ...]] = []
        self.counts: Dict[str, int] = {}

    def count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def admit(self, request_id: int, tenant: Tenant) -> None:
        self.active[request_id] = tenant
        self.used += tenant.n

    def drop(self, request_id: int) -> None:
        self.used -= self.active.pop(request_id).n

    def resize(self, request_id: int, n: int) -> None:
        tenant = self.active[request_id]
        self.used += n - tenant.n
        tenant.n = n


class Generator:
    """Shared reply handling; subclasses choose the next operation."""

    def __init__(self, seed: int, tenant: str, rates: Sequence[float] = RATES_MBPS) -> None:
        self.rng = random.Random(seed)
        self.tenant = tenant
        self.rates = rates
        self._mu = Quasi(self.rng.random(), Quasi.ROOT2)
        self._rho = Quasi(self.rng.random(), Quasi.ROOT3)
        self.ledger = Ledger()
        #: True while the generator still owes warm-up operations.
        self.warming = True

    # -- requests ----------------------------------------------------

    def _request(self, kind: str, n: int) -> Dict[str, Any]:
        mu = self.rates[int(self._mu.draw() * len(self.rates))]
        rho = self._rho.draw()
        if kind == "det":
            return {"kind": "deterministic", "n_vms": n, "bandwidth": mu}
        if kind == "hom":
            return {"kind": "homogeneous", "n_vms": n, "mean": mu, "std": rho * mu}
        demands = []
        for _ in range(n):
            vm_mu = self.rng.choice(self.rates)
            demands.append({"mean": vm_mu, "std": rho * vm_mu})
        return {"kind": "heterogeneous", "n_vms": n, "demands": demands}

    def _submit(self, kind: str, request: Dict[str, Any], wait: bool = True) -> Op:
        command = {"op": "submit", "request": request, "tenant": self.tenant}
        if not wait:
            command["wait"] = False
        return Op("submit", command, {"kind": kind, "n": request["n_vms"], "wait": wait})

    def _release(self, request_id: int) -> Op:
        return Op(
            "release", {"op": "release", "request_id": request_id}, {"request_id": request_id}
        )

    # -- replies -----------------------------------------------------

    def ack(self, op: Op, reply: Dict[str, Any], sent: float, done: float) -> List[Sample]:
        """Book one reply; returns the ``(family, ms)`` samples it completes."""
        ledger = self.ledger
        ledger.attempted += 1
        if not reply.get("ok"):
            ledger.failed += 1
            self._abandon(op)
            return []
        rtt_ms = 1000.0 * (done - sent)
        request_id = op.meta.get("request_id")
        if op.kind == "submit":
            if reply.get("outcome") == QUEUED and not op.meta["wait"]:
                self._enqueued(op, reply, sent)
                return []
            return self._decision(op.meta, reply, rtt_ms, with_overhead=op.meta["wait"])
        if op.kind == "release":
            ledger.drop(request_id)
            ledger.count("released")
            ledger.decisions.append(("release", request_id))
        elif op.kind == "resize":
            outcome = reply.get("outcome")
            ledger.count(f"resize.{outcome}")
            ledger.decisions.append(("resize", request_id, outcome, reply.get("n_vms")))
            if outcome in RESIZE_ACCEPTED:
                ledger.resize(request_id, int(reply.get("n_vms", op.meta["new_n"])))
        elif op.kind == "status":
            return self._status(op, reply, done)
        return [(op.kind, rtt_ms)]

    def _decision(
        self, meta: Dict[str, Any], reply: Dict[str, Any], ms: float, with_overhead: bool
    ) -> List[Sample]:
        """Book one submit decision learned ``ms`` after the submit was sent."""
        ledger = self.ledger
        outcome = reply.get("outcome")
        if outcome == ADMITTED:
            ledger.admit(int(reply["request_id"]), Tenant(meta["kind"], meta["n"]))
        elif outcome != REJECTED:
            ledger.failed += 1  # error, expired, or still queued after a wait
            return []
        route = reply.get("route")
        ledger.count(outcome)
        ledger.count(f"route.{route}")
        ledger.decisions.append(
            ("submit", meta["kind"], meta["n"], outcome, reply.get("request_id"))
        )
        samples = [(f"submit.{meta['kind']}", ms)]
        if route == "cross_shard":
            samples.append(("xshard", ms))
        if "latency_ms" in reply:
            samples.append(("sojourn", reply["latency_ms"]))
            if with_overhead:
                samples.append(("overhead", ms - reply["latency_ms"]))
        return samples

    def _abandon(self, op: Op) -> None:
        """A reply was ``ok: false``; forget whatever waited on it."""

    def _enqueued(self, op: Op, reply: Dict[str, Any], sent: float) -> None:
        raise NotImplementedError

    def _status(self, op: Op, reply: Dict[str, Any], done: float) -> List[Sample]:
        raise NotImplementedError

    def next_op(self) -> Op:
        raise NotImplementedError

    def busy(self) -> bool:
        """True when stopping now would strand unresolved tickets."""
        return False


class ChurnGenerator(Generator):
    """Submit / release / resize / stats churn around a target fill.

    The first submits fill the client's ledger up to ``target`` slots.  After
    that each operation is a ``stats`` read or a resize with fixed
    probabilities, and otherwise a release with a probability that rises
    linearly from 0 to 1 across ``target`` +- ``band`` slots, else a submit:
    the fill hovers around the target, where the topology rejects a steady
    share of submits.  Warm-up is the first ``warmup_ops`` operations, fill
    included: a fixed count, so the journal the recovery drill replays has the
    same length under every seed.
    """

    def __init__(
        self,
        seed: int,
        tenant: str,
        *,
        target: int,
        band: int,
        kinds: Dict[str, int],
        size: Dict[str, Callable[[float], int]],
        resize_share: float,
        stats_share: float,
        warmup_ops: int,
        rates: Sequence[float] = RATES_MBPS,
    ) -> None:
        super().__init__(seed, tenant, rates)
        self.target = target
        self.band = band
        self.resize_share = resize_share
        self.stats_share = stats_share
        self._warmup_left = warmup_ops
        self._filled = False
        self._kinds = Blocks(
            self.rng, [kind for kind, share in kinds.items() for _ in range(share)]
        )
        self._size = size
        self._sizes = {kind: Quasi(self.rng.random()) for kind in kinds}

    def next_op(self) -> Op:
        ledger = self.ledger
        if self._warmup_left > 0:
            self._warmup_left -= 1
        else:
            self.warming = False
        if not self._filled:
            if ledger.used < self.target:
                return self._new_submit()
            self._filled = True
        draw = self.rng.random()
        if draw < self.stats_share:
            return Op("stats", {"op": "stats"})
        if draw < self.stats_share + self.resize_share and ledger.active:
            return self._new_resize()
        lo = self.target - self.band
        p_release = (ledger.used - lo) / (2.0 * self.band)
        if ledger.active and self.rng.random() < p_release:
            return self._release(self.rng.choice(list(ledger.active)))
        return self._new_submit()

    def _new_submit(self) -> Op:
        kind = self._kinds.draw()
        return self._submit(kind, self._request(kind, self._size[kind](self._sizes[kind].draw())))

    def _new_resize(self) -> Op:
        request_id = self.rng.choice(list(self.ledger.active))
        n = self.ledger.active[request_id].n
        step = max(1, n // 4)
        new_n = n + step if self.rng.random() < 0.5 or n - step < 2 else n - step
        return Op(
            "resize",
            {"op": "resize", "request_id": request_id, "new_n": new_n},
            {"request_id": request_id, "new_n": new_n},
        )


class BurstGenerator(Generator):
    """Same-shape bursts: 15 ``wait:false`` submits and one ``wait:true``.

    Each burst takes the next shape of a walk over the fixed 5 x 3 menu, is
    collected with ``status`` polls, and is followed by releases of this
    client's oldest tenants until its fill is back under ``target``.  Step
    ``i`` of the walk is size ``i mod 5`` with rate ``i mod 3``: fifteen steps
    visit every shape once, and any five in a row hold every size once, so a
    window's mix of cheap and expensive bursts does not depend on where the
    seed started the walk.
    """

    SIZES = (8, 16, 24, 32, 48)
    RATES = (100.0, 200.0, 300.0)
    BURST = 16

    def __init__(self, seed: int, tenant: str, *, target: int, warmup_bursts: int) -> None:
        super().__init__(seed, tenant)
        self.target = target
        self._warmup_left = warmup_bursts
        self._step = self.rng.randrange(len(self.SIZES) * len(self.RATES))
        self._to_send = 0
        self._request_now: Dict[str, Any] = {}
        self._burst_started: Optional[float] = None
        #: ticket -> (send time, request meta) of decisions not yet learned.
        self._pending: "OrderedDict[int, Tuple[float, Dict[str, Any]]]" = OrderedDict()
        self._outstanding = 0

    def busy(self) -> bool:
        return self._outstanding > 0

    def next_op(self) -> Op:
        if self._to_send > 0:
            self._to_send -= 1
            return self._submit("hom", self._request_now, wait=self._to_send == 0)
        if self._pending:
            ticket = next(iter(self._pending))
            return Op("status", {"op": "status", "ticket": ticket}, {"ticket": ticket})
        if self.ledger.used > self.target:
            return self._release(next(iter(self.ledger.active)))
        if self._warmup_left > 0:
            self._warmup_left -= 1
        else:
            self.warming = False
        self._step += 1
        n = self.SIZES[self._step % len(self.SIZES)]
        mu = self.RATES[self._step % len(self.RATES)]
        self._request_now = {"kind": "homogeneous", "n_vms": n, "mean": mu, "std": 0.4 * mu}
        self._to_send = self.BURST
        self._outstanding = self.BURST
        self._burst_started = None
        return self.next_op()

    def ack(self, op: Op, reply: Dict[str, Any], sent: float, done: float) -> List[Sample]:
        if self._burst_started is None:
            self._burst_started = sent
        samples = super().ack(op, reply, sent, done)
        if op.kind == "submit":
            enqueued = reply.get("ok") and reply.get("outcome") == QUEUED and not op.meta["wait"]
            if not enqueued:
                samples.extend(self._one_done(done))
        return samples

    def _abandon(self, op: Op) -> None:
        if op.kind == "status":
            self._pending.pop(op.meta["ticket"], None)
            self._outstanding -= 1

    def _enqueued(self, op: Op, reply: Dict[str, Any], sent: float) -> None:
        self._pending[int(reply["ticket"])] = (sent, op.meta)

    def _status(self, op: Op, reply: Dict[str, Any], done: float) -> List[Sample]:
        ticket = op.meta["ticket"]
        if reply.get("outcome") == QUEUED:
            self._pending.move_to_end(ticket)
            return []
        sent, meta = self._pending.pop(ticket)
        samples = self._decision(meta, reply, 1000.0 * (done - sent), with_overhead=False)
        return samples + self._one_done(done)

    def _one_done(self, done: float) -> List[Sample]:
        self._outstanding -= 1
        if self._outstanding == 0:
            return [("burst", 1000.0 * (done - self._burst_started))]
        return []
