"""Shared core-link ledger: datacenter-wide Eq. (6) accounting above the shards.

Core links (aggregation uplinks) are each *owned* by one shard — that
shard's ``NetworkState`` carries their committed load — but their capacity
is consumed by cross-shard placements that no single shard can see in full.
The ledger is the coordinator's authoritative, global view of every core
link: committed demand footprints keyed by global request id, plus TTL'd
**reservations** taken during the first phase of the two-phase protocol.

Occupancy follows Eq. (6) exactly::

    O_L = (D_L + sum(mu_i) + c * sqrt(sum(sigma_i^2))) / C_L

with reservations included, so a reservation holds effective bandwidth
``E^L_i`` against concurrent admissions until it is committed, aborted, or
its TTL lapses.  Every transition (reserve/commit/abort/release) is keyed by
the global request id and **idempotent**, so coordinator retries after a
crash can replay any step without double-counting — the Eq. (1) outage
bound is never violated by a leak or a duplicate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.stochastic.aggregate import risk_quantile
from repro.stochastic.normal import Normal
from repro.topology.tree import Tree


class LedgerError(RuntimeError):
    """An impossible ledger transition (commit of an unknown reservation)."""


@dataclass(frozen=True)
class CoreDemand:
    """One request's demand footprint on one core link."""

    mean: float = 0.0
    variance: float = 0.0
    deterministic: float = 0.0

    @classmethod
    def from_normal(cls, demand: Normal, deterministic: bool) -> "CoreDemand":
        if deterministic:
            return cls(deterministic=demand.mean)
        return cls(mean=demand.mean, variance=demand.variance)

    def to_dict(self) -> Dict[str, float]:
        return {
            "mean": self.mean,
            "variance": self.variance,
            "deterministic": self.deterministic,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, float]) -> "CoreDemand":
        return cls(
            mean=float(payload.get("mean", 0.0)),
            variance=float(payload.get("variance", 0.0)),
            deterministic=float(payload.get("deterministic", 0.0)),
        )


def core_demands_of(
    allocation, core_link_ids: Iterable[int]
) -> Dict[int, CoreDemand]:
    """Extract an allocation's core-link footprint (global link ids)."""
    core = set(core_link_ids)
    demands: Dict[int, CoreDemand] = {}
    for link_id, demand in allocation.link_demands.items():
        if link_id in core:
            demands[link_id] = CoreDemand.from_normal(
                demand, allocation.deterministic
            )
    return demands


class _LinkAccount:
    """Running Eq. (6) sums for one core link."""

    __slots__ = (
        "capacity",
        "committed_mean",
        "committed_var",
        "committed_det",
        "reserved_mean",
        "reserved_var",
        "reserved_det",
    )

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity
        self.committed_mean = 0.0
        self.committed_var = 0.0
        self.committed_det = 0.0
        self.reserved_mean = 0.0
        self.reserved_var = 0.0
        self.reserved_det = 0.0

    def add(self, demand: CoreDemand, reserved: bool) -> None:
        if reserved:
            self.reserved_mean += demand.mean
            self.reserved_var += demand.variance
            self.reserved_det += demand.deterministic
        else:
            self.committed_mean += demand.mean
            self.committed_var += demand.variance
            self.committed_det += demand.deterministic

    def remove(self, demand: CoreDemand, reserved: bool) -> None:
        if reserved:
            self.reserved_mean -= demand.mean
            self.reserved_var -= demand.variance
            self.reserved_det -= demand.deterministic
            if self.reserved_var < 0.0:
                self.reserved_var = 0.0
        else:
            self.committed_mean -= demand.mean
            self.committed_var -= demand.variance
            self.committed_det -= demand.deterministic
            if self.committed_var < 0.0:
                self.committed_var = 0.0

    def zero_if_empty(self, committed_empty: bool, reserved_empty: bool) -> None:
        # Same float-residue hygiene as LinkState.remove_request: an empty
        # account must report exactly zero effective bandwidth.
        if committed_empty:
            self.committed_mean = self.committed_var = self.committed_det = 0.0
        if reserved_empty:
            self.reserved_mean = self.reserved_var = self.reserved_det = 0.0

    def occupancy(
        self, risk_c: float, extra: Optional[CoreDemand] = None
    ) -> float:
        mean = self.committed_mean + self.reserved_mean
        var = self.committed_var + self.reserved_var
        det = self.committed_det + self.reserved_det
        if extra is not None:
            mean += extra.mean
            var += extra.variance
            det += extra.deterministic
        if var < 0.0:
            var = 0.0
        return (det + mean + risk_c * math.sqrt(var)) / self.capacity


class CoreLinkLedger:
    """Reserve/commit/abort accounting over the shared core links.

    Not thread-safe by itself: the coordinator performs every call while
    holding its own lock (same single-owner discipline as
    :class:`repro.service.queue.FairRequestQueue`).
    """

    def __init__(
        self,
        tree: Tree,
        core_link_ids: Iterable[int],
        epsilon: float = 0.05,
        reserve_ttl_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if reserve_ttl_s <= 0.0:
            raise ValueError(f"reserve TTL must be > 0, got {reserve_ttl_s}")
        self.epsilon = epsilon
        self.risk_c = risk_quantile(epsilon)
        self.reserve_ttl_s = reserve_ttl_s
        self.clock = clock
        self._links: Dict[int, _LinkAccount] = {
            link_id: _LinkAccount(tree.link(link_id).capacity)
            for link_id in core_link_ids
        }
        #: global request id -> {link id -> demand} (committed tenants).
        self._committed: Dict[int, Dict[int, CoreDemand]] = {}
        #: global request id -> ({link id -> demand}, expires_at).
        self._reserved: Dict[int, Tuple[Dict[int, CoreDemand], float]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def link_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._links))

    @property
    def pending_reservations(self) -> int:
        return len(self._reserved)

    @property
    def committed_requests(self) -> Tuple[int, ...]:
        return tuple(sorted(self._committed))

    def is_committed(self, request_id: int) -> bool:
        return request_id in self._committed

    def is_reserved(self, request_id: int) -> bool:
        return request_id in self._reserved

    def occupancy_of(self, link_id: int) -> float:
        """Ledger-side ``O_L`` of one core link, reservations included."""
        return self._links[link_id].occupancy(self.risk_c)

    def occupancies(self) -> Dict[int, float]:
        return {
            link_id: account.occupancy(self.risk_c)
            for link_id, account in self._links.items()
        }

    def max_occupancy(self) -> float:
        worst = 0.0
        for account in self._links.values():
            value = account.occupancy(self.risk_c)
            if value > worst:
                worst = value
        return worst

    def would_fit(self, demands: Mapping[int, CoreDemand]) -> bool:
        """Eq. (4) validity if the demands were added: all ``O_L < 1``."""
        for link_id, demand in demands.items():
            if self._links[link_id].occupancy(self.risk_c, demand) >= 1.0:
                return False
        return True

    def committed_totals(self) -> Dict[int, Dict[str, float]]:
        """Per-link committed sums — what the referee reconciles with shards."""
        return {
            link_id: {
                "mean": account.committed_mean,
                "variance": account.committed_var,
                "deterministic": account.committed_det,
            }
            for link_id, account in self._links.items()
        }

    def entry_of(self, request_id: int) -> Optional[Dict[int, CoreDemand]]:
        """The committed footprint of one request, or None."""
        return self._committed.get(request_id)

    # ------------------------------------------------------------------
    # Two-phase transitions (all idempotent, keyed by global request id)
    # ------------------------------------------------------------------

    def expire(self, now: Optional[float] = None) -> List[int]:
        """Drop reservations whose TTL lapsed; returns the expired ids."""
        now = self.clock() if now is None else now
        expired = [
            request_id
            for request_id, (_demands, expires_at) in self._reserved.items()
            if now >= expires_at
        ]
        for request_id in expired:
            self._drop_reserved(request_id)
        return expired

    def reserve(
        self,
        request_id: int,
        demands: Mapping[int, CoreDemand],
        ttl_s: Optional[float] = None,
    ) -> bool:
        """Phase 1: hold effective bandwidth on the core links, with a TTL.

        Returns False when any link would reach ``O_L >= 1`` — the request
        must be rejected (or retried later), nothing is held.  Re-reserving
        an id that is already reserved or committed succeeds without adding
        a second footprint (retry idempotency).
        """
        self.expire()
        if request_id in self._committed or request_id in self._reserved:
            return True
        unknown = [link_id for link_id in demands if link_id not in self._links]
        if unknown:
            raise LedgerError(f"unknown core links {sorted(unknown)}")
        if not self.would_fit(demands):
            return False
        ttl = self.reserve_ttl_s if ttl_s is None else ttl_s
        held = dict(demands)
        for link_id, demand in held.items():
            self._links[link_id].add(demand, reserved=True)
        self._reserved[request_id] = (held, self.clock() + ttl)
        return True

    def commit(self, request_id: int) -> None:
        """Phase 2 (success): move a reservation into the committed set."""
        if request_id in self._committed:
            return
        entry = self._reserved.pop(request_id, None)
        if entry is None:
            raise LedgerError(
                f"commit of request {request_id} without a live reservation"
            )
        demands, _expires_at = entry
        for link_id, demand in demands.items():
            account = self._links[link_id]
            account.remove(demand, reserved=True)
            account.add(demand, reserved=False)
        self._committed[request_id] = demands
        self._tidy()

    def commit_direct(
        self, request_id: int, demands: Mapping[int, CoreDemand]
    ) -> None:
        """Mirror a shard-serialized admission straight into the committed set.

        Single-shard admissions that touch their own core links are already
        guarded by the owning shard's serialized admission path, so they
        skip the reserve phase; the ledger only needs the committed entry to
        stay the global source of truth.  Idempotent per request id.
        """
        if request_id in self._committed:
            return
        self._drop_reserved(request_id)
        held = dict(demands)
        for link_id, demand in held.items():
            if link_id not in self._links:
                raise LedgerError(f"unknown core link {link_id}")
            self._links[link_id].add(demand, reserved=False)
        self._committed[request_id] = held

    def abort(self, request_id: int) -> bool:
        """Phase 2 (failure): release a reservation. True if one was held."""
        return self._drop_reserved(request_id)

    def release(self, request_id: int) -> bool:
        """Tenant departure: drop the committed footprint. Idempotent."""
        demands = self._committed.pop(request_id, None)
        if demands is None:
            return False
        for link_id, demand in demands.items():
            self._links[link_id].remove(demand, reserved=False)
        self._tidy()
        return True

    # ------------------------------------------------------------------

    def _drop_reserved(self, request_id: int) -> bool:
        entry = self._reserved.pop(request_id, None)
        if entry is None:
            return False
        demands, _expires_at = entry
        for link_id, demand in demands.items():
            self._links[link_id].remove(demand, reserved=True)
        self._tidy()
        return True

    def _tidy(self) -> None:
        committed_links = set()
        for demands in self._committed.values():
            committed_links.update(demands)
        reserved_links = set()
        for demands, _expires_at in self._reserved.values():
            reserved_links.update(demands)
        for link_id, account in self._links.items():
            account.zero_if_empty(
                link_id not in committed_links, link_id not in reserved_links
            )
