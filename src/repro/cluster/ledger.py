"""Core-link reservation book: TTL'd holds above the coordinator's replica.

Core links (aggregation uplinks) are each *owned* by one shard, but their
capacity is consumed by cross-shard placements that no single shard sees in
full.  What the cluster has **admitted** on them lives in exactly one place,
the coordinator's replica ``NetworkState`` (one ``LinkState`` per core link,
fed by adopting and releasing tenancies); this module adds only what is *in
flight*: the demand footprints **held** by the first phase of a two-phase
round (or by the delta of a growing resize), keyed by global request id and
dropped on commit, abort or TTL lapse.

Occupancy follows Eq. (6) exactly::

    O_L = (D_L + sum(mu_i) + c * sqrt(sum(sigma_i^2))) / C_L

summed over the replica's committed load plus every hold on the link, with
the replica state's own risk factor ``c``.  A hold keeps effective bandwidth
``E^L_i`` away from concurrent admissions until the caller adopts the
tenancy into the replica and commits (the hold goes the moment the load
arrives: no double count, no gap), aborts, or the TTL lapses.  ``reserve``
and ``abort`` are idempotent per id, so a retried step never holds twice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.network.link_state import LinkState, NetworkState
from repro.stochastic.normal import Normal


class LedgerError(RuntimeError):
    """An impossible ledger transition (commit without a live hold)."""


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


_NOTHING = CoreDemand()


class CoreLinkLedger:
    """Reserve/commit/abort holds over the shared core links of ``state``.

    Not thread-safe by itself: the coordinator performs every call while
    holding its own lock (same single-owner discipline as
    :class:`repro.service.queue.FairRequestQueue`).
    """

    def __init__(
        self,
        state: NetworkState,
        core_link_ids: Iterable[int],
        reserve_ttl_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if reserve_ttl_s <= 0.0:
            raise ValueError(f"reserve TTL must be > 0, got {reserve_ttl_s}")
        self.state = state
        self.reserve_ttl_s = reserve_ttl_s
        self.clock = clock
        #: The replica's own per-link records — read, never written, here.
        self._links: Dict[int, LinkState] = {
            link_id: state.links[link_id] for link_id in core_link_ids
        }
        #: global request id -> ({link id -> demand}, expires_at).
        self._held: Dict[int, Tuple[Dict[int, CoreDemand], float]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def pending_reservations(self) -> int:
        return len(self._held)

    def is_reserved(self, request_id: int) -> bool:
        return request_id in self._held

    def occupancy_of(self, link_id: int, asked: CoreDemand = _NOTHING) -> float:
        """``O_L`` of one core link: committed load + holds (+ ``asked``)."""
        mean, variance, deterministic = asked.mean, asked.variance, asked.deterministic
        for demands, _expires_at in self._held.values():
            held = demands.get(link_id)
            if held is not None:
                mean += held.mean
                variance += held.variance
                deterministic += held.deterministic
        return self._links[link_id].occupancy_with(
            self.state.risk_c, mean, variance, deterministic
        )

    def occupancies(self) -> Dict[int, float]:
        return {link_id: self.occupancy_of(link_id) for link_id in self._links}

    def max_occupancy(self) -> float:
        return max(self.occupancies().values(), default=0.0)

    def would_fit(self, demands: Mapping[int, CoreDemand]) -> bool:
        """Eq. (4) validity if the demands were added: all ``O_L < 1``."""
        return all(
            self.occupancy_of(link_id, demand) < 1.0
            for link_id, demand in demands.items()
        )

    # ------------------------------------------------------------------
    # Two-phase transitions (keyed by global request id)
    # ------------------------------------------------------------------

    def expire(self, now: Optional[float] = None) -> List[int]:
        """Drop holds whose TTL lapsed; returns the expired ids."""
        now = self.clock() if now is None else now
        expired = [
            request_id
            for request_id, (_demands, expires_at) in self._held.items()
            if now >= expires_at
        ]
        for request_id in expired:
            del self._held[request_id]
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
        an id that already holds succeeds without a second footprint (retry
        idempotency).
        """
        self.expire()
        if request_id in self._held:
            return True
        unknown = [link_id for link_id in demands if link_id not in self._links]
        if unknown:
            raise LedgerError(f"unknown core links {sorted(unknown)}")
        if not self.would_fit(demands):
            return False
        ttl = self.reserve_ttl_s if ttl_s is None else ttl_s
        self._held[request_id] = (dict(demands), self.clock() + ttl)
        return True

    def commit(self, request_id: int) -> None:
        """Phase 2 (success): drop the hold the caller adopts into the replica.

        A round whose hold lapsed raises: its bandwidth may have been
        promised to someone else since, so adopting it could overbook.
        """
        if self._held.pop(request_id, None) is None:
            raise LedgerError(
                f"commit of request {request_id} without a live reservation"
            )

    def abort(self, request_id: int) -> bool:
        """Phase 2 (failure): drop a hold. True if one was held."""
        return self._held.pop(request_id, None) is not None
