"""Mutable per-link and datacenter-wide reservation state.

:class:`LinkState` is the paper's Fig. 2 in code: a link's capacity ``C_L``
is split into a deterministically reserved portion ``D_L`` and the stochastic
sharing bandwidth ``S_L = C_L - D_L`` shared by the resident SVC demands
``B^1_L ... B^K_L`` (each tracked by its mean and variance).

:class:`NetworkState` aggregates the link states with per-machine free-slot
accounting, and owns the commit/release lifecycle of allocations.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional, Tuple

from repro.stochastic.aggregate import DemandAggregate, risk_quantile
from repro.stochastic.normal import Normal
from repro.topology.nodes import Link
from repro.topology.tree import Tree

_NEG_CLAMP = 1e-9


class LinkState:
    """Reservation bookkeeping for one physical link.

    Tracks the deterministic reservation total ``D_L`` and the first two
    moments of every resident stochastic demand, keyed by request id, with
    the aggregate sums maintained incrementally.
    """

    __slots__ = (
        "link",
        "deterministic_total",
        "mean_total",
        "var_total",
        "_det_by_request",
        "_stoch_by_request",
    )

    def __init__(self, link: Link) -> None:
        self.link = link
        self.deterministic_total = 0.0
        self.mean_total = 0.0
        self.var_total = 0.0
        self._det_by_request: Dict[int, float] = {}
        self._stoch_by_request: Dict[int, Normal] = {}

    @property
    def capacity(self) -> float:
        """``C_L`` in Mbps."""
        return self.link.capacity

    @property
    def sharing_bandwidth(self) -> float:
        """``S_L = C_L - D_L`` — bandwidth statistically shared by SVC demands."""
        return self.link.capacity - self.deterministic_total

    @property
    def num_stochastic_demands(self) -> int:
        """``K`` — how many SVC requests currently load this link."""
        return len(self._stoch_by_request)

    def aggregate(self) -> DemandAggregate:
        """CLT summary of the resident stochastic demands."""
        return DemandAggregate(self.mean_total, max(self.var_total, 0.0))

    def stochastic_demand_of(self, request_id: int) -> Optional[Normal]:
        """The recorded demand of one request on this link, if any."""
        return self._stoch_by_request.get(request_id)

    def deterministic_reservation_of(self, request_id: int) -> float:
        """The recorded deterministic reservation of one request (0 if none)."""
        return self._det_by_request.get(request_id, 0.0)

    def deterministic_entries(self) -> Iterator[Tuple[int, float]]:
        """``(request_id, reserved_mbps)`` for every resident reservation."""
        return iter(self._det_by_request.items())

    def stochastic_entries(self) -> Iterator[Tuple[int, Normal]]:
        """``(request_id, demand)`` for every resident stochastic demand."""
        return iter(self._stoch_by_request.items())

    # ------------------------------------------------------------------
    # Occupancy (Eq. 6) — with optional hypothetical extra demand
    # ------------------------------------------------------------------

    def occupancy(self, risk_c: float) -> float:
        """Current ``O_L`` given ``c = Phi^{-1}(1 - epsilon)``."""
        return self.occupancy_with(risk_c)

    def occupancy_with(
        self,
        risk_c: float,
        extra_mean: float = 0.0,
        extra_var: float = 0.0,
        extra_deterministic: float = 0.0,
    ) -> float:
        """``O_L`` if a hypothetical demand were added (Eq. 6).

        The allocators probe candidate placements through this method;
        ``O_L < 1`` is exactly the validity condition Eq. (4).
        """
        var = self.var_total + extra_var
        if var < 0.0:
            var = 0.0
        effective = self.mean_total + extra_mean + risk_c * math.sqrt(var)
        return (
            self.deterministic_total + extra_deterministic + effective
        ) / self.link.capacity

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_stochastic(self, request_id: int, demand: Normal) -> None:
        """Record an admitted SVC demand on this link."""
        if request_id in self._stoch_by_request or request_id in self._det_by_request:
            raise ValueError(f"request {request_id} already present on link {self.link.link_id}")
        self._stoch_by_request[request_id] = demand
        self.mean_total += demand.mean
        self.var_total += demand.variance

    def add_deterministic(self, request_id: int, amount: float) -> None:
        """Record an admitted deterministic reservation on this link."""
        if amount < 0.0:
            raise ValueError(f"reservation must be >= 0, got {amount}")
        if request_id in self._stoch_by_request or request_id in self._det_by_request:
            raise ValueError(f"request {request_id} already present on link {self.link.link_id}")
        self._det_by_request[request_id] = amount
        self.deterministic_total += amount

    def remove_request(self, request_id: int) -> None:
        """Remove a departing request's footprint (idempotent no-op if absent).

        When the last stochastic tenant departs, both aggregate moments are
        zeroed *exactly* — incremental subtraction leaves a tiny float residue
        (most visibly in ``var_total``) that would make an empty link report
        nonzero effective bandwidth forever.  The deterministic total gets the
        same treatment when the last reservation leaves.
        """
        demand = self._stoch_by_request.pop(request_id, None)
        if demand is not None:
            if self._stoch_by_request:
                self.mean_total -= demand.mean
                self.var_total -= demand.variance
                if abs(self.mean_total) < _NEG_CLAMP:
                    self.mean_total = 0.0
                if self.var_total < 0.0:
                    self.var_total = 0.0
            else:
                self.mean_total = 0.0
                self.var_total = 0.0
        amount = self._det_by_request.pop(request_id, None)
        if amount is not None:
            if self._det_by_request:
                self.deterministic_total -= amount
                if abs(self.deterministic_total) < _NEG_CLAMP:
                    self.deterministic_total = 0.0
            else:
                self.deterministic_total = 0.0

    @property
    def is_idle(self) -> bool:
        """True when no request loads this link."""
        return not self._det_by_request and not self._stoch_by_request


class NetworkState:
    """The network manager's live view of the datacenter.

    Owns one :class:`LinkState` per physical link, per-machine free-slot
    counters, and the provider-wide SLA risk factor ``epsilon`` from which the
    headroom multiplier ``c = Phi^{-1}(1 - epsilon)`` is derived once.
    """

    def __init__(self, tree: Tree, epsilon: float = 0.05) -> None:
        self.tree = tree
        self.epsilon = epsilon
        self.risk_c = risk_quantile(epsilon)
        self.links: Dict[int, LinkState] = {
            link.link_id: LinkState(link) for link in tree.links
        }
        self._free_slots: Dict[int, int] = {
            machine_id: tree.node(machine_id).slot_capacity
            for machine_id in tree.machine_ids
        }
        self._total_free = sum(self._free_slots.values())
        # Per-internal-node free-slot totals, maintained incrementally by
        # _occupy/_vacate along the machine's ancestor chain.  The allocators
        # use them to cap DP split sizes at what a subtree can actually hold
        # and to skip subtrees that cannot host a request.
        self._free_under: Dict[int, int] = {
            node.node_id: tree.slots_under(node.node_id)
            for node in tree.nodes
            if not node.is_machine
        }
        self._ancestors: Dict[int, Tuple[int, ...]] = {}
        for machine_id in tree.machine_ids:
            chain = []
            current = tree.node(machine_id).parent
            while current is not None:
                chain.append(current)
                current = tree.node(current).parent
            self._ancestors[machine_id] = tuple(chain)
        #: Mutation counter, bumped by every commit/release, and per internal
        #: node the version of the last mutation anywhere in its subtree:
        #: slots of a machine below it, or the uplink of a node on the way
        #: down to one.  Allocators that keep per-vertex DP tables across
        #: calls reuse a table built at version ``k`` iff
        #: ``changed_at[vertex] <= k``.
        self.version = 0
        self.changed_at: Dict[int, int] = dict.fromkeys(self._free_under, 0)

    # ------------------------------------------------------------------
    # Slot accounting
    # ------------------------------------------------------------------

    def free_slots(self, machine_id: int) -> int:
        """Empty VM slots on one machine."""
        return self._free_slots[machine_id]

    def free_slots_under(self, node_id: int) -> int:
        """Empty VM slots in the whole subtree rooted at ``node_id``.

        O(1): machine entries come from the per-machine counters, internal
        entries from the incrementally maintained subtree totals.
        """
        free = self._free_slots.get(node_id)
        if free is not None:
            return free
        return self._free_under[node_id]

    @property
    def total_free_slots(self) -> int:
        """Empty VM slots datacenter-wide."""
        return self._total_free

    @property
    def total_slots(self) -> int:
        return self.tree.total_slots

    @property
    def used_slots(self) -> int:
        return self.tree.total_slots - self._total_free

    def _occupy(self, machine_id: int, count: int) -> None:
        available = self._free_slots[machine_id]
        if count > available:
            raise ValueError(
                f"machine {machine_id} has {available} free slots, cannot take {count}"
            )
        self._free_slots[machine_id] = available - count
        self._total_free -= count
        for ancestor in self._ancestors[machine_id]:
            self._free_under[ancestor] -= count
            self.changed_at[ancestor] = self.version

    def _vacate(self, machine_id: int, count: int) -> None:
        capacity = self.tree.node(machine_id).slot_capacity
        freed = self._free_slots[machine_id] + count
        if freed > capacity:
            raise ValueError(
                f"machine {machine_id} would exceed its {capacity} slots on release"
            )
        self._free_slots[machine_id] = freed
        self._total_free += count
        for ancestor in self._ancestors[machine_id]:
            self._free_under[ancestor] += count
            self.changed_at[ancestor] = self.version

    # ------------------------------------------------------------------
    # Allocation lifecycle
    # ------------------------------------------------------------------

    def commit(self, allocation) -> None:
        """Apply an :class:`~repro.allocation.base.Allocation` to the network.

        Slots are occupied and per-link demands recorded: deterministic
        requests reserve their mean into ``D_L`` (to be enforced by rate
        limiting); stochastic requests join the statistical share.  Every
        link an allocation loads lies between one of its machines and its
        host, so the slot walks stamp ``changed_at`` for the links too.
        """
        self.version += 1
        for machine_id, count in allocation.machine_counts.items():
            self._occupy(machine_id, count)
        for link_id, demand in allocation.link_demands.items():
            state = self.links[link_id]
            if allocation.deterministic:
                state.add_deterministic(allocation.request_id, demand.mean)
            else:
                state.add_stochastic(allocation.request_id, demand)

    def release(self, allocation) -> None:
        """Undo :meth:`commit` when the tenant departs.

        Validate-then-mutate: every slot return is checked against machine
        capacity before anything is touched, so a release either applies in
        full or raises without side effects (``remove_request`` is an
        idempotent no-op for absent requests and cannot fail afterwards).
        """
        for machine_id, count in allocation.machine_counts.items():
            capacity = self.tree.node(machine_id).slot_capacity
            if self._free_slots[machine_id] + count > capacity:
                raise ValueError(
                    f"machine {machine_id} would exceed its {capacity} slots on release"
                )
        self.version += 1
        for machine_id, count in allocation.machine_counts.items():
            self._vacate(machine_id, count)
        for link_id in allocation.link_demands:
            self.links[link_id].remove_request(allocation.request_id)

    # ------------------------------------------------------------------
    # Datacenter-wide views
    # ------------------------------------------------------------------

    def occupancy_of(self, link_id: int) -> float:
        """``O_L`` of one link at the configured risk level."""
        return self.links[link_id].occupancy(self.risk_c)

    def occupancies(self) -> Iterator[Tuple[int, float]]:
        """Yield ``(link_id, O_L)`` for every link."""
        for link_id, state in self.links.items():
            yield link_id, state.occupancy(self.risk_c)

    def max_occupancy(self) -> float:
        """``max_L O_L`` — the statistic sampled for Fig. 9 (0 for an idle net)."""
        worst = 0.0
        for state in self.links.values():
            value = state.occupancy(self.risk_c)
            if value > worst:
                worst = value
        return worst

    def is_pristine(self) -> bool:
        """True when no request holds any slot or bandwidth (test invariant)."""
        if self._total_free != self.tree.total_slots:
            return False
        return all(state.is_idle for state in self.links.values())
