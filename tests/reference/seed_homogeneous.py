"""Algorithm 1 as first written: one vertex, one child, one link at a time.

The reference the level walk of ``repro.allocation.svc_homogeneous`` is
proven against, decision for decision.  ``_VertexTable``,
``_uplink_occupancy_vector``, ``_search_seed``, ``_build_vertex``,
``_child_effective``, ``_combine`` and ``_backtrack`` are the bodies that
shipped in that module behind ``fast=False`` until PR 24, unchanged; only
``allocate`` is new, being the seed half of the fork it replaces with the
observability calls left out (``phases`` is always ``None`` here).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.abstractions.requests import (
    DeterministicVC,
    HomogeneousSVC,
    VirtualClusterRequest,
)
from repro.allocation.base import Allocation, Allocator, add_phase, link_demands_from_counts
from repro.allocation.demand_model import homogeneous_split_moments
from repro.network.link_state import LinkState, NetworkState
from repro.obs.instruments import PHASE_TABLE_BUILD
from repro.stochastic.normal import Normal

_FEASIBLE_LIMIT = 1.0  # validity is the strict inequality O_L < 1 (Eq. 4)


@dataclass
class _VertexTable:
    """Seed DP state of one vertex: values over VM counts + per-child split choices."""

    values: np.ndarray  # Opt(T_v, h) over h = 0..N; inf = not allocable
    choices: List[np.ndarray]  # choices[i][s] = VMs given to child i when T_v[i] holds s


def _uplink_occupancy_vector(
    link_state: LinkState,
    risk_c: float,
    split_mean: np.ndarray,
    split_var: np.ndarray,
    deterministic: bool,
) -> np.ndarray:
    """``O_L(N, e)`` for every split size ``e`` of the candidate request.

    For a stochastic request the candidate moments join the CLT aggregate;
    for a deterministic request the candidate mean joins ``D_L`` and only the
    existing stochastic aggregate contributes variance (Section IV-B).
    """
    if deterministic:
        stoch_mean = link_state.mean_total
        variance = np.full_like(split_mean, max(link_state.var_total, 0.0))
        reserved = link_state.deterministic_total + split_mean
    else:
        stoch_mean = link_state.mean_total + split_mean
        variance = link_state.var_total + split_var
        reserved = np.full_like(split_mean, link_state.deterministic_total)
    effective = stoch_mean + risk_c * np.sqrt(np.maximum(variance, 0.0))
    return (reserved + effective) / link_state.capacity


class SeedTreeSearch(Allocator):
    """The seed tree search: Algorithm 1 and the adapted-TIVC baseline.

    ``optimize=True`` records, per reachable VM count, the split minimizing
    the maximum occupancy ratio (Algorithm 1 proper); ``optimize=False``
    keeps only feasibility and the first-found split (adapted TIVC, and
    Oktopus when sent deterministic VCs); ``localize=False`` places at the
    root's optimum (the global min-max ablation).
    """

    name = "seed-tree-search"

    def __init__(self, optimize: bool, localize: bool = True) -> None:
        self._optimize = optimize
        self._localize = localize

    def supports(self, request: VirtualClusterRequest) -> bool:
        return isinstance(request, (HomogeneousSVC, DeterministicVC))

    def allocate(
        self,
        state: NetworkState,
        request: VirtualClusterRequest,
        request_id: int,
    ) -> Optional[Allocation]:
        if not self.supports(request):
            raise TypeError(f"{self.name} cannot place a {type(request).__name__}")
        n = request.n_vms
        if n > state.total_free_slots:
            return None
        split_mean, split_var = homogeneous_split_moments(request)
        host, tables = self._search_seed(state, request, split_mean, split_var, None)
        if host is None:
            return None
        machine_counts: Dict[int, int] = {}
        self._backtrack(state.tree, tables, host, n, machine_counts)
        link_demands = link_demands_from_counts(
            state.tree, host, machine_counts, split_mean, split_var
        )
        return Allocation(
            request=request,
            request_id=request_id,
            host_node=host,
            machine_counts=machine_counts,
            link_demands=link_demands,
            max_occupancy=self._subtree_max_occupancy(state, host, link_demands),
        )

    def _is_better_host(self, value: float, host: Optional[int], host_value: float) -> bool:
        """Algorithm 1 takes the level's first minimum, adapted TIVC its first feasible."""
        return value < host_value and (self._optimize or host is None)

    def _search_seed(
        self,
        state: NetworkState,
        request: VirtualClusterRequest,
        split_mean: np.ndarray,
        split_var: np.ndarray,
        phases: Optional[Dict[str, float]],
    ) -> Tuple[Optional[int], Dict[int, _VertexTable]]:
        """The reference traversal: one :meth:`_build_vertex` per node, leaves up."""
        n = request.n_vms
        tables: Dict[int, _VertexTable] = {}
        host: Optional[int] = None
        host_value = np.inf
        for _level, node_ids in state.tree.bottom_up_levels():
            for node_id in node_ids:
                since = perf_counter()
                tables[node_id] = table = self._build_vertex(
                    state, node_id, n, split_mean, split_var, request.is_deterministic, tables
                )
                add_phase(phases, PHASE_TABLE_BUILD, since)
                if self._is_better_host(float(table.values[n]), host, host_value):
                    host, host_value = node_id, float(table.values[n])
            if host is not None and self._localize:
                break  # lowest feasible level found
        root = state.tree.root_id
        if not self._localize and np.isfinite(float(tables[root].values[n])):
            host = root  # locality ablation: the global min-max placement, Opt(T_root, N)
        return host, tables

    # ------------------------------------------------------------------
    # DP construction
    # ------------------------------------------------------------------

    def _build_vertex(
        self,
        state: NetworkState,
        node_id: int,
        n: int,
        split_mean: np.ndarray,
        split_var: np.ndarray,
        deterministic: bool,
        tables: Dict[int, _VertexTable],
    ) -> _VertexTable:
        tree = state.tree
        node = tree.node(node_id)
        if node.is_machine:
            # Lines 4-7 of Algorithm 1: a machine can absorb up to its free
            # slots, and VMs co-located on one machine use no links.
            values = np.full(n + 1, np.inf)
            limit = min(state.free_slots(node_id), n)
            values[: limit + 1] = 0.0
            return _VertexTable(values=values, choices=[])

        partial = np.full(n + 1, np.inf)
        partial[0] = 0.0  # T_v[0] = {v}: no links, nothing placed
        choices: List[np.ndarray] = []
        for child_id in node.children:
            child_eff = self._child_effective(
                state, child_id, n, split_mean, split_var, deterministic, tables
            )
            partial, choice = self._combine(partial, child_eff, n)
            choices.append(choice)
        return _VertexTable(values=partial, choices=choices)

    def _child_effective(
        self,
        state: NetworkState,
        child_id: int,
        n: int,
        split_mean: np.ndarray,
        split_var: np.ndarray,
        deterministic: bool,
        tables: Dict[int, _VertexTable],
    ) -> np.ndarray:
        """max(Opt(T_child, e), O_uplink(N, e)) with infeasible e set to inf.

        The uplink filter implements the allocable-set definition
        (Definition 1): the bandwidth constraint of every link inside the
        child subtree *and* of its uplink.
        """
        child_values = tables[child_id].values
        occ = _uplink_occupancy_vector(
            state.links[child_id], state.risk_c, split_mean, split_var, deterministic
        )
        effective = np.maximum(child_values, occ)
        effective[occ >= _FEASIBLE_LIMIT] = np.inf
        return effective

    def _combine(
        self, partial: np.ndarray, child_eff: np.ndarray, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(min, max)-convolve the running table with one child's table.

        Implements Eq. (11): ``Opt(T_v[i], s) = min over e+h=s of
        max(Opt(T_v[i-1], h), effective_child(e))``, recording the minimizing
        ``e`` (the ``D_v[i, s]`` table of Algorithm 1).  In the
        feasibility-only variant the first feasible ``e`` is recorded
        instead — TIVC "makes no distinction" between valid splits.
        """
        new_values = np.full(n + 1, np.inf)
        choice = np.full(n + 1, -1, dtype=np.int64)
        feasible_h = np.isfinite(partial)
        if not feasible_h.any():
            return new_values, choice
        max_h = int(np.flatnonzero(feasible_h)[-1])
        for e in np.flatnonzero(np.isfinite(child_eff)):
            e = int(e)
            upper = min(max_h, n - e)
            if upper < 0:
                continue
            segment = partial[: upper + 1]
            # Infeasible h (inf) propagates through the max, so no extra mask.
            candidate = np.maximum(child_eff[e], segment)
            target = new_values[e : e + upper + 1]
            chosen = choice[e : e + upper + 1]
            if self._optimize:
                better = candidate < target
            else:
                better = np.isfinite(candidate) & ~np.isfinite(target)
            target[better] = candidate[better]
            chosen[better] = e
        return new_values, choice

    # ------------------------------------------------------------------
    # Backtracking (the Alloc() procedure of Algorithm 1)
    # ------------------------------------------------------------------

    def _backtrack(
        self,
        tree,
        tables: Dict[int, _VertexTable],
        node_id: int,
        count: int,
        machine_counts: Dict[int, int],
    ) -> None:
        if count == 0:
            return
        node = tree.node(node_id)
        if node.is_machine:
            machine_counts[node_id] = count
            return
        table = tables[node_id]
        remaining = count
        for index in range(len(node.children) - 1, -1, -1):
            child_count = int(table.choices[index][remaining])
            if child_count < 0:
                raise RuntimeError(
                    f"backtracking hit an infeasible entry at node {node_id}"
                )
            self._backtrack(tree, tables, node.children[index], child_count, machine_counts)
            remaining -= child_count
        if remaining != 0:
            raise RuntimeError(f"backtracking left {remaining} VMs unassigned at {node_id}")

    # ------------------------------------------------------------------
    # Elastic resize support
    # ------------------------------------------------------------------

    def resize_link_demands(
        self,
        state: NetworkState,
        new_request: VirtualClusterRequest,
        host_node: int,
        machine_counts,
        machine_vms=None,
    ):
        """Occupancy-delta query: the resized footprint on a fixed placement.

        Homogeneous VMs are interchangeable, so the new per-link demand is
        just the Lemma-1 split moments of the *new* request looked up at the
        placement's unchanged per-link VM counts.
        """
        if not self.supports(new_request):
            raise TypeError(f"{self.name} cannot resize a {type(new_request).__name__}")
        split_mean, split_var = homogeneous_split_moments(new_request)
        return link_demands_from_counts(
            state.tree, host_node, machine_counts, split_mean, split_var
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @staticmethod
    def _subtree_max_occupancy(
        state: NetworkState, host: int, link_demands: Dict[int, Normal]
    ) -> float:
        """Post-allocation ``max O_L`` over the hosting subtree's links."""
        worst = 0.0
        for link in state.tree.links_under(host):
            link_state = state.links[link.link_id]
            demand = link_demands.get(link.link_id)
            if demand is None:
                occ = link_state.occupancy(state.risk_c)
            else:
                # extra mean and extra deterministic reservation enter Eq. (6)
                # identically, so one call covers both request kinds.
                occ = link_state.occupancy_with(
                    state.risk_c, extra_mean=demand.mean, extra_var=demand.variance
                )
            if occ > worst:
                worst = occ
        return worst
