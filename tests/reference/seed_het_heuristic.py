"""The substring heuristic as first written: full ``(N+1) x (N+1)`` tables.

The reference the level walk of ``repro.allocation.svc_het_heuristic`` is
proven against, decision for decision.  ``_SegmentTable``,
``_empty_segments``, ``_build_vertex``, ``_child_effective``, ``_backtrack``
and the bottom-up loop of ``allocate`` are the bodies that shipped in that
module behind ``fast=False`` until PR 24, unchanged; ``allocate`` is the seed
half of the fork it replaces, with the observability calls left out.

Segments are half-open ``[s, e)`` over the VMs sorted by demand percentile;
``values[s, e]`` is ``Opt(T_v, [s, e))``, ``inf`` marking "not allocable"
(and everything below the diagonal).  Every vertex gets a dense table and a
dense choice table per child: ``O(|V| * Delta * N^3)`` float operations and
``O(|V| * Delta * N^2)`` memory, which is what the production bands avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.abstractions.requests import HeterogeneousSVC, VirtualClusterRequest
from repro.allocation.base import Allocation, Allocator
from repro.allocation.demand_model import SegmentDemandTable, subset_split_demand
from repro.network.link_state import LinkState, NetworkState
from repro.stochastic.normal import Normal

_FEASIBLE_LIMIT = 1.0


@dataclass
class _SegmentTable:
    """DP state per vertex: Opt per segment + per-child split points."""

    values: np.ndarray  # (N+1, N+1); values[s, e] = Opt(T_v, [s, e))
    choices: List[np.ndarray]  # choices[i][s, e] = split point k for child i


def _empty_segments(n: int) -> np.ndarray:
    values = np.full((n + 1, n + 1), np.inf)
    np.fill_diagonal(values, 0.0)
    return values


class SeedSubstringHeuristic(Allocator):
    """The seed substring heuristic: one dense table per vertex, leaves up."""

    name = "seed-substring"

    def __init__(self, percentile: float = 95.0) -> None:
        self._percentile = percentile

    def supports(self, request: VirtualClusterRequest) -> bool:
        return isinstance(request, HeterogeneousSVC)

    def resize_link_demands(
        self,
        state: NetworkState,
        new_request: VirtualClusterRequest,
        host_node: int,
        machine_counts,
        machine_vms=None,
    ) -> Dict[int, Normal]:
        """Occupancy-delta query: the resized footprint on a fixed placement.

        Heterogeneous VMs are *not* interchangeable, so the per-link demand
        is the exact Lemma-1 subset demand (Section V-A ground truth) of the
        VM identities each link separates from the rest — computed from the
        placement's ``machine_vms`` accumulated up to the host node.
        """
        if not isinstance(new_request, HeterogeneousSVC):
            raise TypeError(f"{self.name} cannot resize a {type(new_request).__name__}")
        if machine_vms is None:
            raise ValueError("heterogeneous resize needs per-machine VM identities")
        tree = state.tree
        below: Dict[int, List[int]] = {}
        for machine_id, vms in machine_vms.items():
            node_id = machine_id
            while node_id != host_node:
                below.setdefault(node_id, []).extend(vms)
                parent = tree.node(node_id).parent
                if parent is None:
                    raise ValueError(
                        f"machine {machine_id} is not under host node {host_node}"
                    )
                node_id = parent
        n = new_request.n_vms
        demands: Dict[int, Normal] = {}
        for node_id, subset in below.items():
            if 0 < len(subset) < n:
                demands[node_id] = subset_split_demand(new_request, subset)
        return demands

    def allocate(
        self, state: NetworkState, request: VirtualClusterRequest, request_id: int
    ) -> Optional[Allocation]:
        if not isinstance(request, HeterogeneousSVC):
            raise TypeError(f"{self.name} only places heterogeneous SVC requests")
        n = request.n_vms
        if n > state.total_free_slots:
            return None
        segments = SegmentDemandTable(request, percentile=self._percentile)

        tree = state.tree
        tables: Dict[int, _SegmentTable] = {}
        host: Optional[int] = None
        host_value = np.inf
        for _level, node_ids in tree.bottom_up_levels():
            for node_id in node_ids:
                table = self._build_vertex(state, node_id, n, segments, tables)
                tables[node_id] = table
                value = float(table.values[0, n])
                if np.isfinite(value) and value < host_value:
                    host, host_value = node_id, value
            if host is not None:
                break
        if host is None:
            return None

        node_segments: Dict[int, Tuple[int, int]] = {}
        self._backtrack(tree, tables, host, 0, n, node_segments)

        machine_vms: Dict[int, Tuple[int, ...]] = {}
        link_demands: Dict[int, Normal] = {}
        for node_id, (start, end) in node_segments.items():
            if start == end:
                continue
            if tree.node(node_id).is_machine:
                machine_vms[node_id] = segments.segment_vms(start, end)
            if node_id != host and 0 < end - start < n:
                link_demands[node_id] = segments.segment_demand(start, end)
        machine_counts = {machine: len(vms) for machine, vms in machine_vms.items()}
        return Allocation(
            request=request,
            request_id=request_id,
            host_node=host,
            machine_counts=machine_counts,
            machine_vms=machine_vms,
            link_demands=link_demands,
            max_occupancy=host_value,
        )

    # ------------------------------------------------------------------
    # DP construction
    # ------------------------------------------------------------------

    def _build_vertex(
        self,
        state: NetworkState,
        node_id: int,
        n: int,
        segments: SegmentDemandTable,
        tables: Dict[int, _SegmentTable],
    ) -> _SegmentTable:
        tree = state.tree
        node = tree.node(node_id)
        if node.is_machine:
            # Any substring short enough for the machine's free slots fits;
            # co-located VMs use no links, so the inner objective is 0.
            values = np.full((n + 1, n + 1), np.inf)
            limit = state.free_slots(node_id)
            starts, ends = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
            length = ends - starts
            values[(length >= 0) & (length <= limit)] = 0.0
            return _SegmentTable(values=values, choices=[])

        partial = _empty_segments(n)
        choices: List[np.ndarray] = []
        for child_id in node.children:
            child_eff = self._child_effective(state, child_id, n, segments, tables)
            new_values = np.full((n + 1, n + 1), np.inf)
            choice = np.full((n + 1, n + 1), -1, dtype=np.int64)
            for k in range(n + 1):
                # Segment [s, e) = [s, k) placed so far + [k, e) in this child.
                candidate = np.maximum(partial[:, k : k + 1], child_eff[k : k + 1, :])
                better = candidate < new_values
                new_values[better] = candidate[better]
                choice[better] = k
            partial = new_values
            choices.append(choice)
        return _SegmentTable(values=partial, choices=choices)

    def _child_effective(
        self,
        state: NetworkState,
        child_id: int,
        n: int,
        segments: SegmentDemandTable,
        tables: Dict,
    ) -> np.ndarray:
        """max(Opt(child, seg), O_uplink(seg)), inf where the uplink rejects.

        A zero-capacity uplink admits nothing into the subtree; empty
        segments place nothing in it, cost exactly 0, and are always feasible
        regardless of the uplink's existing occupancy.
        """
        link_state: LinkState = state.links[child_id]
        if link_state.capacity > 0.0:
            variance = link_state.var_total + segments.demand_var
            effective_demand = (
                link_state.mean_total
                + segments.demand_mean
                + state.risk_c * np.sqrt(np.maximum(variance, 0.0))
            )
            occupancy = (
                link_state.deterministic_total + effective_demand
            ) / link_state.capacity
            effective = np.maximum(tables[child_id].values, occupancy)
            effective[occupancy >= _FEASIBLE_LIMIT] = np.inf
        else:
            # Guarded: a raw division would yield inf (or NaN for an all-zero
            # numerator), and NaN slips through every comparison mask.
            effective = np.full((n + 1, n + 1), np.inf)
        np.fill_diagonal(effective, 0.0)
        return effective

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------

    def _backtrack(
        self,
        tree,
        tables: Dict[int, _SegmentTable],
        node_id: int,
        start: int,
        end: int,
        node_segments: Dict[int, Tuple[int, int]],
    ) -> None:
        node_segments[node_id] = (start, end)
        if start == end:
            return
        node = tree.node(node_id)
        if node.is_machine:
            return
        table = tables[node_id]
        right = end
        for index in range(len(node.children) - 1, -1, -1):
            split = int(table.choices[index][start, right])
            if split < 0:
                raise RuntimeError(f"backtracking hit an infeasible segment at {node_id}")
            self._backtrack(tree, tables, node.children[index], split, right, node_segments)
            right = split
        if right != start:
            raise RuntimeError(f"backtracking left [{start}, {right}) unassigned at {node_id}")
