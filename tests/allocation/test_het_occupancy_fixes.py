"""Occupancy-accounting regressions of the heterogeneous allocators.

Two bugs shared by the substring heuristic and the exact subset DP:

* an **empty child segment/subset** was charged the child's *existing*
  uplink occupancy — and inherited ``inf`` once the uplink sat at
  ``_FEASIBLE_LIMIT`` — so a request that merely needed to *skip* a
  saturated sibling was rejected outright (the min-max objective of the
  paper is defined over links that actually carry the request's demand);
* a **zero-capacity uplink** was divided by without a guard, yielding NaN
  occupancies (``0/0`` for zero-demand segments) that silently survive both
  the ``>= _FEASIBLE_LIMIT`` mask and every ``<`` comparison — or, in the
  exact allocator, a raw ``ZeroDivisionError``.

These tests fail on the pre-fix implementations and pin the fixed
semantics: skipping a child costs exactly 0 and is always feasible; a
zero-capacity uplink admits nothing (``inf``, never NaN, never a crash).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstractions import HeterogeneousSVC
from repro.allocation import (
    SVCHeterogeneousAllocator,
    SVCHeterogeneousExactAllocator,
)
from repro.allocation.demand_model import SegmentDemandTable
from repro.network import NetworkState
from repro.network.link_state import LinkState
from repro.topology.nodes import Link
from repro.stochastic import Normal
from tests.conftest import build_star_tree
from tests.reference import SeedSubstringHeuristic


def _machine_ids(tree):
    return sorted(node.node_id for node in tree.nodes if node.is_machine)


def _saturate_uplink(state: NetworkState, machine_id: int) -> None:
    """Fill the machine's uplink to occupancy exactly 1.0 (external tenant)."""
    link = state.links[machine_id]
    link.add_deterministic(10_000, link.capacity)


def _zero_capacity_link_state(child: int, parent: int) -> LinkState:
    """A real LinkState over a capacity-0 link (Link validation bypassed —
    the constructor rightly refuses capacity <= 0, but the allocators must
    still behave if such a state ever materializes, e.g. via link failure
    models that drain capacity)."""
    link = object.__new__(Link)
    object.__setattr__(link, "link_id", child)
    object.__setattr__(link, "child", child)
    object.__setattr__(link, "parent", parent)
    object.__setattr__(link, "capacity", 0.0)
    return LinkState(link)


def _small_request(n: int) -> HeterogeneousSVC:
    return HeterogeneousSVC(
        n_vms=n, demands=tuple(Normal(40.0 + 5.0 * i, 8.0) for i in range(n))
    )


class TestEmptySegmentSemantics:
    """Skipping a full/saturated child must cost 0 and never be infeasible."""

    def _saturated_sibling_state(self):
        tree = build_star_tree(slots=(2, 2, 2), capacities=(1000.0, 1000.0, 1000.0))
        state = NetworkState(tree, epsilon=0.05)
        m0, m1, m2 = _machine_ids(tree)
        _saturate_uplink(state, m0)
        return state, (m0, m1, m2)

    @pytest.mark.parametrize(
        "make_allocator",
        [
            lambda: SVCHeterogeneousAllocator(),
            lambda: SeedSubstringHeuristic(),
            lambda: SVCHeterogeneousExactAllocator(),
        ],
        ids=["heuristic-fast", "heuristic-reference", "exact"],
    )
    def test_admit_flips_with_near_saturated_sibling(self, make_allocator):
        # 3 machines x 2 slots; m0's uplink is saturated by an external
        # reservation.  A 4-VM request fits on m1+m2 and must be admitted by
        # skipping m0 — the pre-fix code charged the empty segment m0's
        # existing occupancy (inf at the limit) and rejected the request.
        state, (m0, _m1, _m2) = self._saturated_sibling_state()
        allocation = make_allocator().allocate(state, _small_request(4), 1)
        assert allocation is not None, "skipping a saturated sibling must be feasible"
        assert m0 not in allocation.machine_vms
        # The saturated uplink carries none of this request's demand, so it
        # must not contribute to the reported min-max occupancy either.
        assert allocation.max_occupancy < 0.5

    @pytest.mark.parametrize(
        "make_allocator",
        [
            lambda: SVCHeterogeneousAllocator(),
            lambda: SeedSubstringHeuristic(),
            lambda: SVCHeterogeneousExactAllocator(),
        ],
        ids=["heuristic-fast", "heuristic-reference", "exact"],
    )
    def test_committed_placement_respects_eq1(self, make_allocator):
        state, _machines = self._saturated_sibling_state()
        allocation = make_allocator().allocate(state, _small_request(4), 1)
        state.commit(allocation)
        risk_c = state.risk_c
        for link_id in allocation.link_demands:
            assert state.links[link_id].occupancy(risk_c) < 1.0
        state.release(allocation)

    def test_empty_segment_costs_zero_in_effective_matrix(self):
        # Directly pin the matrix semantics: the diagonal (empty segments)
        # of the effective child matrix is 0 regardless of existing load.
        state, (m0, _m1, _m2) = self._saturated_sibling_state()
        request = _small_request(4)
        allocator = SeedSubstringHeuristic()
        segments = SegmentDemandTable(request)
        tables = {m0: allocator._build_vertex(state, m0, 4, segments, {})}
        effective = allocator._child_effective(state, m0, 4, segments, tables)
        assert np.all(np.diagonal(effective) == 0.0)
        # Nonzero segments through the saturated uplink stay infeasible.
        assert np.isinf(effective[0, 4])


class TestZeroCapacityGuard:
    """Zero-capacity uplinks yield inf occupancy — never NaN, never a crash."""

    def _state_with_dead_uplink(self, slots=(2, 2, 2)):
        tree = build_star_tree(slots=slots, capacities=(1000.0,) * len(slots))
        state = NetworkState(tree, epsilon=0.05)
        machines = _machine_ids(tree)
        m0 = machines[0]
        parent = state.links[m0].link.parent
        state.links[m0] = _zero_capacity_link_state(m0, parent)
        return state, machines

    def test_heuristic_effective_matrix_is_nan_free(self):
        state, machines = self._state_with_dead_uplink()
        m0 = machines[0]
        request = _small_request(4)
        allocator = SeedSubstringHeuristic()
        segments = SegmentDemandTable(request)
        tables = {m0: allocator._build_vertex(state, m0, 4, segments, {})}
        effective = allocator._child_effective(state, m0, 4, segments, tables)
        assert not np.isnan(effective).any(), "NaN slips through every mask"
        assert np.all(np.diagonal(effective) == 0.0)
        off_diagonal = ~np.eye(5, dtype=bool)
        assert np.all(np.isinf(effective[off_diagonal]))

    @pytest.mark.parametrize(
        "make_allocator",
        [
            lambda: SVCHeterogeneousAllocator(),
            lambda: SeedSubstringHeuristic(),
            lambda: SVCHeterogeneousExactAllocator(),
        ],
        ids=["heuristic-fast", "heuristic-reference", "exact"],
    )
    def test_allocate_survives_and_avoids_dead_subtree(self, make_allocator):
        # 4 VMs over 3x2 slots: some split is unavoidable, and any split
        # touching m0 must route demand over the dead uplink — so a valid
        # placement uses m1+m2 only.  The pre-fix exact allocator crashed
        # with ZeroDivisionError here; the heuristic produced NaN tables.
        state, machines = self._state_with_dead_uplink()
        allocation = make_allocator().allocate(state, _small_request(4), 1)
        assert allocation is not None
        assert machines[0] not in allocation.machine_vms
        assert np.isfinite(allocation.max_occupancy)

    @pytest.mark.parametrize(
        "make_allocator",
        [
            lambda: SVCHeterogeneousAllocator(),
            lambda: SeedSubstringHeuristic(),
            lambda: SVCHeterogeneousExactAllocator(),
        ],
        ids=["heuristic-fast", "heuristic-reference", "exact"],
    )
    def test_reject_when_dead_uplink_is_unavoidable(self, make_allocator):
        # Two machines only: a 3-VM request must split across both, so the
        # dead uplink is unavoidable and the request is cleanly rejected.
        state, _machines = self._state_with_dead_uplink(slots=(2, 2))
        assert make_allocator().allocate(state, _small_request(3), 1) is None

    @settings(max_examples=25, deadline=None)
    @given(
        n_vms=st.integers(min_value=3, max_value=4),
        mean=st.floats(min_value=0.0, max_value=500.0),
        rho=st.floats(min_value=0.0, max_value=1.0),
        make_allocator=st.sampled_from([SVCHeterogeneousAllocator, SeedSubstringHeuristic]),
    )
    def test_hypothesis_never_nan_never_crash(self, n_vms, mean, rho, make_allocator):
        # Mirrors the zero-capacity hypothesis cases tests/simulation has
        # for maxmin.py: arbitrary demands (including exactly-zero ones,
        # the 0/0 path) over a dead uplink.
        state, machines = self._state_with_dead_uplink()
        request = HeterogeneousSVC(
            n_vms=n_vms,
            demands=tuple(Normal(mean + i, rho * (mean + i)) for i in range(n_vms)),
        )
        allocation = make_allocator().allocate(state, request, 1)
        if allocation is not None:
            assert machines[0] not in allocation.machine_vms
            assert np.isfinite(allocation.max_occupancy)
