"""Production Algorithm 1 must be *decision-identical* to the seed DP.

The level walk (subtree free-slot pruning, batched uplink occupancy, shared
machine/vertex tables, broadcast (min, max)-convolution) claims bit-for-bit
equality with the recursion as first written — the oracle of
``tests/reference`` — not statistical equivalence.  These tests drive both
over the same recorded request traces — admissions *and* releases — and
compare every decision: host node, per-machine placement, and the reported
``max_occupancy``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abstractions import DeterministicVC, HomogeneousSVC
from repro.allocation.svc_homogeneous import (
    AdaptedTIVCAllocator,
    SVCHomogeneousAllocator,
)
from repro.network import NetworkState
from repro.stochastic.aggregate import risk_quantile
from repro.topology import DatacenterSpec, build_datacenter
from tests.reference import SeedTreeSearch


def _record_trace(seed: int, steps: int, max_n: int):
    """A reproducible request/release trace: (kind, request, release-ratio)."""
    rng = np.random.default_rng(seed)
    trace = []
    for _ in range(steps):
        n = int(np.clip(round(rng.exponential(max_n / 4)), 2, max_n))
        if rng.random() < 0.3:
            request = DeterministicVC(n_vms=n, bandwidth=float(rng.choice([100.0, 200.0, 300.0])))
        else:
            request = HomogeneousSVC(
                n_vms=n,
                mean=float(rng.choice([100.0, 200.0, 300.0, 400.0, 500.0])),
                std=float(rng.uniform(0.0, 1.0)) * 100.0,
            )
        trace.append((request, float(rng.random())))
    return trace


def _replay(trace, tree, make_fast, make_seed, epsilon=0.05):
    """Run the trace through both allocators, asserting identical decisions."""
    fast_state = NetworkState(tree, epsilon=epsilon)
    seed_state = NetworkState(tree, epsilon=epsilon)
    fast, seed = make_fast(), make_seed()
    active = []
    decisions = 0
    for request_id, (request, release_draw) in enumerate(trace, start=1):
        fast_alloc = fast.allocate(fast_state, request, request_id)
        seed_alloc = seed.allocate(seed_state, request, request_id)
        assert (fast_alloc is None) == (seed_alloc is None), (
            f"request {request_id}: fast={fast_alloc is not None} "
            f"seed={seed_alloc is not None}"
        )
        if fast_alloc is not None:
            assert fast_alloc.host_node == seed_alloc.host_node
            assert fast_alloc.machine_counts == seed_alloc.machine_counts
            # Bit-identical, not approximately equal:
            assert fast_alloc.max_occupancy == seed_alloc.max_occupancy
            fast_state.commit(fast_alloc)
            seed_state.commit(seed_alloc)
            active.append((fast_alloc, seed_alloc))
            decisions += 1
        if active and release_draw < 0.3:
            index = int(release_draw * 1e6) % len(active)
            fast_alloc, seed_alloc = active.pop(index)
            fast_state.release(fast_alloc)
            seed_state.release(seed_alloc)
    # Link states stay bit-identical too.
    for link_id, fast_link in fast_state.links.items():
        seed_link = seed_state.links[link_id]
        assert fast_link.mean_total == seed_link.mean_total
        assert fast_link.var_total == seed_link.var_total
        assert fast_link.deterministic_total == seed_link.deterministic_total
    return decisions


class TestRecordedTraceEquivalence:
    def test_svc_dp_identical_on_recorded_trace(self, tiny_tree):
        trace = _record_trace(seed=7, steps=120, max_n=24)
        placed = _replay(
            trace,
            tiny_tree,
            lambda: SVCHomogeneousAllocator(),
            lambda: SeedTreeSearch(optimize=True),
        )
        assert placed > 10  # the trace must actually exercise placements

    def test_tivc_identical_on_recorded_trace(self, tiny_tree):
        trace = _record_trace(seed=11, steps=120, max_n=24)
        placed = _replay(
            trace,
            tiny_tree,
            lambda: AdaptedTIVCAllocator(),
            lambda: SeedTreeSearch(optimize=False),
        )
        assert placed > 10

    def test_svc_dp_identical_on_larger_tree(self):
        tree = build_datacenter(DatacenterSpec(machines_per_rack=8, racks_per_pod=3, pods=3))
        trace = _record_trace(seed=3, steps=80, max_n=48)
        placed = _replay(
            trace,
            tree,
            lambda: SVCHomogeneousAllocator(),
            lambda: SeedTreeSearch(optimize=True),
        )
        assert placed > 10

    def test_seed_allocator_reports_its_name(self):
        assert SVCHomogeneousAllocator().name == "svc-dp"


class TestRandomTreeAgreement:
    """Hypothesis: pruned and seed DP agree on allocability for random trees."""

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        machines_per_rack=st.integers(min_value=1, max_value=4),
        racks=st.integers(min_value=1, max_value=3),
        pods=st.integers(min_value=1, max_value=2),
        n_vms=st.integers(min_value=2, max_value=20),
        mean=st.sampled_from([50.0, 150.0, 400.0]),
        rho=st.floats(min_value=0.0, max_value=1.0),
        oversub=st.sampled_from([1.0, 2.0, 4.0]),
    )
    def test_allocability_agrees(self, machines_per_rack, racks, pods, n_vms, mean, rho, oversub):
        spec = DatacenterSpec(
            machines_per_rack=machines_per_rack,
            slots_per_machine=2,
            racks_per_pod=racks,
            pods=pods,
            machine_link_mbps=500.0,
            oversubscription=oversub,
        )
        tree = build_datacenter(spec)
        request = HomogeneousSVC(n_vms=n_vms, mean=mean, std=rho * mean)
        fast = SVCHomogeneousAllocator().allocate(NetworkState(tree), request, 1)
        seed = SeedTreeSearch(optimize=True).allocate(NetworkState(tree), request, 1)
        assert (fast is None) == (seed is None)
        if fast is not None:
            assert fast.host_node == seed.host_node
            assert fast.machine_counts == seed.machine_counts
            assert fast.max_occupancy == seed.max_occupancy


class TestRiskQuantileConsistency:
    """The cached quantile must stay consistent with the network state."""

    @settings(max_examples=50, deadline=None)
    @given(epsilon=st.floats(min_value=1e-6, max_value=0.5))
    def test_state_risk_c_matches_cached_quantile(self, tiny_tree, epsilon):
        state = NetworkState(tiny_tree, epsilon=epsilon)
        assert state.risk_c == risk_quantile(state.epsilon)
        # Repeated lookups return the identical cached value.
        assert risk_quantile(epsilon) == risk_quantile(epsilon)

    def test_invalid_epsilon_still_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                risk_quantile(bad)


class TestSubtreeFreeSlotTotals:
    """NetworkState's incremental per-subtree totals match a fresh recount."""

    def _assert_totals_consistent(self, state):
        tree = state.tree
        for node in tree.nodes:
            expected = sum(
                state.free_slots(machine) for machine in tree.machines_under(node.node_id)
            )
            assert state.free_slots_under(node.node_id) == expected

    def test_totals_track_commit_and_release(self, tiny_tree):
        state = NetworkState(tiny_tree, epsilon=0.05)
        allocator = SVCHomogeneousAllocator()
        self._assert_totals_consistent(state)
        committed = []
        for request_id in range(1, 9):
            allocation = allocator.allocate(
                state, HomogeneousSVC(n_vms=6, mean=100.0, std=30.0), request_id
            )
            if allocation is None:
                break
            state.commit(allocation)
            committed.append(allocation)
            self._assert_totals_consistent(state)
        assert committed
        for allocation in committed:
            state.release(allocation)
            self._assert_totals_consistent(state)
        assert state.is_pristine()
        assert state.free_slots_under(tiny_tree.root_id) == tiny_tree.total_slots
