"""The production substring heuristic must be *decision-identical* to its oracle.

Same contract the homogeneous DP is pinned by in
``test_fast_path_equivalence.py``: the level walk (shared
machine/vertex/effective tables, banded (min, max)-matrix combine) claims
bit-for-bit equality with the straight-line recursion of
``tests/reference`` — host node, per-machine VM placement, reported
``max_occupancy``, and the link-state moments left behind after a full
admit/release trace.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abstractions import HeterogeneousSVC
from repro.allocation.demand_model import SegmentDemandTable
from repro.allocation.kernels import _band_of
from repro.allocation.svc_het_heuristic import SVCHeterogeneousAllocator, _FastCaches
from repro.network import NetworkState
from repro.stochastic import Normal
from repro.topology import DatacenterSpec, build_datacenter
from tests.reference import SeedSubstringHeuristic


def _record_het_trace(seed: int, steps: int, max_n: int, mean_n: float = 0.0):
    """A reproducible heterogeneous request/release trace."""
    rng = np.random.default_rng(seed)
    trace = []
    for _ in range(steps):
        n = int(np.clip(round(rng.exponential(mean_n or max_n / 4)), 2, max_n))
        demands = tuple(
            Normal(
                float(rng.choice([100.0, 200.0, 300.0, 400.0, 500.0])),
                float(rng.uniform(0.0, 1.0)) * 100.0,
            )
            for _ in range(n)
        )
        trace.append((HeterogeneousSVC(n_vms=n, demands=demands), float(rng.random())))
    return trace


def _replay(trace, tree, epsilon=0.05):
    """Drive fast and reference allocators, asserting identical decisions.

    Returns how many requests were placed and how many rejected.
    """
    fast_state = NetworkState(tree, epsilon=epsilon)
    seed_state = NetworkState(tree, epsilon=epsilon)
    fast = SVCHeterogeneousAllocator()
    seed = SeedSubstringHeuristic()
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
            # The exact VM-to-machine assignment, not just the counts:
            assert fast_alloc.machine_vms == seed_alloc.machine_vms
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
    for link_id, fast_link in fast_state.links.items():
        seed_link = seed_state.links[link_id]
        assert fast_link.mean_total == seed_link.mean_total
        assert fast_link.var_total == seed_link.var_total
        assert fast_link.deterministic_total == seed_link.deterministic_total
    return decisions, len(trace) - decisions


class TestRecordedTraceEquivalence:
    def test_identical_on_recorded_trace(self, tiny_tree):
        placed, _ = _replay(_record_het_trace(seed=19, steps=90, max_n=24), tiny_tree)
        assert placed > 10  # the trace must actually exercise placements

    def test_identical_on_larger_tree(self):
        tree = build_datacenter(DatacenterSpec(machines_per_rack=8, racks_per_pod=3, pods=3))
        placed, _ = _replay(_record_het_trace(seed=5, steps=50, max_n=40), tree)
        assert placed > 10

    def test_identical_on_paper_shaped_racks_until_rejecting(self):
        # Where the benchmark lives: the paper's 20 x 4-slot racks at
        # oversubscription 2 and sizes up to the workloads' cut of 64, loaded
        # until the tree turns requests away (reject verdicts are decisions
        # too, and they run every level of the search).
        tree = build_datacenter(
            DatacenterSpec(
                machines_per_rack=20, slots_per_machine=4, racks_per_pod=2, pods=2,
                oversubscription=2.0,
            )
        )
        trace = _record_het_trace(seed=11, steps=60, max_n=64, mean_n=40.0)
        assert max(request.n_vms for request, _ in trace) == 64
        placed, rejected = _replay(trace, tree)
        assert placed > 10
        assert rejected >= 10

    def test_seed_allocator_reports_its_name(self):
        assert SVCHeterogeneousAllocator().name == "svc-het"


class TestRandomTreeAgreement:
    """Hypothesis: fast and reference agree on arbitrary topologies."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        machines_per_rack=st.integers(min_value=1, max_value=4),
        racks=st.integers(min_value=1, max_value=3),
        pods=st.integers(min_value=1, max_value=2),
        n_vms=st.integers(min_value=2, max_value=14),
        base=st.sampled_from([50.0, 150.0, 400.0]),
        rho=st.floats(min_value=0.0, max_value=1.0),
        oversub=st.sampled_from([1.0, 2.0, 4.0]),
    )
    def test_decisions_agree(self, machines_per_rack, racks, pods, n_vms, base, rho, oversub):
        spec = DatacenterSpec(
            machines_per_rack=machines_per_rack,
            slots_per_machine=2,
            racks_per_pod=racks,
            pods=pods,
            machine_link_mbps=500.0,
            oversubscription=oversub,
        )
        tree = build_datacenter(spec)
        request = HeterogeneousSVC(
            n_vms=n_vms,
            demands=tuple(
                Normal(base * (1.0 + 0.1 * i), rho * base) for i in range(n_vms)
            ),
        )
        fast = SVCHeterogeneousAllocator().allocate(NetworkState(tree), request, 1)
        seed = SeedSubstringHeuristic().allocate(NetworkState(tree), request, 1)
        assert (fast is None) == (seed is None)
        if fast is not None:
            assert fast.host_node == seed.host_node
            assert fast.machine_vms == seed.machine_vms
            assert fast.max_occupancy == seed.max_occupancy


def _search_both(state, request):
    """The fast search's caches and host beside the reference's full tables."""
    n = request.n_vms
    segments = SegmentDemandTable(request)
    seed = SeedSubstringHeuristic()
    tables = {}
    for _level, node_ids in state.tree.bottom_up_levels():
        for node_id in node_ids:
            tables[node_id] = seed._build_vertex(state, node_id, n, segments, tables)
    caches = _FastCaches(
        n, _band_of(segments.demand_mean, n), _band_of(segments.demand_var, n)
    )
    host, _value = SVCHeterogeneousAllocator()._search_fast(state, caches, None)
    return caches, host, tables


class TestSplitRecovery:
    """Row-only split recovery returns the reference's first-minimizing split."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        machines_per_rack=st.integers(min_value=2, max_value=4),
        racks=st.integers(min_value=1, max_value=3),
        pods=st.integers(min_value=1, max_value=2),
        n_vms=st.integers(min_value=3, max_value=14),
        # Few distinct demands among many VMs: whole runs of split points
        # give equal occupancy, so the tie-break is what is being tested.
        classes=st.lists(st.sampled_from([0.0, 0.0, 50.0, 100.0]), min_size=1, max_size=2),
        preload=st.integers(min_value=0, max_value=2),
    )
    def test_every_split_on_the_path_is_the_reference_choice(
        self, machines_per_rack, racks, pods, n_vms, classes, preload
    ):
        tree = build_datacenter(
            DatacenterSpec(
                machines_per_rack=machines_per_rack, slots_per_machine=3,
                racks_per_pod=racks, pods=pods, machine_link_mbps=500.0,
                oversubscription=2.0,
            )
        )
        state = NetworkState(tree)
        fast = SVCHeterogeneousAllocator()
        for request_id in range(1, preload + 1):
            loaded = fast.allocate(state, HeterogeneousSVC.uniform(4, 60.0, 20.0), request_id)
            if loaded is not None:
                state.commit(loaded)
        request = HeterogeneousSVC(
            n_vms=n_vms,
            demands=tuple(
                Normal(100.0 + classes[i % len(classes)], 30.0) for i in range(n_vms)
            ),
        )
        caches, host, tables = _search_both(state, request)
        if host is None:
            return
        recovered = {}
        fast._backtrack_fast(tree, caches, host, 0, n_vms, recovered)
        vertices = 0
        for node_id, (start, end) in recovered.items():
            node = tree.node(node_id)
            if node.is_machine or start == end:
                continue
            vertices += 1
            right = end
            for index in range(len(node.children) - 1, -1, -1):
                split, child_end = recovered[node.children[index]]
                assert child_end == right
                assert split == tables[node_id].choices[index][start, right]
                right = split
            assert right == start
        assert vertices >= 1 or tree.node(host).is_machine

    def test_infeasible_segment_raises_like_the_reference(self, tiny_tree):
        # 20 VMs overflow a 16-slot rack: the pod hosts, and asking a rack
        # for the whole request must fail loudly on both paths.
        state = NetworkState(tiny_tree)
        request = HeterogeneousSVC.uniform(20, 100.0, 30.0)
        caches, host, tables = _search_both(state, request)
        rack = tiny_tree.nodes_at_level(1)[0]
        assert tiny_tree.node(host).level == 2
        with pytest.raises(RuntimeError, match="backtracking hit an infeasible segment"):
            SVCHeterogeneousAllocator()._backtrack_fast(tiny_tree, caches, rack, 0, 20, {})
        with pytest.raises(RuntimeError, match="backtracking hit an infeasible segment"):
            SeedSubstringHeuristic()._backtrack(tiny_tree, tables, rack, 0, 20, {})
