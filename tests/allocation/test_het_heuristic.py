"""Substring heuristic allocator: validity, contiguity, quality."""

import numpy as np
import pytest

from repro.abstractions import HeterogeneousSVC, HomogeneousSVC
from repro.allocation import (
    SVCHeterogeneousAllocator,
    SVCHeterogeneousExactAllocator,
    SVCHomogeneousAllocator,
)
from repro.network import NetworkState
from repro.stochastic import Normal
from tests.conftest import build_star_tree
from tests.reference import SeedSubstringHeuristic


def assert_contiguous_segments(request, allocation):
    """Every machine must hold a contiguous substring of the sorted order."""
    order = list(request.sorted_order())
    position = {vm: idx for idx, vm in enumerate(order)}
    for machine_id, vms in allocation.machine_vms.items():
        indices = sorted(position[vm] for vm in vms)
        assert indices == list(range(indices[0], indices[0] + len(indices))), (
            f"machine {machine_id} holds a non-contiguous substring: {indices}"
        )


class TestHeuristicAllocator:
    def test_valid_and_complete(self, tiny_tree, heterogeneous_request):
        state = NetworkState(tiny_tree)
        allocation = SVCHeterogeneousAllocator().allocate(state, heterogeneous_request, 1)
        assert allocation is not None
        placed = sorted(vm for vms in allocation.machine_vms.values() for vm in vms)
        assert placed == list(range(heterogeneous_request.n_vms))

    def test_substring_structure(self, tiny_tree, heterogeneous_request):
        state = NetworkState(tiny_tree)
        allocation = SVCHeterogeneousAllocator().allocate(state, heterogeneous_request, 1)
        assert_contiguous_segments(heterogeneous_request, allocation)

    def test_commit_release_roundtrip(self, tiny_tree, heterogeneous_request):
        state = NetworkState(tiny_tree)
        allocation = SVCHeterogeneousAllocator().allocate(state, heterogeneous_request, 1)
        state.commit(allocation)
        assert state.max_occupancy() < 1.0
        state.release(allocation)
        assert state.is_pristine()

    def test_objective_not_better_than_exact(self, heterogeneous_request):
        # The heuristic searches a subset of placements, so its min-max
        # occupancy is >= the exact optimum (and usually equal on easy inputs).
        tree = build_star_tree(slots=(2, 2, 2), capacities=(900.0, 900.0, 900.0))
        state = NetworkState(tree, epsilon=0.05)
        exact = SVCHeterogeneousExactAllocator().allocate(state, heterogeneous_request, 1)
        heuristic = SVCHeterogeneousAllocator().allocate(state, heterogeneous_request, 2)
        assert exact is not None and heuristic is not None
        assert heuristic.max_occupancy >= exact.max_occupancy - 1e-9

    def test_uniform_het_matches_homogeneous_objective(self):
        # With identical per-VM demands the substring structure is no
        # restriction at all: the heuristic must reach the homogeneous
        # DP's optimum.
        tree = build_star_tree(slots=(3, 3, 3), capacities=(1000.0,) * 3)
        state = NetworkState(tree, epsilon=0.05)
        het = HeterogeneousSVC.uniform(7, mean=150.0, std=50.0)
        homo = HomogeneousSVC(n_vms=7, mean=150.0, std=50.0)
        het_alloc = SVCHeterogeneousAllocator().allocate(state, het, 1)
        homo_alloc = SVCHomogeneousAllocator().allocate(state, homo, 2)
        assert het_alloc.max_occupancy == pytest.approx(
            homo_alloc.max_occupancy, abs=1e-9
        )

    def test_infeasible_returns_none(self):
        tree = build_star_tree(slots=(1, 1), capacities=(100.0, 100.0))
        state = NetworkState(tree, epsilon=0.05)
        request = HeterogeneousSVC.uniform(2, mean=200.0, std=50.0)
        assert SVCHeterogeneousAllocator().allocate(state, request, 1) is None

    def test_single_machine_job_no_links(self, tiny_tree):
        state = NetworkState(tiny_tree)
        request = HeterogeneousSVC(
            n_vms=3, demands=(Normal(50.0, 5.0), Normal(60.0, 6.0), Normal(70.0, 7.0))
        )
        allocation = SVCHeterogeneousAllocator().allocate(state, request, 1)
        assert allocation.num_machines == 1
        assert allocation.link_demands == {}

    def test_rejects_homogeneous_type(self, tiny_tree):
        state = NetworkState(tiny_tree)
        with pytest.raises(TypeError):
            SVCHeterogeneousAllocator().allocate(
                state, HomogeneousSVC(n_vms=2, mean=1.0, std=0.0), 1
            )

    def test_link_demands_match_segments(self, tiny_tree, heterogeneous_request):
        from repro.allocation.demand_model import subset_split_demand

        state = NetworkState(tiny_tree)
        allocation = SVCHeterogeneousAllocator().allocate(state, heterogeneous_request, 1)
        # Recompute each recorded link demand from the VMs actually below it.
        for link_id, recorded in allocation.link_demands.items():
            below = [
                vm
                for machine_id, vms in allocation.machine_vms.items()
                if machine_id in tiny_tree.machines_under(link_id)
                for vm in vms
            ]
            expected = subset_split_demand(heterogeneous_request, below)
            assert recorded.mean == pytest.approx(expected.mean, abs=1e-6)
            assert recorded.variance == pytest.approx(expected.variance, rel=1e-6, abs=1e-6)

    def test_sequential_fill_until_rejection(self, tiny_tree):
        state = NetworkState(tiny_tree)
        allocator = SVCHeterogeneousAllocator()
        admitted = []
        for index in range(60):
            request = HeterogeneousSVC(
                n_vms=4,
                demands=tuple(Normal(150.0 + 50.0 * k, 60.0) for k in range(4)),
            )
            allocation = allocator.allocate(state, request, index + 1)
            if allocation is None:
                break
            state.commit(allocation)
            admitted.append(allocation)
        assert admitted
        assert state.max_occupancy() < 1.0
        for allocation in admitted:
            state.release(allocation)
        assert state.is_pristine()


class TestTinyTreeOptimality:
    """Exhaustive small-instance cross-check against the exact subset DP.

    The substring heuristic searches a strict subset of the exact DP's
    placements, so on every instance it either rejects or reports a min-max
    occupancy >= the exact optimum — and whatever either admits must respect
    the Eq. 1 validity condition (O_L < 1 on every loaded link).
    """

    def _random_instance(self, rng):
        n = int(rng.integers(2, 7))  # N <= 6: exact stays exhaustive and cheap
        machines = int(rng.integers(2, 4))
        slots = tuple(int(rng.integers(1, 4)) for _ in range(machines))
        capacities = tuple(
            float(rng.choice([400.0, 800.0, 1500.0])) for _ in range(machines)
        )
        request = HeterogeneousSVC(
            n_vms=n,
            demands=tuple(
                Normal(
                    float(rng.choice([100.0, 200.0, 300.0])),
                    float(rng.uniform(0.0, 1.0)) * 100.0,
                )
                for _ in range(n)
            ),
        )
        return build_star_tree(slots=slots, capacities=capacities), request

    def _assert_valid_commit(self, tree, allocation):
        state = NetworkState(tree, epsilon=0.05)
        state.commit(allocation)
        for link_id in allocation.link_demands:
            assert state.links[link_id].occupancy(state.risk_c) < 1.0
        state.release(allocation)
        assert state.is_pristine()

    def test_heuristic_never_beats_exact_and_both_respect_eq1(self):
        rng = np.random.default_rng(2024)
        comparable = 0
        for trial in range(40):
            tree, request = self._random_instance(rng)
            exact = SVCHeterogeneousExactAllocator().allocate(
                NetworkState(tree, epsilon=0.05), request, 1
            )
            for make_heuristic in (SVCHeterogeneousAllocator, SeedSubstringHeuristic):
                heuristic = make_heuristic().allocate(
                    NetworkState(tree, epsilon=0.05), request, 1
                )
                if heuristic is not None:
                    # Whatever the restricted search admits, the exhaustive
                    # search admits too — and at least as cheaply.
                    assert exact is not None, f"trial {trial}: exact rejected"
                    assert heuristic.max_occupancy >= exact.max_occupancy - 1e-9
                    self._assert_valid_commit(tree, heuristic)
                    comparable += 1
            if exact is not None:
                self._assert_valid_commit(tree, exact)
        assert comparable > 20  # the sweep must actually exercise admissions
