"""Elastic resize at the manager layer: outcomes, exactness, bookkeeping.

The anchor property (the PR's acceptance criterion) is
:class:`TestResizeExactness`: after any sequence of grow/shrink resizes,
the live ``NetworkState`` — mutated incrementally through per-link Eq. (6)
occupancy deltas — must be field-for-field identical to a from-scratch
state that commits the surviving allocations once.  Incremental and
recomputed occupancy may never drift apart.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.abstractions import DeterministicVC, HeterogeneousSVC, HomogeneousSVC
from repro.manager.network_manager import (
    RESIZE_IN_PLACE,
    RESIZE_REJECTED,
    NetworkManager,
)
from repro.network import NetworkState
from repro.service.codec import network_state_to_dict
from repro.stochastic import Normal


def recomputed_fingerprint(manager: NetworkManager):
    """A from-scratch state committing the live tenancies once, serialized."""
    state = NetworkState(manager.state.tree, epsilon=manager.epsilon)
    for tenancy in sorted(manager.tenancies(), key=lambda t: t.request_id):
        state.commit(tenancy.allocation)
    return network_state_to_dict(state)


def assert_no_drift(manager: NetworkManager) -> None:
    assert network_state_to_dict(manager.state) == recomputed_fingerprint(manager)


class TestResizeOutcomes:
    def test_shrink_in_place_releases_highest_vms(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        tenancy = manager.request(HomogeneousSVC(n_vms=4, mean=40.0, std=8.0))
        before_machines = list(tenancy.vm_machines)
        result = manager.resize(tenancy.request_id, new_n=2)
        assert result.outcome == RESIZE_IN_PLACE
        after = manager.tenancy(tenancy.request_id)
        assert after.n_vms == 2
        # The surviving VMs keep their machines; the highest indices left.
        assert after.vm_machines == before_machines[:2]
        assert_no_drift(manager)

    def test_grow_beyond_host_subtree_replaces(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        tenancy = manager.request(HomogeneousSVC(n_vms=4, mean=40.0, std=8.0))
        result = manager.resize(tenancy.request_id, new_n=10)
        assert result.accepted
        after = manager.tenancy(tenancy.request_id)
        assert after.n_vms == 10
        assert after.request.n_vms == 10
        assert_no_drift(manager)

    def test_resize_mu_sigma_in_place(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        tenancy = manager.request(HomogeneousSVC(n_vms=4, mean=40.0, std=8.0))
        result = manager.resize(tenancy.request_id, new_mu=55.0, new_sigma=12.0)
        assert result.outcome == RESIZE_IN_PLACE
        after = manager.tenancy(tenancy.request_id)
        assert after.request.mean == 55.0
        assert after.request.std == 12.0
        assert after.n_vms == 4
        assert_no_drift(manager)

    def test_noop_resize_short_circuits(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        tenancy = manager.request(HomogeneousSVC(n_vms=4, mean=40.0, std=8.0))
        before = network_state_to_dict(manager.state)
        result = manager.resize(tenancy.request_id, new_n=4)
        assert result.outcome == RESIZE_IN_PLACE
        assert result.detail == "no change"
        assert network_state_to_dict(manager.state) == before

    def test_infeasible_grow_rejected_and_state_untouched(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        tenancy = manager.request(HomogeneousSVC(n_vms=4, mean=40.0, std=8.0))
        before = network_state_to_dict(manager.state)
        result = manager.resize(
            tenancy.request_id, new_n=manager.state.total_slots + 1
        )
        assert result.outcome == RESIZE_REJECTED
        assert not result.accepted
        assert manager.tenancy(tenancy.request_id).n_vms == 4
        assert network_state_to_dict(manager.state) == before

    def test_unknown_request_raises(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        with pytest.raises(KeyError):
            manager.resize(999, new_n=2)

    def test_deterministic_resize(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        tenancy = manager.request(DeterministicVC(n_vms=4, bandwidth=50.0))
        result = manager.resize(tenancy.request_id, new_n=2, new_mu=30.0)
        assert result.accepted
        after = manager.tenancy(tenancy.request_id)
        assert after.request.n_vms == 2
        assert after.request.bandwidth == 30.0
        with pytest.raises(ValueError):
            manager.resize(tenancy.request_id, new_sigma=5.0)
        assert_no_drift(manager)

    def test_heterogeneous_grow_appends_template_vms(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        demands = tuple(Normal(40.0 + 5.0 * i, 8.0) for i in range(4))
        tenancy = manager.request(HeterogeneousSVC(n_vms=4, demands=demands))
        result = manager.resize(tenancy.request_id, new_n=6)
        assert result.accepted
        after = manager.tenancy(tenancy.request_id)
        assert after.request.n_vms == 6
        assert after.request.demands[:4] == demands
        assert_no_drift(manager)

    def test_shrink_heterogeneous_truncates_demands(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        demands = tuple(Normal(40.0 + 5.0 * i, 8.0) for i in range(5))
        tenancy = manager.request(HeterogeneousSVC(n_vms=5, demands=demands))
        result = manager.resize(tenancy.request_id, new_n=3)
        assert result.accepted
        after = manager.tenancy(tenancy.request_id)
        assert after.request.demands == demands[:3]
        assert_no_drift(manager)


class TestResizeBookkeeping:
    def test_vm_placement_follows_the_resize(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        tenancy = manager.request(HomogeneousSVC(n_vms=4, mean=40.0, std=8.0))
        for new_n in (7, 2):
            manager.resize(tenancy.request_id, new_n=new_n)
            assert len(manager.tenancy(tenancy.request_id).vm_machines) == new_n
        manager.release(manager.tenancy(tenancy.request_id))
        assert manager.active_tenancies == 0

    def test_resize_counts_separate_from_admissions(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        tenancy = manager.request(HomogeneousSVC(n_vms=4, mean=40.0, std=8.0))
        admitted, rejected = manager.admitted_count, manager.rejected_count
        manager.resize(tenancy.request_id, new_n=2)
        manager.resize(tenancy.request_id, new_n=10)
        manager.resize(tenancy.request_id, new_n=manager.state.total_slots + 1)
        assert manager.admitted_count == admitted
        assert manager.rejected_count == rejected
        assert manager.rejection_rate() == 0.0
        assert manager.resize_counts[RESIZE_IN_PLACE] >= 1
        assert manager.resize_counts[RESIZE_REJECTED] == 1
        assert sum(manager.resize_counts.values()) == 3

    def test_resize_rejection_not_attributed_to_dispatch(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        tenancy = manager.request(HomogeneousSVC(n_vms=4, mean=40.0, std=8.0))
        manager.resize(tenancy.request_id, new_n=manager.state.total_slots + 1)
        assert manager.rejections_by_allocator == {}
        assert manager.last_rejection_allocator is None

    def test_resized_tenancy_releases_cleanly(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        pristine = network_state_to_dict(manager.state)
        tenancy = manager.request(HomogeneousSVC(n_vms=4, mean=40.0, std=8.0))
        manager.resize(tenancy.request_id, new_n=9)
        manager.release(manager.tenancy(tenancy.request_id))
        assert manager.active_tenancies == 0
        assert network_state_to_dict(manager.state) == pristine


class TestResizeExactness:
    """Acceptance criterion: incremental Eq. (6) updates never drift."""

    @given(
        resizes=st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, 12)),
            min_size=1,
            max_size=12,
        )
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_grow_shrink_matches_recompute(self, tiny_tree, resizes):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        ids = [
            manager.request(
                HomogeneousSVC(n_vms=3 + i, mean=40.0 + 10.0 * i, std=8.0)
            ).request_id
            for i in range(3)
        ]
        for index, new_n in resizes:
            result = manager.resize(ids[index], new_n=new_n)
            if result.accepted:
                # Eq. (6) occupancy after the incremental commit must equal
                # a from-scratch recompute of the surviving allocations.
                assert_no_drift(manager)
                # And the admission invariant must still hold everywhere.
                assert manager.max_occupancy() < 1.0
        assert_no_drift(manager)
