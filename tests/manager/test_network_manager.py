"""Network manager: admission lifecycle, counters, mixed tenancy."""

import pytest

from repro.abstractions import DeterministicVC, HeterogeneousSVC, HomogeneousSVC
from repro.allocation import AdaptedTIVCAllocator
from repro.manager import NetworkManager
from repro.manager.network_manager import Tenancy
from repro.service.codec import network_state_to_dict


class TestAdmission:
    def test_admit_and_release(self, tiny_tree, homogeneous_request):
        manager = NetworkManager(tiny_tree)
        tenancy = manager.request(homogeneous_request)
        assert tenancy is not None
        assert manager.active_tenancies == 1
        assert manager.admitted_count == 1
        manager.release(tenancy)
        assert manager.active_tenancies == 0
        assert manager.state.is_pristine()

    def test_vm_machines_view(self, tiny_tree, homogeneous_request):
        manager = NetworkManager(tiny_tree)
        tenancy = manager.request(homogeneous_request)
        assert len(tenancy.vm_machines) == homogeneous_request.n_vms
        counts = {}
        for machine in tenancy.vm_machines:
            counts[machine] = counts.get(machine, 0) + 1
        assert counts == tenancy.allocation.machine_counts

    def test_rejection_counted(self, tiny_tree):
        manager = NetworkManager(tiny_tree)
        impossible = HomogeneousSVC(n_vms=tiny_tree.total_slots + 1, mean=1.0, std=0.0)
        assert manager.request(impossible) is None
        assert manager.rejected_count == 1
        assert manager.rejection_rate() == 1.0

    def test_rejection_rate_mixed(self, tiny_tree):
        manager = NetworkManager(tiny_tree)
        assert manager.request(HomogeneousSVC(n_vms=2, mean=10.0, std=1.0)) is not None
        assert manager.request(HomogeneousSVC(n_vms=999, mean=10.0, std=1.0)) is None
        assert manager.rejection_rate() == pytest.approx(0.5)

    def test_release_unknown_raises(self, tiny_tree, homogeneous_request):
        manager = NetworkManager(tiny_tree)
        tenancy = manager.request(homogeneous_request)
        manager.release(tenancy)
        with pytest.raises(KeyError):
            manager.release(tenancy)

    def test_request_ids_unique(self, tiny_tree):
        manager = NetworkManager(tiny_tree)
        a = manager.request(HomogeneousSVC(n_vms=2, mean=10.0, std=1.0))
        b = manager.request(HomogeneousSVC(n_vms=2, mean=10.0, std=1.0))
        assert a.request_id != b.request_id

    def test_tenancy_lookup(self, tiny_tree, homogeneous_request):
        manager = NetworkManager(tiny_tree)
        tenancy = manager.request(homogeneous_request)
        assert manager.tenancy(tenancy.request_id) is tenancy

    def test_custom_epsilon(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.02)
        assert manager.epsilon == 0.02
        assert manager.state.risk_c == pytest.approx(2.0537, abs=1e-3)

    def test_custom_allocator(self, tiny_tree, homogeneous_request):
        manager = NetworkManager(tiny_tree, allocator=AdaptedTIVCAllocator())
        assert manager.request(homogeneous_request) is not None


class TestMixedTenancy:
    def test_deterministic_and_stochastic_coexist(self, tiny_tree):
        # Section III-A: "The deterministic and stochastic bandwidth
        # requirements can co-exist in the datacenters."
        manager = NetworkManager(tiny_tree)
        det = manager.request(DeterministicVC(n_vms=8, bandwidth=150.0))
        svc = manager.request(HomogeneousSVC(n_vms=8, mean=150.0, std=60.0))
        het = manager.request(
            HeterogeneousSVC.uniform(4, mean=100.0, std=30.0)
        )
        assert det is not None and svc is not None and het is not None
        assert manager.active_tenancies == 3
        # Deterministic reservations shrink the stochastic share somewhere.
        assert any(
            state.deterministic_total > 0.0 for state in manager.state.links.values()
        )
        assert any(
            state.num_stochastic_demands > 0 for state in manager.state.links.values()
        )
        for tenancy in (det, svc, het):
            manager.release(tenancy)
        assert manager.state.is_pristine()

    def test_deterministic_reservation_reduces_admission(self, tiny_tree):
        # Fill with VC reservations; identical SVC requests then see less
        # sharing bandwidth than on an empty network.
        fresh = NetworkManager(tiny_tree)
        empty_count = 0
        while fresh.request(HomogeneousSVC(n_vms=4, mean=400.0, std=100.0)):
            empty_count += 1
            assert empty_count < 64
        loaded = NetworkManager(tiny_tree)
        for _ in range(8):
            loaded.request(DeterministicVC(n_vms=4, bandwidth=400.0))
        loaded_count = 0
        while loaded.request(HomogeneousSVC(n_vms=4, mean=400.0, std=100.0)):
            loaded_count += 1
            assert loaded_count < 64
        assert loaded_count < empty_count

    def test_max_occupancy_reflects_load(self, tiny_tree):
        manager = NetworkManager(tiny_tree)
        assert manager.max_occupancy() == 0.0
        manager.request(HomogeneousSVC(n_vms=10, mean=200.0, std=50.0))
        assert 0.0 < manager.max_occupancy() < 1.0


class TestAtomicRelease:
    def test_invalid_release_leaves_state_untouched(self, tiny_tree):
        # NetworkState.release validates every slot count before mutating
        # anything, so a bogus release must not strand partial link state.
        manager = NetworkManager(tiny_tree)
        # 8 VMs span two machines, so the keeper loads at least one link.
        keeper = manager.request(HomogeneousSVC(n_vms=8, mean=100.0, std=30.0))
        victim = manager.request(HomogeneousSVC(n_vms=4, mean=100.0, std=30.0))
        manager.state.release(victim.allocation)
        before = network_state_to_dict(manager.state)
        with pytest.raises(ValueError):
            manager.state.release(victim.allocation)  # double free: overflow
        assert network_state_to_dict(manager.state) == before
        assert manager.state.occupancy_of(
            next(iter(keeper.allocation.link_demands))
        ) > 0.0

    def test_release_of_stale_handle_uses_stored_allocation(self, tiny_tree):
        # A caller-held Tenancy object is only a key; the manager releases
        # the allocation it stored at admit time.
        manager = NetworkManager(tiny_tree)
        tenancy = manager.request(HomogeneousSVC(n_vms=3, mean=80.0, std=20.0))
        stale = Tenancy(allocation=tenancy.allocation)
        manager.release(stale)
        assert manager.active_tenancies == 0
        assert manager.state.is_pristine()

    def test_failed_release_keeps_tenancy_active(self, tiny_tree):
        manager = NetworkManager(tiny_tree)
        tenancy = manager.request(HomogeneousSVC(n_vms=3, mean=80.0, std=20.0))
        manager.state.release(tenancy.allocation)  # corrupt behind its back
        with pytest.raises(ValueError):
            manager.release(tenancy)
        # The tenancy entry and its rate limiters survived the failure.
        assert manager.get_tenancy(tenancy.request_id) is tenancy
        assert manager.active_tenancies == 1


class TestAdopt:
    def test_adopt_recommits_and_bumps_id_cursor(self, tiny_tree):
        source = NetworkManager(tiny_tree)
        tenancy = source.request(HomogeneousSVC(n_vms=4, mean=120.0, std=40.0))
        fresh = NetworkManager(tiny_tree)
        adopted = fresh.adopt(tenancy.allocation)
        assert adopted.request_id == tenancy.request_id
        assert fresh.next_request_id == tenancy.request_id + 1
        assert network_state_to_dict(fresh.state) == network_state_to_dict(source.state)
        assert adopted.vm_machines == tenancy.vm_machines

    def test_adopt_does_not_touch_counters(self, tiny_tree):
        source = NetworkManager(tiny_tree)
        tenancy = source.request(HomogeneousSVC(n_vms=4, mean=120.0, std=40.0))
        fresh = NetworkManager(tiny_tree)
        fresh.adopt(tenancy.allocation)
        assert fresh.admitted_count == 0
        assert fresh.rejected_count == 0

    def test_adopt_duplicate_rejected(self, tiny_tree):
        source = NetworkManager(tiny_tree)
        tenancy = source.request(HomogeneousSVC(n_vms=4, mean=120.0, std=40.0))
        fresh = NetworkManager(tiny_tree)
        fresh.adopt(tenancy.allocation)
        with pytest.raises(ValueError, match="already active"):
            fresh.adopt(tenancy.allocation)

    def test_adopted_tenancy_releases_cleanly(self, tiny_tree):
        source = NetworkManager(tiny_tree)
        tenancy = source.request(DeterministicVC(n_vms=4, bandwidth=100.0))
        fresh = NetworkManager(tiny_tree)
        adopted = fresh.adopt(tenancy.allocation)
        fresh.release(adopted)
        assert fresh.state.is_pristine()

    def test_id_cursor_never_moves_backwards(self, tiny_tree):
        manager = NetworkManager(tiny_tree)
        manager.next_request_id = 10
        with pytest.raises(ValueError, match="backwards"):
            manager.next_request_id = 5

