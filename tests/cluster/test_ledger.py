"""Core-link reservation book: holds priced on the replica, transitions, TTLs.

The ledger stores nothing but TTL'd holds; committed core-link load is the
replica's.  The fixture therefore pairs it with a real ``NetworkManager``
and tenants enter and leave through ``adopt`` / ``release``, the way the
coordinator's ``_install`` / ``_uninstall`` do it.
"""

import math

import pytest

from repro.abstractions import HomogeneousSVC
from repro.cluster.ledger import (
    CoreDemand,
    CoreLinkLedger,
    LedgerError,
    core_demands_of,
)
from repro.cluster.partition import ClusterPartition
from repro.manager.network_manager import NetworkManager
from repro.topology.builder import TINY_SPEC
from tests.cluster.conftest import FakeClock


@pytest.fixture()
def setup():
    partition = ClusterPartition.build(TINY_SPEC, 2)
    clock = FakeClock()
    replica = NetworkManager(partition.tree, epsilon=0.05)
    ledger = CoreLinkLedger(
        replica.state, partition.core_link_ids, reserve_ttl_s=10.0, clock=clock
    )
    return partition, ledger, clock, replica


def det(fraction, capacity):
    return CoreDemand(deterministic=fraction * capacity)


def spanning(replica, partition, gid, n_vms=40, mean=8.0, std=2.0):
    """A placement wider than one 32-slot pod: it loads both core links."""
    allocation = replica.allocator.allocate(
        replica.state, HomogeneousSVC(n_vms=n_vms, mean=mean, std=std), gid
    )
    core = core_demands_of(allocation, partition.core_link_ids)
    assert sorted(core) == sorted(partition.core_link_ids)
    return allocation, core


class TestReserveCommit:
    def test_reservation_holds_bandwidth(self, setup):
        partition, ledger, _clock, _replica = setup
        link = partition.core_link_ids[0]
        capacity = partition.tree.link(link).capacity
        assert ledger.reserve(1, {link: det(0.4, capacity)})
        assert ledger.pending_reservations == 1
        assert ledger.occupancy_of(link) == pytest.approx(0.4)
        # A second reservation that would push O_L to 1 is denied and
        # holds nothing.
        assert not ledger.reserve(2, {link: det(0.7, capacity)})
        assert not ledger.is_reserved(2)
        assert ledger.occupancy_of(link) == pytest.approx(0.4)

    def test_commit_moves_to_committed(self, setup):
        # Adopt into the replica + commit: the load is counted by the hold
        # before, by the replica after, and never by both or by neither.
        partition, ledger, _clock, replica = setup
        allocation, core = spanning(replica, partition, gid=1)
        assert ledger.reserve(1, core)
        held = ledger.occupancies()
        assert all(value > 0.0 for value in held.values())
        replica.adopt(allocation)
        ledger.commit(1)
        assert ledger.pending_reservations == 0
        assert ledger.occupancies() == held

    def test_hold_is_priced_on_top_of_committed_load(self, setup):
        partition, ledger, _clock, replica = setup
        allocation, core = spanning(replica, partition, gid=1)
        replica.adopt(allocation)
        link = partition.core_link_ids[0]
        capacity = partition.tree.link(link).capacity
        extra = CoreDemand(mean=0.1 * capacity, variance=25.0)
        assert ledger.reserve(2, {link: extra})
        expected = (
            core[link].mean
            + extra.mean
            + ledger.state.risk_c * math.sqrt(core[link].variance + extra.variance)
        ) / capacity
        assert ledger.occupancy_of(link) == pytest.approx(expected)
        # The other core link sees the committed tenant only.
        other = partition.core_link_ids[1]
        assert ledger.occupancy_of(other) == replica.state.links[other].occupancy(
            ledger.state.risk_c
        )

    def test_commit_without_reservation_raises(self, setup):
        _partition, ledger, _clock, _replica = setup
        with pytest.raises(LedgerError):
            ledger.commit(7)

    def test_abort_frees_everything(self, setup):
        partition, ledger, _clock, _replica = setup
        link = partition.core_link_ids[0]
        capacity = partition.tree.link(link).capacity
        ledger.reserve(1, {link: det(0.5, capacity)})
        assert ledger.abort(1)
        assert not ledger.abort(1)  # idempotent
        assert ledger.occupancy_of(link) == 0.0

    def test_release_is_exact_zero_after_drain(self, setup):
        partition, ledger, _clock, replica = setup
        first, core = spanning(replica, partition, gid=1, n_vms=34)
        ledger.reserve(1, core)
        replica.adopt(first)
        ledger.commit(1)
        second = replica.allocator.allocate(
            replica.state, HomogeneousSVC(n_vms=20, mean=11.0, std=3.0), 2
        )
        replica.adopt(second)
        replica.release(replica.tenancy(1))
        replica.release(replica.tenancy(2))
        # Float-residue hygiene is the replica's: once the last tenant has
        # left, every core link reports exactly zero.
        assert ledger.occupancies() == {
            link: 0.0 for link in partition.core_link_ids
        }
        assert ledger.max_occupancy() == 0.0

    def test_stochastic_occupancy_follows_eq6(self, setup):
        partition, ledger, _clock, _replica = setup
        link = partition.core_link_ids[0]
        capacity = partition.tree.link(link).capacity
        demand = CoreDemand(mean=0.2 * capacity, variance=(0.05 * capacity) ** 2)
        ledger.reserve(1, {link: demand})
        expected = (
            demand.mean + ledger.state.risk_c * (demand.variance ** 0.5)
        ) / capacity
        assert ledger.occupancy_of(link) == pytest.approx(expected)


class TestIdempotency:
    def test_reserve_twice_holds_once(self, setup):
        partition, ledger, _clock, _replica = setup
        link = partition.core_link_ids[0]
        capacity = partition.tree.link(link).capacity
        assert ledger.reserve(1, {link: det(0.4, capacity)})
        assert ledger.reserve(1, {link: det(0.4, capacity)})  # retry
        assert ledger.pending_reservations == 1
        assert ledger.occupancy_of(link) == pytest.approx(0.4)

    def test_commit_twice_counts_once(self, setup):
        # The hold is gone after the first commit, so a replayed commit is
        # refused instead of licensing a second adoption.
        partition, ledger, _clock, replica = setup
        allocation, core = spanning(replica, partition, gid=1)
        ledger.reserve(1, core)
        replica.adopt(allocation)
        ledger.commit(1)
        counted_once = ledger.occupancies()
        with pytest.raises(LedgerError):
            ledger.commit(1)
        assert ledger.occupancies() == counted_once


class TestTTL:
    def test_expired_reservation_is_dropped(self, setup):
        partition, ledger, clock, _replica = setup
        link = partition.core_link_ids[0]
        capacity = partition.tree.link(link).capacity
        ledger.reserve(1, {link: det(0.6, capacity)})
        assert not ledger.reserve(2, {link: det(0.6, capacity)})
        clock.now = 11.0  # past the 10s TTL
        assert ledger.expire() == [1]
        assert ledger.reserve(2, {link: det(0.6, capacity)})

    def test_reserve_itself_expires_stale_holds(self, setup):
        partition, ledger, clock, _replica = setup
        link = partition.core_link_ids[0]
        capacity = partition.tree.link(link).capacity
        ledger.reserve(1, {link: det(0.6, capacity)})
        clock.now = 30.0
        # No explicit expire() call: reserve sweeps on entry.
        assert ledger.reserve(2, {link: det(0.6, capacity)})
        assert not ledger.is_reserved(1)

    def test_commit_of_expired_reservation_raises(self, setup):
        partition, ledger, clock, _replica = setup
        link = partition.core_link_ids[0]
        capacity = partition.tree.link(link).capacity
        ledger.reserve(1, {link: det(0.2, capacity)})
        clock.now = 50.0
        ledger.expire()
        with pytest.raises(LedgerError):
            ledger.commit(1)


class TestValidation:
    def test_unknown_core_link_rejected(self, setup):
        _partition, ledger, _clock, _replica = setup
        with pytest.raises(LedgerError):
            ledger.reserve(1, {999_999: CoreDemand(deterministic=1.0)})

    def test_bad_ttl_rejected(self, setup):
        partition, _ledger, _clock, replica = setup
        with pytest.raises(ValueError):
            CoreLinkLedger(
                replica.state, partition.core_link_ids, reserve_ttl_s=0.0
            )
