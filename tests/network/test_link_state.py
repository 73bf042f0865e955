"""LinkState bookkeeping: D_L, stochastic aggregates, occupancy, release."""

import pytest

from repro.network.link_state import LinkState
from repro.stochastic.aggregate import risk_quantile
from repro.stochastic.normal import Normal
from repro.topology.nodes import Link
from tests.reference.aggregate import aggregate_of

RISK_C = risk_quantile(0.05)


@pytest.fixture()
def link_state() -> LinkState:
    return LinkState(Link(link_id=1, child=1, parent=2, capacity=1000.0))


class TestAccounting:
    def test_fresh_link_is_idle(self, link_state):
        assert link_state.is_idle
        assert link_state.sharing_bandwidth == 1000.0
        assert link_state.num_stochastic_demands == 0

    def test_deterministic_reservation_shrinks_sharing(self, link_state):
        link_state.add_deterministic(1, 300.0)
        assert link_state.deterministic_total == 300.0
        assert link_state.sharing_bandwidth == 700.0

    def test_stochastic_demand_tracked(self, link_state):
        link_state.add_stochastic(1, Normal(100.0, 20.0))
        link_state.add_stochastic(2, Normal(50.0, 10.0))
        agg = aggregate_of(link_state)
        assert agg.total_mean == pytest.approx(150.0)
        assert agg.total_variance == pytest.approx(500.0)
        assert link_state.num_stochastic_demands == 2

    def test_demand_of_request_retrievable(self, link_state):
        demand = Normal(100.0, 20.0)
        link_state.add_stochastic(7, demand)
        assert link_state.stochastic_demand_of(7) == demand
        assert link_state.stochastic_demand_of(8) is None

    def test_deterministic_of_request(self, link_state):
        link_state.add_deterministic(3, 120.0)
        assert link_state.deterministic_reservation_of(3) == 120.0
        assert link_state.deterministic_reservation_of(4) == 0.0

    def test_duplicate_request_rejected(self, link_state):
        link_state.add_stochastic(1, Normal(10.0, 1.0))
        with pytest.raises(ValueError):
            link_state.add_stochastic(1, Normal(10.0, 1.0))
        with pytest.raises(ValueError):
            link_state.add_deterministic(1, 10.0)

    def test_negative_reservation_rejected(self, link_state):
        with pytest.raises(ValueError):
            link_state.add_deterministic(1, -5.0)

    def test_remove_restores_idle(self, link_state):
        link_state.add_stochastic(1, Normal(100.0, 20.0))
        link_state.add_deterministic(2, 50.0)
        link_state.remove_request(1)
        link_state.remove_request(2)
        assert link_state.is_idle
        assert link_state.mean_total == 0.0
        assert link_state.var_total == 0.0
        assert link_state.deterministic_total == 0.0

    def test_remove_absent_is_noop(self, link_state):
        link_state.remove_request(99)
        assert link_state.is_idle

    def test_many_add_remove_cycles_do_not_drift(self, link_state):
        demand = Normal(123.456, 78.9)
        for cycle in range(200):
            link_state.add_stochastic(cycle, demand)
            link_state.remove_request(cycle)
        assert link_state.mean_total == pytest.approx(0.0, abs=1e-6)
        assert link_state.var_total == pytest.approx(0.0, abs=1e-6)

    def test_totals_exactly_zero_after_last_tenant_departs(self, link_state):
        # Regression: subtracting per-tenant variance left float residue in
        # var_total after the last stochastic tenant departed.  The totals
        # must be *exactly* zero once no tenant remains — 0.0, not 1e-13.
        demand = Normal(123.456789, 98.7654321)
        for cycle in range(1000):
            link_state.add_stochastic(2 * cycle, demand)
            link_state.add_deterministic(2 * cycle + 1, 77.7777)
            link_state.remove_request(2 * cycle)
            link_state.remove_request(2 * cycle + 1)
            assert link_state.mean_total == 0.0
            assert link_state.var_total == 0.0
            assert link_state.deterministic_total == 0.0
        assert link_state.is_idle

    def test_totals_zeroed_even_with_overlapping_tenants(self, link_state):
        # Interleaved arrivals/departures: residue only snaps to zero when the
        # *last* tenant leaves; partial departures still subtract normally.
        a, b = Normal(100.1, 31.7), Normal(55.5, 12.3)
        link_state.add_stochastic(1, a)
        link_state.add_stochastic(2, b)
        link_state.remove_request(1)
        assert link_state.mean_total == pytest.approx(b.mean)
        link_state.remove_request(2)
        assert link_state.mean_total == 0.0
        assert link_state.var_total == 0.0


class TestOccupancy:
    def test_empty_link_zero_occupancy(self, link_state):
        assert link_state.occupancy(RISK_C) == 0.0

    def test_deterministic_only(self, link_state):
        link_state.add_deterministic(1, 250.0)
        assert link_state.occupancy(RISK_C) == pytest.approx(0.25)

    def test_stochastic_occupancy_formula(self, link_state):
        link_state.add_stochastic(1, Normal(100.0, 20.0))
        expected = (100.0 + RISK_C * 20.0) / 1000.0
        assert link_state.occupancy(RISK_C) == pytest.approx(expected)

    def test_occupancy_with_extra_candidate(self, link_state):
        link_state.add_stochastic(1, Normal(100.0, 20.0))
        probe = link_state.occupancy_with(RISK_C, extra_mean=50.0, extra_var=400.0)
        expected = (150.0 + RISK_C * (400.0 + 400.0) ** 0.5) / 1000.0
        assert probe == pytest.approx(expected)

    def test_occupancy_with_extra_deterministic(self, link_state):
        link_state.add_deterministic(1, 100.0)
        probe = link_state.occupancy_with(RISK_C, extra_deterministic=200.0)
        assert probe == pytest.approx(0.3)

    def test_probe_does_not_mutate(self, link_state):
        link_state.add_stochastic(1, Normal(100.0, 20.0))
        before = link_state.occupancy(RISK_C)
        link_state.occupancy_with(RISK_C, extra_mean=500.0, extra_var=100.0)
        assert link_state.occupancy(RISK_C) == before

    def test_mixed_occupancy(self, link_state):
        link_state.add_deterministic(1, 200.0)
        link_state.add_stochastic(2, Normal(300.0, 50.0))
        expected = (200.0 + 300.0 + RISK_C * 50.0) / 1000.0
        assert link_state.occupancy(RISK_C) == pytest.approx(expected)
