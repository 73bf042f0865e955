"""Admission condition (Eq. 4), effective bandwidth (Eq. 5), occupancy (Eq. 6)."""

import numpy as np
import pytest

from repro.stochastic.aggregate import risk_quantile
from repro.stochastic.normal import Normal
from tests.reference.aggregate import (
    DemandAggregate,
    admission_margin,
    effective_bandwidth_of,
    effective_bandwidth_total,
    is_admissible,
    occupancy_ratio,
    outage_probability,
)


class TestRiskQuantile:
    def test_paper_default(self):
        assert risk_quantile(0.05) == pytest.approx(1.6449, abs=1e-4)

    def test_tighter_epsilon_needs_more_headroom(self):
        assert risk_quantile(0.02) > risk_quantile(0.05) > risk_quantile(0.5)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.2, 2.0])
    def test_rejects_invalid_epsilon(self, epsilon):
        with pytest.raises(ValueError):
            risk_quantile(epsilon)


class TestDemandAggregate:
    def test_add_accumulates(self):
        agg = DemandAggregate().add(Normal(10.0, 3.0)).add(Normal(5.0, 4.0))
        assert agg.total_mean == pytest.approx(15.0)
        assert agg.total_variance == pytest.approx(25.0)

    def test_remove_reverses_add(self):
        demand = Normal(10.0, 3.0)
        agg = DemandAggregate().add(demand).remove(demand)
        assert agg.is_empty

    def test_remove_clamps_round_off(self):
        agg = DemandAggregate(total_mean=1.0, total_variance=1e-18)
        out = agg.remove(Normal(1.0, 1e-9 ** 0.5))
        assert out.total_variance == 0.0

    def test_total_std(self):
        agg = DemandAggregate(total_mean=0.0, total_variance=16.0)
        assert agg.total_std == pytest.approx(4.0)

    def test_as_normal(self):
        agg = DemandAggregate(total_mean=7.0, total_variance=9.0)
        assert agg.as_normal() == Normal(7.0, 3.0)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            DemandAggregate(total_mean=0.0, total_variance=-1.0)

    def test_immutable(self):
        agg = DemandAggregate()
        with pytest.raises(AttributeError):
            agg.total_mean = 5.0


class TestAdmission:
    def test_margin_formula(self):
        agg = DemandAggregate(total_mean=100.0, total_variance=400.0)
        c = risk_quantile(0.05)
        assert admission_margin(agg, 200.0, 0.05) == pytest.approx(200.0 - 100.0 - c * 20.0)

    def test_admissible_iff_margin_positive(self):
        agg = DemandAggregate(total_mean=100.0, total_variance=400.0)
        c = risk_quantile(0.05)
        threshold = 100.0 + c * 20.0
        assert is_admissible(agg, threshold + 1e-6, 0.05)
        assert not is_admissible(agg, threshold - 1e-6, 0.05)
        assert not is_admissible(agg, threshold - 1.0, 0.05)

    def test_deterministic_aggregate_reduces_to_sum_check(self):
        # "If there are only deterministic bandwidth demands ... verify the
        # sum of bandwidth reservations is less than the link capacity."
        agg = DemandAggregate(total_mean=99.0, total_variance=0.0)
        assert is_admissible(agg, 100.0, 0.05)
        assert not is_admissible(agg, 99.0, 0.05)

    def test_admission_matches_outage_probability(self):
        # Eq. (4) <=> Pr(sum B > S) < eps under the CLT normal approximation.
        agg = DemandAggregate(total_mean=100.0, total_variance=900.0)
        for sharing in (120.0, 149.3, 149.4, 200.0):
            assert is_admissible(agg, sharing, 0.05) == (
                outage_probability(agg, sharing) < 0.05
            )

    def test_tighter_epsilon_is_harder_to_admit(self):
        agg = DemandAggregate(total_mean=100.0, total_variance=900.0)
        sharing = 152.0
        assert is_admissible(agg, sharing, 0.05)
        assert not is_admissible(agg, sharing, 0.02)


class TestOutageProbability:
    def test_mean_equal_sharing_gives_half(self):
        agg = DemandAggregate(total_mean=100.0, total_variance=25.0)
        assert outage_probability(agg, 100.0) == pytest.approx(0.5)

    def test_deterministic_step(self):
        agg = DemandAggregate(total_mean=100.0, total_variance=0.0)
        assert outage_probability(agg, 99.0) == 1.0
        assert outage_probability(agg, 101.0) == 0.0

    def test_monte_carlo_agreement(self, rng):
        demands = [Normal(40.0, 10.0), Normal(60.0, 20.0), Normal(30.0, 5.0)]
        agg = DemandAggregate()
        for demand in demands:
            agg = agg.add(demand)
        sharing = 170.0
        draws = sum(rng.normal(d.mean, d.std, 300_000) for d in demands)
        empirical = float(np.mean(draws > sharing))
        assert outage_probability(agg, sharing) == pytest.approx(empirical, abs=0.004)


class TestEffectiveBandwidth:
    def test_total_closed_form(self):
        agg = DemandAggregate(total_mean=100.0, total_variance=400.0)
        c = risk_quantile(0.05)
        assert effective_bandwidth_total(agg, 0.05) == pytest.approx(100.0 + c * 20.0)

    def test_individual_sums_to_total(self):
        # Eq. (5): sum_i (mu_i + c sigma_i^2 / sqrt(sum sigma^2)) telescopes.
        demands = [Normal(40.0, 10.0), Normal(60.0, 20.0), Normal(30.0, 5.0)]
        agg = DemandAggregate()
        for demand in demands:
            agg = agg.add(demand)
        total = sum(effective_bandwidth_of(d, agg, 0.05) for d in demands)
        assert total == pytest.approx(effective_bandwidth_total(agg, 0.05))

    def test_individual_exceeds_mean_for_stochastic(self):
        demand = Normal(50.0, 10.0)
        agg = DemandAggregate().add(demand)
        assert effective_bandwidth_of(demand, agg, 0.05) > demand.mean

    def test_deterministic_demand_effective_is_mean(self):
        demand = Normal.deterministic(50.0)
        agg = DemandAggregate().add(demand)
        assert effective_bandwidth_of(demand, agg, 0.05) == pytest.approx(50.0)

    def test_multiplexing_discount(self):
        # One demand alone pays c*sigma; among others its surcharge shrinks.
        demand = Normal(50.0, 10.0)
        alone = DemandAggregate().add(demand)
        crowded = alone.add(Normal(50.0, 30.0))
        assert effective_bandwidth_of(demand, crowded, 0.05) < effective_bandwidth_of(
            demand, alone, 0.05
        )


class TestOccupancyRatio:
    def test_matches_definition(self):
        agg = DemandAggregate(total_mean=100.0, total_variance=400.0)
        occ = occupancy_ratio(50.0, agg, 1000.0, 0.05)
        expected = (50.0 + effective_bandwidth_total(agg, 0.05)) / 1000.0
        assert occ == pytest.approx(expected)

    def test_below_one_iff_admissible(self):
        # O_L < 1 <=> Eq. (4) with S_L = C_L - D_L (the paper's equivalence).
        capacity, reserved = 1000.0, 300.0
        sharing = capacity - reserved
        for mean, var in [(500.0, 100.0), (650.0, 2000.0), (690.0, 10.0), (800.0, 0.0)]:
            agg = DemandAggregate(total_mean=mean, total_variance=var)
            below_one = occupancy_ratio(reserved, agg, capacity, 0.05) < 1.0
            assert below_one == is_admissible(agg, sharing, 0.05)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            occupancy_ratio(0.0, DemandAggregate(), 0.0, 0.05)

    def test_empty_link_occupancy_is_deterministic_share(self):
        assert occupancy_ratio(250.0, DemandAggregate(), 1000.0, 0.05) == pytest.approx(0.25)
