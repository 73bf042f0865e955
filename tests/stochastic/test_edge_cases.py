"""Numerical edge cases across the probability substrate."""

import pytest

from repro.stochastic import Normal, min_of_normals, sum_iid
from repro.stochastic.normal import normal_cdf, normal_pdf
from tests.reference.aggregate import (
    DemandAggregate,
    admission_margin,
    effective_bandwidth_total,
    is_admissible,
    occupancy_ratio,
    outage_probability,
)


class TestExtremeArguments:
    def test_cdf_saturates_cleanly(self):
        assert normal_cdf(50.0) == 1.0
        assert normal_cdf(-50.0) == 0.0

    def test_pdf_underflows_to_zero(self):
        assert normal_pdf(100.0) == 0.0

    def test_min_with_huge_separation(self):
        tiny = Normal(1.0, 0.5)
        huge = Normal(1e9, 1e3)
        result = min_of_normals(tiny, huge)
        assert result.mean == pytest.approx(1.0, abs=1e-9)
        assert result.std == pytest.approx(0.5, abs=1e-9)

    def test_min_with_tiny_variances(self):
        a = Normal(100.0, 1e-9)
        b = Normal(100.0, 1e-9)
        result = min_of_normals(a, b)
        assert result.mean == pytest.approx(100.0, abs=1e-6)
        assert result.variance >= 0.0

    def test_sum_iid_large_count(self):
        total = sum_iid(Normal(1.0, 1.0), 1_000_000)
        assert total.mean == pytest.approx(1e6)
        assert total.std == pytest.approx(1e3)


class TestAggregateEdges:
    def test_empty_aggregate_admissible_on_any_positive_bandwidth(self):
        assert is_admissible(DemandAggregate(), 1e-9, 0.05)

    def test_empty_aggregate_not_admissible_on_zero(self):
        assert not is_admissible(DemandAggregate(), 0.0, 0.05)

    def test_outage_of_empty_aggregate(self):
        assert outage_probability(DemandAggregate(), 10.0) == 0.0

    def test_effective_bandwidth_of_empty(self):
        assert effective_bandwidth_total(DemandAggregate(), 0.05) == 0.0

    def test_margin_with_extreme_epsilon(self):
        agg = DemandAggregate(total_mean=10.0, total_variance=4.0)
        nearly_sure = admission_margin(agg, 100.0, 1e-4)
        relaxed = admission_margin(agg, 100.0, 0.4999)
        assert nearly_sure < relaxed

    def test_occupancy_scales_inversely_with_capacity(self):
        agg = DemandAggregate(total_mean=100.0, total_variance=100.0)
        small = occupancy_ratio(0.0, agg, 200.0, 0.05)
        large = occupancy_ratio(0.0, agg, 2000.0, 0.05)
        assert small == pytest.approx(10.0 * large)

    def test_aggregate_chain_associativity(self):
        demands = [Normal(float(i), float(i) / 2.0) for i in range(1, 20)]
        forward = DemandAggregate()
        for demand in demands:
            forward = forward.add(demand)
        backward = DemandAggregate()
        for demand in reversed(demands):
            backward = backward.add(demand)
        assert forward.total_mean == pytest.approx(backward.total_mean)
        assert forward.total_variance == pytest.approx(backward.total_variance)


class TestNormalValueEdges:
    def test_zero_mean_zero_std(self):
        zero = Normal(0.0, 0.0)
        assert zero.is_deterministic
        assert zero.cdf(0.0) == 1.0
        assert zero.sf(0.0) == 0.0

    def test_quantile_extremes_monotone(self):
        demand = Normal(0.0, 1.0)
        assert demand.quantile(1e-6) < demand.quantile(1.0 - 1e-6)

    def test_percentile_zero_hundred_rejected(self):
        demand = Normal(0.0, 1.0)
        with pytest.raises(ValueError):
            demand.percentile(0.0)
        with pytest.raises(ValueError):
            demand.percentile(100.0)

    def test_addition_with_zero(self):
        demand = Normal(5.0, 2.0)
        total = demand + Normal(0.0, 0.0)
        assert total == demand

    def test_scale_by_zero_gives_point_mass(self):
        scaled = Normal(5.0, 2.0).scale(0.0)
        assert scaled.is_deterministic
        assert scaled.mean == 0.0

    def test_add_non_normal_not_implemented(self):
        with pytest.raises(TypeError):
            Normal(1.0, 1.0) + 3.0
