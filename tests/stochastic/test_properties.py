"""Property-based tests (hypothesis) for the probability substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.link_state import LinkState
from repro.stochastic.aggregate import risk_quantile
from repro.stochastic.minimum import max_of_normals, min_of_normals
from repro.stochastic.normal import (
    Normal,
    normal_cdf,
    normal_quantile,
    sum_iid,
    truncated_moments,
)
from repro.topology.nodes import Link
from tests.reference.aggregate import (
    DemandAggregate,
    admission_margin,
    aggregate_of,
    effective_bandwidth_total,
    is_admissible,
    occupancy_ratio,
)

means = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)
stds = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
pos_stds = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
probabilities = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
epsilons = st.floats(min_value=1e-4, max_value=0.5)


@st.composite
def normals(draw, std_strategy=stds):
    return Normal(draw(means), draw(std_strategy))


class TestNormalProperties:
    @given(p=probabilities)
    def test_quantile_cdf_roundtrip(self, p):
        assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-9

    @given(demand=normals(), count=st.integers(min_value=0, max_value=100))
    def test_sum_iid_moments(self, demand, count):
        total = sum_iid(demand, count)
        assert abs(total.mean - count * demand.mean) < 1e-6 * max(1.0, count * demand.mean)
        assert abs(total.variance - count * demand.variance) < 1e-6 * max(
            1.0, count * demand.variance
        )

    @given(a=normals(), b=normals())
    def test_addition_commutes(self, a, b):
        left, right = a + b, b + a
        assert abs(left.mean - right.mean) < 1e-9
        assert abs(left.variance - right.variance) < 1e-9


class TestMinimumProperties:
    @given(a=normals(), b=normals())
    @settings(max_examples=200)
    def test_min_mean_below_both(self, a, b):
        result = min_of_normals(a, b)
        bound = min(a.mean, b.mean)
        assert result.mean <= bound + 1e-6 * max(1.0, abs(bound))

    @given(a=normals(), b=normals())
    def test_min_variance_nonnegative(self, a, b):
        assert min_of_normals(a, b).variance >= 0.0

    @given(a=normals(), b=normals())
    def test_min_symmetric(self, a, b):
        fwd, bwd = min_of_normals(a, b), min_of_normals(b, a)
        scale = max(1.0, abs(fwd.mean))
        assert abs(fwd.mean - bwd.mean) < 1e-7 * scale
        assert abs(fwd.variance - bwd.variance) < 1e-6 * max(1.0, fwd.variance)

    @given(a=normals(), b=normals())
    def test_min_plus_max_equals_sum_of_means(self, a, b):
        low, high = min_of_normals(a, b), max_of_normals(a, b)
        total = a.mean + b.mean
        assert abs((low.mean + high.mean) - total) < 1e-6 * max(1.0, abs(total))

    @given(a=normals(pos_stds), b=normals(pos_stds))
    @settings(max_examples=200)
    def test_min_variance_bounded_by_sum(self, a, b):
        # Var(min) <= Var(X1) + Var(X2): crude but useful sanity envelope.
        result = min_of_normals(a, b)
        assert result.variance <= a.variance + b.variance + 1e-6


class TestAdmissionProperties:
    @given(
        mean=means,
        var=st.floats(min_value=0.0, max_value=1e6),
        sharing=st.floats(min_value=0.0, max_value=1e5),
        epsilon=epsilons,
    )
    def test_margin_monotone_in_sharing(self, mean, var, sharing, epsilon):
        agg = DemandAggregate(total_mean=mean, total_variance=var)
        assert admission_margin(agg, sharing + 1.0, epsilon) > admission_margin(
            agg, sharing, epsilon
        )

    @given(
        mean=means,
        var=st.floats(min_value=0.0, max_value=1e6),
        sharing=st.floats(min_value=0.0, max_value=1e5),
        epsilon=epsilons,
        extra=st.floats(min_value=0.0, max_value=1e3),
    )
    def test_admission_antitone_in_demand(self, mean, var, sharing, epsilon, extra):
        smaller = DemandAggregate(total_mean=mean, total_variance=var)
        larger = smaller.add(Normal(extra, 0.0))
        if is_admissible(larger, sharing, epsilon):
            assert is_admissible(smaller, sharing, epsilon)

    @given(
        mean=means,
        var=st.floats(min_value=0.0, max_value=1e6),
        capacity=st.floats(min_value=1.0, max_value=1e5),
        reserved_fraction=st.floats(min_value=0.0, max_value=0.9),
        epsilon=epsilons,
    )
    def test_occupancy_below_one_iff_admissible(
        self, mean, var, capacity, reserved_fraction, epsilon
    ):
        reserved = reserved_fraction * capacity
        agg = DemandAggregate(total_mean=mean, total_variance=var)
        occ = occupancy_ratio(reserved, agg, capacity, epsilon)
        assert (occ < 1.0) == is_admissible(agg, capacity - reserved, epsilon)

    @given(mean=means, var=st.floats(min_value=0.0, max_value=1e6), epsilon=epsilons)
    def test_effective_bandwidth_at_least_mean(self, mean, var, epsilon):
        agg = DemandAggregate(total_mean=mean, total_variance=var)
        assert effective_bandwidth_total(agg, epsilon) >= mean - 1e-9

    @given(epsilon=st.floats(min_value=1e-4, max_value=0.49))
    def test_risk_quantile_positive_below_half(self, epsilon):
        assert risk_quantile(epsilon) > 0.0

    @given(
        demands=st.lists(
            st.tuples(means, st.one_of(st.just(0.0), stds)), max_size=6
        ),
        reserved=st.lists(st.floats(min_value=0.0, max_value=1e3), max_size=3),
        capacity=st.floats(min_value=1.0, max_value=1e5),
        extra=st.tuples(means, st.one_of(st.just(0.0), stds), means),
        epsilon=epsilons,
    )
    def test_link_occupancy_matches_the_oracle(
        self, demands, reserved, capacity, extra, epsilon
    ):
        """``LinkState.occupancy_with`` — the one statement of Eq. 6 in
        ``src/`` — equals the textbook ``O_L``, with and without a candidate
        demand and for deterministic (sigma = 0) ones, and ``O_L < 1`` is
        Eq. 4 on the same link."""
        link = LinkState(Link(link_id=1, child=1, parent=2, capacity=capacity))
        for request_id, amount in enumerate(reserved):
            link.add_deterministic(request_id, amount)
        for request_id, (mean, std) in enumerate(demands, start=len(reserved)):
            link.add_stochastic(request_id, Normal(mean, std))
        extra_mean, extra_std, extra_det = extra
        c = risk_quantile(epsilon)
        aggregate = aggregate_of(link)
        assert link.occupancy(c) == pytest.approx(
            occupancy_ratio(link.deterministic_total, aggregate, capacity, epsilon),
            rel=1e-9, abs=1e-12,
        )
        candidate = aggregate.add(Normal(extra_mean, extra_std))
        reserved_total = link.deterministic_total + extra_det
        occupancy = link.occupancy_with(
            c, extra_mean=extra_mean, extra_var=extra_std ** 2,
            extra_deterministic=extra_det,
        )
        assert occupancy == pytest.approx(
            occupancy_ratio(reserved_total, candidate, capacity, epsilon),
            rel=1e-9, abs=1e-12,
        )
        if abs(occupancy - 1.0) > 1e-9:
            assert (occupancy < 1.0) == is_admissible(
                candidate, capacity - reserved_total, epsilon
            )


class TestTruncationProperties:
    @given(demand=normals(pos_stds), cap=st.floats(min_value=10.0, max_value=1e4))
    @settings(max_examples=200)
    def test_truncated_mean_inside_bounds(self, demand, cap):
        result = truncated_moments(demand, 0.0, cap)
        assert -1e-9 <= result.mean <= cap + 1e-9

    @given(demand=normals(pos_stds), cap=st.floats(min_value=10.0, max_value=1e4))
    def test_truncated_std_not_larger(self, demand, cap):
        result = truncated_moments(demand, 0.0, cap)
        assert result.std <= demand.std + 1e-9
