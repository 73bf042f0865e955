"""The tests' oracle for the probabilistic guarantee: Eqs. 4-6 written out.

``src/repro`` states Eq. 6 once, in :meth:`LinkState.occupancy_with
<repro.network.link_state.LinkState.occupancy_with>`, over the link's running
sums.  This module is the textbook statement it is checked against: the CLT
summary of a link's stochastic demands as a value object, the admission test
of Eq. (4), the outage probability of Eq. (1), the effective bandwidths of
Eq. (5) and the occupancy ratio of Eq. (6).  On a link ``L`` with stochastic
sharing bandwidth ``S_L = C_L - D_L``, the resident demands (each summarized
by ``mu_i`` and ``sigma_i^2``) aggregate to ``Normal(sum mu_i, sum sigma_i^2)``
and Eq. (1) becomes

    (S_L - sum mu_i) / sqrt(sum sigma_i^2) > Phi^{-1}(1 - epsilon)      (Eq. 4)

``E^L_i = mu_i + c * sigma_i^2 / sqrt(sum sigma^2)`` with
``c = Phi^{-1}(1 - epsilon)`` (Eq. 5) and ``O_L = (D_L + sum_i E^L_i) / C_L``
(Eq. 6).  Summing the effective bandwidths telescopes to
``sum mu_i + c * sqrt(sum sigma^2)``, so ``O_L < 1`` is *equivalent* to
Eq. (4) — the identity ``tests/stochastic`` verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.network.link_state import LinkState
from repro.stochastic.aggregate import risk_quantile
from repro.stochastic.normal import Normal, normal_cdf

_VARIANCE_EPS = 1e-12


@dataclass(frozen=True)
class DemandAggregate:
    """The CLT summary of a set of independent link demands.

    Immutable value object carrying ``sum mu_i`` and ``sum sigma_i^2``
    (:func:`aggregate_of` reads one off a :class:`LinkState`).
    """

    total_mean: float = 0.0
    total_variance: float = 0.0

    def __post_init__(self) -> None:
        if self.total_variance < -_VARIANCE_EPS:
            raise ValueError(f"aggregate variance must be >= 0, got {self.total_variance}")

    def add(self, demand: Normal) -> "DemandAggregate":
        """Aggregate with one more independent demand."""
        return DemandAggregate(
            self.total_mean + demand.mean,
            self.total_variance + demand.variance,
        )

    def remove(self, demand: Normal) -> "DemandAggregate":
        """Remove a previously added demand (release path).

        Floating-point round-off can leave a tiny negative variance when the
        last demand departs; it is clamped to zero.
        """
        variance = self.total_variance - demand.variance
        if variance < 0.0:
            variance = 0.0
        mean = self.total_mean - demand.mean
        if abs(mean) < _VARIANCE_EPS:
            mean = 0.0
        return DemandAggregate(mean, variance)

    @property
    def total_std(self) -> float:
        """``sqrt(sum sigma_i^2)`` of the aggregate."""
        return math.sqrt(max(self.total_variance, 0.0))

    def as_normal(self) -> Normal:
        """The CLT normal approximation of the aggregate demand."""
        return Normal.from_variance(self.total_mean, max(self.total_variance, 0.0))

    @property
    def is_empty(self) -> bool:
        return self.total_mean == 0.0 and self.total_variance == 0.0


def admission_margin(aggregate: DemandAggregate, sharing_bandwidth: float, epsilon: float) -> float:
    """Slack of the admission test: positive iff Eq. (4) holds strictly.

    Returns ``(S_L - sum mu) - c * sqrt(sum sigma^2)``, i.e. the bandwidth
    headroom beyond what the risk level requires.
    """
    c = risk_quantile(epsilon)
    return sharing_bandwidth - aggregate.total_mean - c * aggregate.total_std


def is_admissible(aggregate: DemandAggregate, sharing_bandwidth: float, epsilon: float) -> bool:
    """Check Eq. (4): can the link carry this aggregate with outage < epsilon?

    For a fully deterministic aggregate (zero variance) the condition reduces
    to ``sum mu < S_L`` — the classical deterministic reservation test, as
    noted at the end of Section IV-B.
    """
    return admission_margin(aggregate, sharing_bandwidth, epsilon) > 0.0


def outage_probability(aggregate: DemandAggregate, sharing_bandwidth: float) -> float:
    """``Pr(sum_i B^i_L > S_L)`` under the CLT normal approximation (Eq. 1)."""
    if aggregate.total_variance <= 0.0:
        return 1.0 if aggregate.total_mean > sharing_bandwidth else 0.0
    z = (sharing_bandwidth - aggregate.total_mean) / aggregate.total_std
    return 1.0 - normal_cdf(z)


def effective_bandwidth_total(aggregate: DemandAggregate, epsilon: float) -> float:
    """``sum_i E^L_i = sum mu_i + c * sqrt(sum sigma_i^2)`` (telescoped Eq. 5).

    The effective bandwidth of an individual demand depends on its co-tenants
    (statistical multiplexing); their *sum*, however, has this closed form,
    which is all the occupancy ratio needs.
    """
    c = risk_quantile(epsilon)
    return aggregate.total_mean + c * aggregate.total_std


def effective_bandwidth_of(
    demand: Normal, aggregate: DemandAggregate, epsilon: float
) -> float:
    """``E^L_i = mu_i + c * sigma_i^2 / sqrt(sum sigma^2)`` for one demand (Eq. 5).

    ``aggregate`` must already *include* ``demand``.  When the aggregate is
    deterministic the stochastic surcharge vanishes and the effective
    bandwidth is just the mean.
    """
    c = risk_quantile(epsilon)
    total_std = aggregate.total_std
    if total_std == 0.0:
        return demand.mean
    return demand.mean + c * demand.variance / total_std


def occupancy_ratio(
    deterministic_reserved: float,
    aggregate: DemandAggregate,
    capacity: float,
    epsilon: float,
) -> float:
    """Bandwidth occupancy ratio ``O_L`` of a link (Eq. 6).

    ``O_L = (D_L + sum_i E^L_i) / C_L``.  ``O_L < 1`` is equivalent to the
    admission condition Eq. (4) on that link.
    """
    if capacity <= 0.0:
        raise ValueError(f"link capacity must be > 0, got {capacity}")
    return (deterministic_reserved + effective_bandwidth_total(aggregate, epsilon)) / capacity


def aggregate_of(link: LinkState) -> DemandAggregate:
    """The CLT summary of a link's resident stochastic demands."""
    return DemandAggregate(link.mean_total, max(link.var_total, 0.0))
