"""Probability substrate for the SVC reproduction.

This subpackage implements the stochastic machinery of the paper:

- :mod:`repro.stochastic.normal` — a small, explicit normal-distribution
  toolkit (pdf, cdf, quantile, arithmetic on independent normals).
- :mod:`repro.stochastic.minimum` — Lemma 1 of the paper: the exact mean and
  variance of the minimum of two independent normal random variables.
- :mod:`repro.stochastic.aggregate` — the risk quantile
  ``c = Phi^{-1}(1 - epsilon)`` of the admission condition (Eq. 4); the
  occupancy ratio of Eq. (6) itself is
  :meth:`repro.network.link_state.LinkState.occupancy_with`.
"""

from repro.stochastic.normal import (
    Normal,
    ZERO,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    sum_iid,
    sum_normals,
    truncated_moments,
    truncated_quantile,
)
from repro.stochastic.distributions import (
    EmpiricalDemand,
    LogNormalDemand,
    UniformDemand,
)
from repro.stochastic.minimum import min_of_normals
from repro.stochastic.aggregate import risk_quantile

__all__ = [
    "Normal",
    "ZERO",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "sum_iid",
    "sum_normals",
    "truncated_moments",
    "truncated_quantile",
    "EmpiricalDemand",
    "LogNormalDemand",
    "UniformDemand",
    "min_of_normals",
    "risk_quantile",
]
