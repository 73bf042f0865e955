"""Per-link demand characterization of a placed virtual cluster.

A link ``L`` of the tree splits the ``N`` VMs of a request into two groups;
the request's bandwidth demand on ``L`` is the minimum of the two groups'
aggregate demands (Section IV-A for the homogeneous model, Section V-A for
the heterogeneous one).  This module computes the mean/variance of that
minimum — scalar, vectorized over all split sizes, and tabulated over all
contiguous segments of a sorted VM sequence — using the Lemma 1 formulas.

Splits with an empty side (``m in {0, N}``) carry *exactly zero* demand:
no traffic crosses a link that has the whole cluster on one side.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np
from scipy.special import erf

from repro.abstractions.requests import (
    DeterministicVC,
    HeterogeneousSVC,
    HomogeneousSVC,
    VirtualClusterRequest,
)
from repro.stochastic.minimum import min_of_normals
from repro.stochastic.normal import Normal, ZERO, sum_iid, sum_normals

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _vec_min_moments(
    mu1: np.ndarray, var1: np.ndarray, mu2: np.ndarray, var2: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized Lemma 1: moments of ``min(X1, X2)`` elementwise.

    Degenerate entries (``var1 + var2 == 0``) fall back to ``min(mu1, mu2)``
    with zero variance, matching the scalar implementation.
    """
    theta_sq = var1 + var2
    degenerate = theta_sq <= 0.0
    theta = np.sqrt(np.where(degenerate, 1.0, theta_sq))  # avoid div-by-zero
    # Phi/phi saturate far before |alpha| = 40; clipping avoids overflow in
    # alpha**2 for near-degenerate variances without changing any result.
    alpha = np.clip((mu2 - mu1) / theta, -40.0, 40.0)
    cdf = 0.5 * (1.0 + erf(alpha / _SQRT2))
    cdf_neg = 1.0 - cdf
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * alpha * alpha)

    mean = mu1 * cdf + mu2 * cdf_neg - theta * pdf
    second = (
        (var1 + mu1 * mu1) * cdf
        + (var2 + mu2 * mu2) * cdf_neg
        - (mu1 + mu2) * theta * pdf
    )
    variance = np.maximum(second - mean * mean, 0.0)

    mean = np.where(degenerate, np.minimum(mu1, mu2), mean)
    variance = np.where(degenerate, 0.0, variance)
    return mean, variance


#: Bounded memo of :func:`homogeneous_split_moments` results.  Workload
#: generators draw request shapes from a small discrete set, so the same
#: ``(kind, N, mu, sigma)`` recurs across thousands of admissions; the cached
#: arrays are frozen (read-only) so shared results cannot be corrupted.
_SPLIT_MOMENTS_CACHE: "dict" = {}
_SPLIT_MOMENTS_CACHE_MAX = 512


def _compute_homogeneous_split_moments(
    request: VirtualClusterRequest,
) -> Tuple[np.ndarray, np.ndarray]:
    n = request.n_vms
    m = np.arange(n + 1, dtype=float)
    if isinstance(request, DeterministicVC):
        mu = request.bandwidth * np.minimum(m, n - m)
        return mu, np.zeros(n + 1)
    if not isinstance(request, HomogeneousSVC):
        raise TypeError(f"expected a homogeneous request, got {type(request).__name__}")

    mean, variance = request.mean, request.std ** 2
    mu, var = _vec_min_moments(m * mean, m * variance, (n - m) * mean, (n - m) * variance)
    # Empty-side splits carry no cross-link traffic.
    mu[0] = mu[n] = 0.0
    var[0] = var[n] = 0.0
    np.maximum(mu, 0.0, out=mu)
    return mu, var


def homogeneous_split_moments(
    request: VirtualClusterRequest,
) -> Tuple[np.ndarray, np.ndarray]:
    """Demand moments on a link for every split size of a homogeneous request.

    Returns arrays ``(mu, var)`` of length ``N + 1`` where entry ``m`` holds
    the mean and variance of ``min(B(m), B(N - m))`` — the request's demand on
    a link that has ``m`` of its VMs below (Section IV-A).  Entries 0 and
    ``N`` are exactly zero.

    Accepts :class:`HomogeneousSVC` and :class:`DeterministicVC` (for which
    the result is the classic ``B * min(m, N - m)`` with zero variance).

    Results are memoized per request shape and returned as *read-only* arrays;
    copy before mutating.
    """
    if isinstance(request, DeterministicVC):
        key = ("det", request.n_vms, request.bandwidth)
    elif isinstance(request, HomogeneousSVC):
        key = ("hom", request.n_vms, request.mean, request.std)
    else:
        return _compute_homogeneous_split_moments(request)  # raises TypeError
    cached = _SPLIT_MOMENTS_CACHE.get(key)
    if cached is None:
        mu, var = _compute_homogeneous_split_moments(request)
        mu.flags.writeable = False
        var.flags.writeable = False
        if len(_SPLIT_MOMENTS_CACHE) >= _SPLIT_MOMENTS_CACHE_MAX:
            # Simple wholesale reset: shapes are few, refilling is cheap.
            _SPLIT_MOMENTS_CACHE.clear()
        _SPLIT_MOMENTS_CACHE[key] = cached = (mu, var)
    return cached


def link_demand_homogeneous(request: VirtualClusterRequest, m: int) -> Normal:
    """Scalar version of :func:`homogeneous_split_moments` for one split.

    Exercised by the tests as an independent cross-check of the vectorized
    path (this one goes through the scalar Lemma 1 implementation).
    """
    n = request.n_vms
    if not 0 <= m <= n:
        raise ValueError(f"split size must be in [0, {n}], got {m}")
    if m in (0, n):
        return ZERO
    if isinstance(request, DeterministicVC):
        return Normal.deterministic(request.bandwidth * min(m, n - m))
    if not isinstance(request, HomogeneousSVC):
        raise TypeError(f"expected a homogeneous request, got {type(request).__name__}")
    demand = request.vm_demand
    below = sum_iid(demand, m)
    above = sum_iid(demand, n - m)
    return min_of_normals(below, above)


def subset_split_demand(request: HeterogeneousSVC, subset: Sequence[int]) -> Normal:
    """Demand on a link that separates ``subset`` from the remaining VMs.

    ``subset`` holds VM indices (0-based).  Used by the exact heterogeneous
    DP (Section V-B) and as the ground truth the segment table is checked
    against.
    """
    chosen = set(subset)
    if not chosen or len(chosen) == request.n_vms:
        return ZERO
    if not all(0 <= idx < request.n_vms for idx in chosen):
        raise ValueError(f"subset contains out-of-range VM indices: {sorted(chosen)}")
    inside = sum_normals(request.demands[idx] for idx in chosen)
    outside = sum_normals(
        demand for idx, demand in enumerate(request.demands) if idx not in chosen
    )
    return min_of_normals(inside, outside)


class SegmentDemandTable:
    """Demand moments for every contiguous segment of the sorted VM sequence.

    The substring heuristic (Section V-B) only ever places *contiguous*
    substrings of the percentile-sorted sequence ``S_N`` into a subtree, so
    all the link-demand moments it needs are indexed by a half-open segment
    ``[s, e)`` with ``0 <= s <= e <= N`` over the sorted order.  This table
    precomputes all of them in one vectorized pass (``O(N^2)`` memory).
    """

    def __init__(self, request: HeterogeneousSVC, percentile: float = 95.0) -> None:
        self.request = request
        self.order: Tuple[int, ...] = request.sorted_order(percentile)
        n = request.n_vms
        self.n_vms = n

        means = np.array([request.demands[idx].mean for idx in self.order])
        variances = np.array([request.demands[idx].variance for idx in self.order])
        # Prefix sums with a leading zero: segment [s, e) aggregates to
        # prefix[e] - prefix[s].
        self._mean_prefix = np.concatenate(([0.0], np.cumsum(means)))
        self._var_prefix = np.concatenate(([0.0], np.cumsum(variances)))
        total_mean = self._mean_prefix[n]
        total_var = self._var_prefix[n]

        starts, ends = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        seg_mean = self._mean_prefix[ends] - self._mean_prefix[starts]
        seg_var = self._var_prefix[ends] - self._var_prefix[starts]
        mu, var = _vec_min_moments(
            seg_mean, seg_var, total_mean - seg_mean, total_var - seg_var
        )
        # Invalid (s > e), empty, and full segments carry zero demand.
        invalid = starts > ends
        empty = starts == ends
        full = (ends - starts) == n
        zero_mask = invalid | empty | full
        mu[zero_mask] = 0.0
        var[zero_mask] = 0.0
        np.maximum(mu, 0.0, out=mu)
        #: ``demand_mean[s, e]`` / ``demand_var[s, e]`` — moments of the
        #: request's demand on a link separating segment ``[s, e)`` from the rest.
        self.demand_mean = mu
        self.demand_var = var

    def segment_vms(self, start: int, end: int) -> Tuple[int, ...]:
        """Original VM indices of segment ``[start, end)`` of the sorted order."""
        return self.order[start:end]

    def segment_demand(self, start: int, end: int) -> Normal:
        """Demand on a link separating segment ``[start, end)`` from the rest."""
        if not 0 <= start <= end <= self.n_vms:
            raise ValueError(f"invalid segment [{start}, {end}) for N={self.n_vms}")
        return Normal.from_variance(
            float(self.demand_mean[start, end]), float(self.demand_var[start, end])
        )
