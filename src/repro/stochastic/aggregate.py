"""The risk quantile of the admission condition (Eq. 4).

On a link ``L`` with stochastic sharing bandwidth ``S_L = C_L - D_L``, the
resident stochastic demands (each summarized by its mean ``mu_i`` and
variance ``sigma_i^2``) are approximated via the central limit theorem as a
single normal ``Normal(sum mu_i, sum sigma_i^2)``, and the probabilistic
guarantee ``Pr(sum_i B^i_L > S_L) < epsilon`` (Eq. 1) becomes

    (S_L - sum mu_i) / sqrt(sum sigma_i^2) > Phi^{-1}(1 - epsilon)      (Eq. 4)

which is ``O_L < 1`` for the occupancy ratio of Eq. (6).  ``src/`` states
that test once, in :meth:`repro.network.link_state.LinkState.occupancy_with`,
over the link's running sums; this module supplies its
``c = Phi^{-1}(1 - epsilon)``.  ``tests/reference/aggregate.py`` is the
textbook statement of Eqs. 4-6 it is checked against.
"""

from __future__ import annotations

from repro.stochastic.normal import normal_quantile


def risk_quantile(epsilon: float) -> float:
    """``c = Phi^{-1}(1 - epsilon)`` — headroom multiplier for risk ``epsilon``.

    ``epsilon`` is the provider's SLA risk factor (Section III-B); the default
    in the paper's evaluation is 0.05, giving ``c ~= 1.645``.

    :func:`normal_quantile` is memoized, so each of the handful of distinct
    risk levels costs a dict hit after the first.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"risk factor epsilon must be in (0, 1), got {epsilon}")
    return normal_quantile(1.0 - epsilon)
