"""The stochastic cloud network sharing framework (Section III-C).

- :class:`NetworkManager` — admission control + VM allocation + tenancy
  lifecycle over a :class:`~repro.network.link_state.NetworkState`.
"""

from repro.manager.network_manager import NetworkManager, Tenancy

__all__ = ["NetworkManager", "Tenancy"]
