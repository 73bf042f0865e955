#!/usr/bin/env python
"""From profiling run to tenant request: the SVC derivation pipeline.

Profiles a synthetic MapReduce-style application (quiet compute phases
punctuated by heavy shuffle bursts), fits per-VM demand distributions, and
derives all three abstractions from the *same* profile.  Then shows the
economics: what each abstraction effectively reserves on a link carrying the
whole cluster, and how many such tenants one 10 Gbps ToR uplink can admit.

Run: ``python examples/profile_to_request.py``
"""

import numpy as np

from repro.network.link_state import LinkState
from repro.profiling import (
    derive_deterministic_vc,
    derive_heterogeneous_svc,
    derive_homogeneous_svc,
    synthetic_phased_trace,
)
from repro.stochastic import Normal, risk_quantile
from repro.stochastic.normal import sum_iid
from repro.topology.nodes import Link


def main() -> None:
    rng = np.random.default_rng(0)
    n_vms = 10
    print(f"profiling {n_vms} VMs of a phased (MapReduce-like) application...")
    traces = [
        synthetic_phased_trace(
            low_rate=30.0, high_rate=600.0, rng=rng,
            duration=600, high_fraction=0.25, cap=1000.0,
        )
        for _ in range(n_vms)
    ]
    for idx, trace in enumerate(traces[:3]):
        print(
            f"  vm{idx}: mean={trace.mean:6.1f}  std={trace.std:6.1f}  "
            f"p95={trace.percentile(95):6.1f} Mbps"
        )
    print("  ...")

    svc = derive_homogeneous_svc(traces)
    het = derive_heterogeneous_svc(traces)
    mean_vc = derive_deterministic_vc(traces, percentile=50.0)
    pctl_vc = derive_deterministic_vc(traces, percentile=95.0)
    print(f"\nderived requests from the same profile:")
    print(f"  SVC:            <N={svc.n_vms}, mu={svc.mean:.1f}, sigma={svc.std:.1f}>")
    first = het.demands[0]
    print(f"  heterogeneous:  per-VM fits, e.g. Normal({first.mean:.1f}, {first.std:.1f}^2)")
    print(f"  median-VC:      <N={mean_vc.n_vms}, B={mean_vc.bandwidth:.1f}>")
    print(f"  percentile-VC:  <N={pctl_vc.n_vms}, B={pctl_vc.bandwidth:.1f}>")

    # What a link carrying half the cluster (worst split) must provision:
    # its effective bandwidth (Eq. 5) is O_L times the capacity (Eq. 6).
    half = n_vms // 2
    demand = sum_iid(Normal(svc.mean, svc.std), half)
    capacity = 10_000.0
    uplink = LinkState(Link(link_id=1, child=1, parent=0, capacity=capacity))
    c = risk_quantile(0.05)
    svc_effective = capacity * uplink.occupancy_with(
        c, extra_mean=demand.mean, extra_var=demand.variance
    )
    pctl_reserved = half * pctl_vc.bandwidth
    print(f"\nworst-split link load for one tenant ({half} VMs below the link):")
    print(f"  SVC effective bandwidth (eps=0.05): {svc_effective:8.1f} Mbps")
    print(f"  percentile-VC reservation:          {pctl_reserved:8.1f} Mbps")
    print(f"  SVC saving: {100 * (1 - svc_effective / pctl_reserved):.1f}%")

    # How many such tenants fit on a 10 Gbps ToR uplink (Eq. 4: O_L < 1)?
    count_pctl = int(capacity // pctl_reserved)
    count_svc = 0
    while uplink.occupancy_with(
        c, extra_mean=demand.mean, extra_var=demand.variance
    ) < 1.0:
        uplink.add_stochastic(count_svc, demand)
        count_svc += 1
    print(f"\ntenants admitted by a 10 Gbps uplink (worst-split accounting):")
    print(f"  percentile-VC: {count_pctl}")
    print(f"  SVC(0.05):     {count_svc}  "
          f"(statistical multiplexing gain: +{count_svc - count_pctl})")


if __name__ == "__main__":
    main()
