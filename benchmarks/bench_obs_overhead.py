"""Observability overhead benchmark: instrumented vs uninstrumented admission.

Drives one Fig. 7-style Poisson arrival stream (jobs arrive, hold their
allocation for their compute time, then depart) through the admission path
twice per repeat — once with the observability layer live (the default) and
once with ``repro.obs.configure(enabled=False)`` swapping in the no-op
facades — and compares best-of-N requests/sec.  The instrumentation contract
of the obs subsystem is **<= 5% throughput regression** on the admission path;
``--gate`` turns that contract into a nonzero exit code for CI.

Modes are interleaved (on, off, on, off, ...) so thermal drift and cache
warm-up bias both sides equally, and each mode's *best* run is compared —
best-of-N is the standard way to squeeze scheduler noise out of a ratio.

The same contract covers the **cluster-layer observability** added on top
(end-to-end trace propagation, flight-recorder events, metrics federation):
``run_cluster_overhead`` drives a 2-shard in-process cluster through the
coordinator twice with identical base instrumentation — once at the shipped
defaults (tracing sampled 1-in-64, plus a federated scrape every 1000
requests, still far denser than any real scrape interval) and once with
tracing sampled out and no scrapes — and applies the same <= 5% gate to the
marginal cost.  Toggling ``configure(enabled=...)`` instead would re-measure
the service instruments the single-node A/B above already gates; tracing
*every* request is a debugging posture, not the contract (sampling is the
mechanism that bounds its cost).

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --scale small --num-jobs 60
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --gate   # CI: fail > 5%
"""

from __future__ import annotations

import argparse
import heapq
import json
import random
import sys
import time
from typing import Dict, List

import numpy as np

from _provenance import stamped

from repro.allocation.svc_het_heuristic import SVCHeterogeneousAllocator
from repro.allocation.svc_homogeneous import AdaptedTIVCAllocator, SVCHomogeneousAllocator
from repro.experiments.config import scale_by_name
from repro.manager.network_manager import NetworkManager
from repro.obs.instruments import configure, global_registry
from repro.simulation.workload import assign_poisson_arrivals, generate_jobs, make_request
from repro.topology.builder import build_datacenter

GATE_PCT = 5.0


#: Effectively "never": the deterministic sampler fires on call N, 2N, ...
_SAMPLE_NEVER = 1 << 30

VARIANTS = {
    "svc-dp": SVCHomogeneousAllocator,
    "tivc": AdaptedTIVCAllocator,
    "svc-het": SVCHeterogeneousAllocator,
}


def run_variant(variant: str, scale_name: str, seed: int, load: float, num_jobs: int,
                epsilon: float = 0.05) -> float:
    """Requests/sec of one allocator over the arrival stream (allocate time only).

    Jobs hold their allocation for their compute time and are released before
    later arrivals are admitted, so the allocator sees a realistically
    churning link state rather than a monotonically filling one.
    """
    scale = scale_by_name(scale_name)
    config = scale.workload(heterogeneous=variant == "svc-het", num_jobs=num_jobs)
    tree = build_datacenter(scale.spec)
    specs = assign_poisson_arrivals(
        generate_jobs(config, np.random.default_rng(seed)),
        load=load,
        total_slots=tree.total_slots,
        mean_job_size=config.mean_job_size,
        mean_compute_time=config.mean_compute_time,
        rng=np.random.default_rng(seed + 1),
    )
    manager = NetworkManager(tree, epsilon=epsilon, allocator=VARIANTS[variant]())
    rate_cap = tree.min_machine_uplink_capacity
    total = 0.0
    departures: List = []  # (departure_time, request_id)
    for spec in specs:
        while departures and departures[0][0] <= spec.submit_time:
            _, request_id = heapq.heappop(departures)
            manager.release(manager.get_tenancy(request_id))
        request = make_request(spec, "svc", rate_cap=rate_cap)
        start = time.perf_counter()
        tenancy = manager.request(request)
        total += time.perf_counter() - start
        if tenancy is not None:
            heapq.heappush(
                departures, (spec.submit_time + spec.compute_time, tenancy.request_id)
            )
    return len(specs) / total if total > 0 else float("inf")


def _drive_cluster(
    scale_name: str,
    seed: int,
    num_requests: int,
    epsilon: float = 0.05,
    trace_sample_every: int = _SAMPLE_NEVER,
    scrape_every: int = 0,
) -> float:
    """Requests/sec of one coordinator drive over a fresh 2-shard cluster."""
    from repro.cluster.chaos import _workload_request
    from repro.cluster.coordinator import ClusterCoordinator, CoordinatorError
    from repro.cluster.partition import ClusterPartition
    from repro.cluster.shard import LocalShard
    from repro.experiments.config import SCALES
    from repro.service.errors import ServiceError

    spec = SCALES[scale_name].spec
    partition = ClusterPartition.build(spec, 2)
    rng = random.Random(seed)
    shard_slots = partition.shards[0].total_slots
    # Pre-generate the workload so RNG cost stays outside the timed window.
    requests = [_workload_request(rng, shard_slots) for _ in range(num_requests)]
    shards = [LocalShard(view, None, epsilon=epsilon) for view in partition.shards]
    coordinator = ClusterCoordinator(
        partition, shards, epsilon=epsilon, trace_sample_every=trace_sample_every
    )
    try:
        started = time.perf_counter()
        for index, request in enumerate(requests, start=1):
            try:
                coordinator.submit(request)
            except (CoordinatorError, ServiceError):
                pass  # a decision either way exercises the full path
            if scrape_every and index % scrape_every == 0:
                coordinator.cluster_metrics()
        elapsed = time.perf_counter() - started
    finally:
        coordinator.stop()
        for shard in shards:
            shard.close()
    return num_requests / elapsed if elapsed > 0 else 0.0


def run_cluster_overhead(
    scale_name: str = "tiny",
    seed: int = 0,
    num_requests: int = 400,
    repeats: int = 5,
) -> Dict:
    """Interleaved A/B of the *marginal* cluster-observability cost.

    Both sides run with the base instruments live; "enabled" additionally
    traces at the default 1-in-64 sampling and takes a federated scrape
    every 1000 requests, "disabled" samples tracing out and never scrapes.
    """
    runs: Dict[str, List[float]] = {"enabled": [], "disabled": []}
    modes = (
        ("enabled", {"trace_sample_every": 64, "scrape_every": 1000}),
        ("disabled", {}),
    )
    # Warm-up drive (untimed comparison-wise): pays the lazy imports and
    # allocator caches once so the first interleaved run is not biased.
    _drive_cluster(scale_name, seed, max(20, num_requests // 4))
    for repeat in range(repeats):
        for mode, overrides in modes:
            rate = _drive_cluster(scale_name, seed, num_requests, **overrides)
            runs[mode].append(rate)
            print(
                f"[bench_obs_overhead] cluster repeat {repeat + 1}/{repeats} "
                f"{mode:8s} {rate:10.1f} req/s",
                flush=True,
            )
    best_on = max(runs["enabled"])
    best_off = max(runs["disabled"])
    overhead_pct = 100.0 * (best_off - best_on) / best_off if best_off > 0 else 0.0
    return {
        "scale": scale_name,
        "seed": seed,
        "shards": 2,
        "num_requests": num_requests,
        "repeats": repeats,
        "traced": "1-in-64 sampling + federation scrape every 1000 vs none",
        "requests_per_sec": {
            "instrumented_best": best_on,
            "uninstrumented_best": best_off,
            "instrumented_runs": runs["enabled"],
            "uninstrumented_runs": runs["disabled"],
        },
        "overhead_pct": overhead_pct,
        "gate_pct": GATE_PCT,
        "within_gate": overhead_pct <= GATE_PCT,
    }


def run_overhead(
    scale_name: str = "small",
    seed: int = 0,
    load: float = 0.6,
    num_jobs: int = 60,
    repeats: int = 3,
    variant: str = "svc-dp",
) -> Dict:
    """Interleaved A/B of the admission path with instruments on vs off."""
    runs: Dict[str, List[float]] = {"enabled": [], "disabled": []}
    try:
        for repeat in range(repeats):
            for mode, flag in (("enabled", True), ("disabled", False)):
                configure(enabled=flag)
                rate = run_variant(variant, scale_name, seed, load, num_jobs)
                runs[mode].append(rate)
                print(
                    f"[bench_obs_overhead] repeat {repeat + 1}/{repeats} "
                    f"{mode:8s} {rate:10.1f} req/s",
                    flush=True,
                )
    finally:
        configure(enabled=True)  # never leave the process uninstrumented

    best_on = max(runs["enabled"])
    best_off = max(runs["disabled"])
    overhead_pct = 100.0 * (best_off - best_on) / best_off if best_off > 0 else 0.0
    return {
        "benchmark": "obs_overhead",
        "variant": variant,
        "scale": scale_name,
        "seed": seed,
        "load": load,
        "num_jobs": num_jobs,
        "repeats": repeats,
        "requests_per_sec": {
            "instrumented_best": best_on,
            "uninstrumented_best": best_off,
            "instrumented_runs": runs["enabled"],
            "uninstrumented_runs": runs["disabled"],
        },
        "overhead_pct": overhead_pct,
        "gate_pct": GATE_PCT,
        "within_gate": overhead_pct <= GATE_PCT,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small", choices=["tiny", "small", "paper"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--load", type=float, default=0.6)
    parser.add_argument("--num-jobs", type=int, default=60)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--variant", default="svc-dp", choices=sorted(VARIANTS))
    parser.add_argument(
        "--cluster-scale",
        default="tiny",
        choices=["tiny", "small"],
        help="scale of the 2-shard cluster A/B (default: tiny)",
    )
    parser.add_argument(
        "--cluster-requests",
        type=int,
        default=400,
        help="requests per cluster drive (default: 400); 0 skips cluster mode",
    )
    parser.add_argument("--output", default="BENCH_obs_overhead.json")
    parser.add_argument(
        "--metrics-output",
        default=None,
        help="also dump the final registry snapshot as JSON (CI artifact)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help=f"exit nonzero when overhead exceeds {GATE_PCT}%%",
    )
    args = parser.parse_args(argv)

    payload = run_overhead(
        scale_name=args.scale,
        seed=args.seed,
        load=args.load,
        num_jobs=args.num_jobs,
        repeats=args.repeats,
        variant=args.variant,
    )
    if args.cluster_requests > 0:
        payload["cluster"] = run_cluster_overhead(
            scale_name=args.cluster_scale,
            seed=args.seed,
            num_requests=args.cluster_requests,
            repeats=args.repeats,
        )
    with open(args.output, "w") as handle:
        json.dump(stamped(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench_obs_overhead] wrote {args.output}")
    if args.metrics_output:
        with open(args.metrics_output, "w") as handle:
            json.dump(global_registry().snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[bench_obs_overhead] wrote {args.metrics_output}")
    print(
        f"[bench_obs_overhead] overhead: {payload['overhead_pct']:.2f}% "
        f"(gate {GATE_PCT}%, within: {payload['within_gate']})"
    )
    failed = args.gate and not payload["within_gate"]
    if "cluster" in payload:
        cluster = payload["cluster"]
        print(
            f"[bench_obs_overhead] cluster overhead: "
            f"{cluster['overhead_pct']:.2f}% "
            f"(gate {GATE_PCT}%, within: {cluster['within_gate']})"
        )
        failed = failed or (args.gate and not cluster["within_gate"])
    if failed:
        print(
            f"[bench_obs_overhead] FAIL: instrumentation exceeds "
            f"{GATE_PCT}% throughput overhead",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
