"""CI gate: the incremental Algorithm 1 decides exactly as the seed DP does.

The production homogeneous allocator keeps its DP tables across calls, per
request shape, and rebuilds only what ``NetworkState.changed_at`` says moved
(``repro.allocation.svc_homogeneous``).  Every service path now goes through
those kept tables, batched or not, so comparing two service runs no longer
proves anything about them.  This drill compares against a reference that
keeps nothing: the seed DP (``svc-dp-seed``).

The drill: two tenants walk a small menu of shapes in interleaved bursts —
the repeated-shape traffic the kept tables exist for — with resizes (both the
in-place and the release + re-admit path) and releases in between.  The one
op stream is replayed on two managers, one with a single long-lived
production allocator, one with the seed DP.  After every op the decision
(host, placement, ``max_occupancy``) and the serialized network state must be
identical; the first difference fails the run.

Usage (repo root)::

    PYTHONPATH=src python scripts/check_incremental_dp.py --scale small
    PYTHONPATH=src python scripts/check_incremental_dp.py --scale small --bursts 60
"""

from __future__ import annotations

import argparse
import sys

from repro.abstractions import HomogeneousSVC
from repro.allocation.svc_homogeneous import SVCHomogeneousAllocator
from repro.experiments.common import resolve_scale, simulation_rng
from repro.manager.network_manager import RESIZE_IN_PLACE, RESIZE_REPLACED, NetworkManager
from repro.service.codec import network_state_to_dict
from repro.topology.builder import build_datacenter

SIZES = (4, 8, 12, 16, 24)
RATES = (100.0, 200.0, 300.0)
BURST = 8


def log(message: str) -> None:
    print(f"[check_incremental_dp] {message}", flush=True)


def record_stream(rng, bursts: int, fill: float, total_slots: int):
    """``("submit", shape) | ("resize", pick, delta) | ("release", pick)`` ops."""
    steps = [int(rng.integers(15)), int(rng.integers(15))]
    ops = []
    for _ in range(bursts):
        shapes = []
        for tenant in range(2):
            steps[tenant] += 1
            mean = RATES[steps[tenant] % len(RATES)]
            shapes.append(
                HomogeneousSVC(n_vms=SIZES[steps[tenant] % len(SIZES)], mean=mean, std=0.4 * mean)
            )
        for _ in range(BURST):
            for shape in shapes:
                ops.append(("submit", shape))
                if rng.random() < 0.2:
                    ops.append(("resize", int(rng.integers(1 << 16)), int(rng.integers(-3, 4))))
        ops.append(("drain", int(fill * total_slots)))
    return ops


def describe(tenancy):
    allocation = tenancy.allocation
    return (
        allocation.request_id,
        allocation.host_node,
        sorted(allocation.machine_counts.items()),
        allocation.max_occupancy,
    )


def apply(manager: NetworkManager, op, live):
    """Run one op on one manager; ``live`` is the shared admission-order id list."""
    if op[0] == "submit":
        tenancy = manager.request(op[1])
        return None if tenancy is None else describe(tenancy)
    if op[0] == "resize":
        if not live:
            return "idle"
        request_id = live[op[1] % len(live)]
        new_n = max(1, manager.tenancy(request_id).n_vms + op[2])
        result = manager.resize(request_id, new_n=new_n)
        return (result.outcome, describe(result.tenancy))
    # drain: release the oldest tenants until the fill is back under target
    released = []
    for request_id in live:
        if manager.state.used_slots <= op[1]:
            break
        manager.release(manager.tenancy(request_id))
        released.append(request_id)
    return ("released", released)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bursts", type=int, default=30)
    parser.add_argument("--fill", type=float, default=0.5,
                        help="share of the slots the releases drain back to")
    args = parser.parse_args()

    tree = build_datacenter(resolve_scale(args.scale).spec)
    ops = record_stream(simulation_rng(args.seed), args.bursts, args.fill, tree.total_slots)
    kept = NetworkManager(tree, epsilon=0.05, allocator=SVCHomogeneousAllocator())
    seed = NetworkManager(tree, epsilon=0.05, allocator=SVCHomogeneousAllocator(fast=False))

    live = []
    tally = {"admitted": 0, "rejected": 0, "released": 0, RESIZE_IN_PLACE: 0,
             RESIZE_REPLACED: 0, "resize_rejected": 0}
    for index, op in enumerate(ops):
        got, want = apply(kept, op, live), apply(seed, op, live)
        if got != want:
            log(f"FAIL at op {index} {op}: kept tables decided {got}, seed DP {want}")
            return 1
        if network_state_to_dict(kept.state) != network_state_to_dict(seed.state):
            log(f"FAIL at op {index} {op}: link state diverged from the seed DP's")
            return 1
        if op[0] == "submit":
            tally["admitted" if got is not None else "rejected"] += 1
            if got is not None:
                live.append(got[0])
        elif op[0] == "resize" and got != "idle":
            tally[got[0] if got[0] != "rejected" else "resize_rejected"] += 1
        elif op[0] == "drain":
            tally["released"] += len(got[1])
            del live[: len(got[1])]
    performed = sum(tally.values())
    if performed < 300 or not (
        tally["admitted"] and tally["released"] and tally[RESIZE_IN_PLACE] and tally[RESIZE_REPLACED]
    ):
        log(f"FAIL: the stream did not exercise every path ({performed} ops: {tally})")
        return 1
    log(
        f"OK: {performed} ops ({tally}); every decision and link state "
        "identical to svc-dp-seed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
