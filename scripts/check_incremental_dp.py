"""CI gate: the incremental Algorithm 1 decides exactly as the seed DP does.

The production homogeneous allocator keeps its DP tables across calls, per
request shape, and rebuilds only what ``NetworkState.changed_at`` says moved
(``repro.allocation.svc_homogeneous``).  Every service path now goes through
those kept tables, batched or not, so comparing two service runs no longer
proves anything about them.  This drill compares against a reference that
keeps nothing and shares no DP code with production: the seed recursion of
``tests/reference`` (imported through the repo root, which this script puts
on ``sys.path``).

The drill: two tenants walk a small menu of shapes in interleaved bursts —
the repeated-shape traffic the kept tables exist for — with resizes (both the
in-place and the release + re-admit path) and releases in between.  The one
op stream is replayed on two managers, one with a single long-lived
production allocator, one with the seed DP.  After every op the decision
(host, placement, ``max_occupancy``) and the serialized network state must be
identical; the first difference fails the run.

``--cold`` replays the opposite traffic: a fresh ``(n, sigma/mu)`` and request
kind on every op, as the e2e ``paper-mixed`` workload draws them, so no kept
table is ever reused and every call is one level walk from the machines up —
once for each allocator that rides on it (Algorithm 1, adapted TIVC, Oktopus,
global min-max), each against the seed traversal with its options — and
once for the substring heuristic (``svc-het`` against the seed substring
heuristic) on fresh per-VM demand vectors, where a reject is either proved
at the machine links before any table is built or decided by the tables:
both must occur.

Usage (repo root)::

    PYTHONPATH=src python scripts/check_incremental_dp.py --scale small
    PYTHONPATH=src python scripts/check_incremental_dp.py --scale small --bursts 60
    PYTHONPATH=src python scripts/check_incremental_dp.py --scale small --cold
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # for tests.reference

from repro.abstractions import DeterministicVC, HeterogeneousSVC, HomogeneousSVC
from repro.allocation.svc_het_heuristic import SVCHeterogeneousAllocator
from repro.allocation.svc_homogeneous import (
    AdaptedTIVCAllocator,
    GlobalMinMaxAllocator,
    OktopusAllocator,
    SVCHomogeneousAllocator,
)
from repro.experiments.common import resolve_scale, simulation_rng
from repro.manager.network_manager import RESIZE_IN_PLACE, RESIZE_REPLACED, NetworkManager
from repro.obs.instruments import (
    REASON_NO_FEASIBLE_MACHINE_LINK,
    REASON_NO_FEASIBLE_SUBTREE,
    global_registry,
)
from repro.service.codec import network_state_to_dict
from repro.stochastic import Normal
from repro.topology.builder import build_datacenter
from tests.reference import SeedSubstringHeuristic, SeedTreeSearch

SIZES = (4, 8, 12, 16, 24)
RATES = (100.0, 200.0, 300.0)
BURST = 8
COLD_RATES = (100.0, 200.0, 300.0, 400.0, 500.0)  # Section VI-A mean rates

#: name -> (the production allocator, its seed traversal, the requests it is sent:
#: SVCs and VCs seven to three, VCs only, or heterogeneous SVCs only)
ALLOCATORS = {
    "svc-dp": (SVCHomogeneousAllocator, lambda: SeedTreeSearch(optimize=True), "mixed"),
    "tivc": (AdaptedTIVCAllocator, lambda: SeedTreeSearch(optimize=False), "mixed"),
    "oktopus": (OktopusAllocator, lambda: SeedTreeSearch(optimize=False), "vc"),
    "svc-global": (
        GlobalMinMaxAllocator, lambda: SeedTreeSearch(optimize=True, localize=False), "mixed"
    ),
    "svc-het": (SVCHeterogeneousAllocator, SeedSubstringHeuristic, "het"),
}


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


def record_cold_stream(rng, count: int, fill: float, total_slots: int, scale, traffic: str):
    """The same op kinds, but no two submits share a shape (``traffic``
    "mixed": seven in ten are SVCs, the rest deterministic VCs; "vc": all VCs;
    "het": all heterogeneous, a Section VI-A rate per VM and one ``sigma/mu``
    per request, as the e2e generator draws them)."""
    ops = []
    for index in range(count):
        n = int(min(scale.max_job_size, max(2, round(rng.exponential(scale.mean_job_size)))))
        mean = float(rng.choice(COLD_RATES))
        ratio = float(rng.random())
        if traffic == "het":
            demands = tuple(Normal(rate, ratio * rate) for rate in rng.choice(COLD_RATES, size=n))
            ops.append(("submit", HeterogeneousSVC(n_vms=n, demands=demands)))
        elif traffic == "vc" or rng.random() < 0.3:
            ops.append(("submit", DeterministicVC(n_vms=n, bandwidth=mean)))
        else:
            ops.append(("submit", HomogeneousSVC(n_vms=n, mean=mean, std=ratio * mean)))
        if rng.random() < 0.15:
            ops.append(("resize", int(rng.integers(1 << 16)), int(rng.integers(-3, 4))))
        if index % BURST == BURST - 1:
            ops.append(("drain", int(fill * total_slots)))
    return ops


def describe(tenancy):
    allocation = tenancy.allocation
    return (
        allocation.request_id,
        allocation.host_node,
        sorted(allocation.machine_counts.items()),
        sorted((allocation.machine_vms or {}).items()),  # which VM where, if told apart
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


def replay(tree, ops, make_kept, make_seed, label: str):
    """One op stream on a production and a seed manager; the tally, or None on a difference."""
    kept = NetworkManager(tree, epsilon=0.05, allocator=make_kept())
    seed = NetworkManager(tree, epsilon=0.05, allocator=make_seed())
    live = []
    tally = {"admitted": 0, "rejected": 0, "released": 0, RESIZE_IN_PLACE: 0,
             RESIZE_REPLACED: 0, "resize_rejected": 0}
    for index, op in enumerate(ops):
        got, want = apply(kept, op, live), apply(seed, op, live)
        if got != want:
            log(f"FAIL ({label}) at op {index} {op}: production decided {got}, seed DP {want}")
            return None
        if network_state_to_dict(kept.state) != network_state_to_dict(seed.state):
            log(f"FAIL ({label}) at op {index} {op}: link state diverged from the seed DP's")
            return None
        if op[0] == "submit":
            tally["admitted" if got is not None else "rejected"] += 1
            if got is not None:
                live.append(got[0])
        elif op[0] == "resize" and got != "idle":
            tally[got[0] if got[0] != "rejected" else "resize_rejected"] += 1
        elif op[0] == "drain":
            tally["released"] += len(got[1])
            del live[: len(got[1])]
    return tally


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="small")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bursts", type=int, default=30)
    parser.add_argument("--cold", action="store_true",
                        help="a fresh shape and kind per op, through all four allocators")
    parser.add_argument("--fill", type=float, default=0.5,
                        help="share of the slots the releases drain back to")
    args = parser.parse_args()

    scale = resolve_scale(args.scale)
    tree = build_datacenter(scale.spec)
    for name in ALLOCATORS if args.cold else ["svc-dp"]:
        make_kept, make_seed, traffic = ALLOCATORS[name]
        rng = simulation_rng(args.seed)
        if args.cold:
            ops = record_cold_stream(
                rng, args.bursts * BURST, args.fill, tree.total_slots, scale, traffic
            )
            paths = ("admitted", "rejected", "released", RESIZE_IN_PLACE)
        else:
            ops = record_stream(rng, args.bursts, args.fill, tree.total_slots)
            paths = ("admitted", "released", RESIZE_IN_PLACE, RESIZE_REPLACED)
        tally = replay(tree, ops, make_kept, make_seed, name)
        if tally is None:
            return 1
        performed = sum(tally.values())
        if performed < 300 or not all(tally[path] for path in paths):
            log(f"FAIL ({name}): the stream did not exercise every path ({performed} ops: {tally})")
            return 1
        if name == "svc-het":
            rejects = {}
            for reason in (REASON_NO_FEASIBLE_MACHINE_LINK, REASON_NO_FEASIBLE_SUBTREE):
                child = global_registry().get(
                    "repro_admission_rejected_total", allocator=name, reason=reason
                )
                rejects[reason] = int(child.value) if child is not None else 0
            if not all(rejects.values()):
                log(f"FAIL ({name}): rejects were not both proved at the machine links "
                    f"and decided by the tables ({rejects})")
                return 1
            tally.update(rejects)
        log(
            f"OK ({name}): {performed} ops ({tally}); every decision and link state "
            "identical to the seed DP"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
