"""Cluster chaos: seeded kill/recover schedules over coordinator + shards.

The single-node harness (:mod:`repro.faults.harness`) proves the admission
service survives crashes; this module proves the *composition* does.  One
schedule (:func:`run_cluster_chaos_schedule`) drives a coordinator over K
journaled :class:`~repro.cluster.shard.LocalShard` instances through a
random admit/release workload while a seeded fault plan fires — the
single-node plan's journal faults hit the shard WALs unchanged (the hooks
are compiled into ``Journal``), and about half the crashing schedules move
the crash site into the coordinator's two-phase protocol
(``FP_COORD_*``: before the WAL append, after the ledger reserve, before
and after the commit record).

After the run everything is torn down and rebuilt from disk, and the
referee checks the cluster-level contract:

1. **per-shard truth**: every shard's recovered state equals its own
   journal's :func:`~repro.service.recovery.oracle_replay`, exactly — a
   shard inside a cluster inherits the single-node guarantee verbatim;
2. **coordinator coherence**: every fragment the coordinator accounts for
   is active on its shard, every shard tenancy is accounted for (no
   orphans after the recovery sweep), and the replica tenant count
   matches;
3. **no reservation leaks, one true copy**: zero pending reservations
   after recovery, and on every core link the replica's running sums
   (``mean_total``, ``var_total``, ``deterministic_total`` — the only
   record of committed core-link load) equal the footprint recomputed from
   scratch over the replica's tenancies;
4. **no acked admission lost, no acked release resurrected** — judged at
   the coordinator's global ids;
5. ``O_L < 1`` on every link of every shard, on the replica, and on the
   ledger (Eq. 4 survives recovery);
6. **retries converge without double-admits**: each in-flight (unacked)
   key is resubmitted twice against the recovered cluster; both calls
   must return the same decision and admit at most one new tenancy, then
   the referee re-runs to confirm the retried state is still coherent.

Failures are collected, not raised, so the CLI can report the seed —
every schedule is a pure function of it.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.cluster.coordinator import ClusterCoordinator, CoordinatorError
from repro.cluster.ledger import core_demands_of
from repro.cluster.partition import ClusterPartition
from repro.cluster.shard import LocalShard
from repro.experiments.config import SCALES
from repro.faults.failpoints import (
    FAILPOINTS,
    FP_COORD_AFTER_COMMIT,
    FP_COORD_AFTER_RESERVE,
    FP_COORD_BEFORE_COMMIT,
    FP_COORD_BEFORE_WAL,
    MODE_CRASH,
    InjectedCrash,
)
from repro.faults.harness import random_request
from repro.faults.schedule import ChaosPlan
from repro.service.codec import network_state_to_dict
from repro.service.degrade import DegradationLadder
from repro.service.errors import DegradedError, ServiceError
from repro.service.recovery import oracle_replay

#: Crash sites inside the coordinator's two-phase protocol.
CLUSTER_CRASH_SITES = (
    FP_COORD_BEFORE_WAL,
    FP_COORD_AFTER_RESERVE,
    FP_COORD_BEFORE_COMMIT,
    FP_COORD_AFTER_COMMIT,
)

_DECISION_TIMEOUT_S = 5.0

#: The replica's per-link sums are kept incrementally across adopts and
#: releases, so they must agree with a fresh recomputation to float-sum
#: noise only.
_SUM_TOLERANCE = 1e-6
#: ``LinkState`` running sum -> the ``CoreDemand`` field it accumulates.
_LINK_SUMS = (
    ("mean_total", "mean"),
    ("var_total", "variance"),
    ("deterministic_total", "deterministic"),
)


def cluster_chaos_plan(seed: int, operations: int = 40) -> ChaosPlan:
    """The single-node plan, with ~half the crashes moved into the coordinator."""
    plan = ChaosPlan.generate(seed, operations=operations)
    rng = random.Random(seed ^ 0xC10C)
    if plan.crash_site is not None and rng.random() < 0.5:
        site = rng.choice(CLUSTER_CRASH_SITES)
        for arming in plan.armings:
            if arming.get("mode") == MODE_CRASH and arming.get("name") == plan.crash_site:
                arming["name"] = site
                break
        plan.crash_site = site
    return plan


@dataclass
class ClusterChaosResult:
    """Outcome of one cluster schedule: the ledger plus every violation."""

    seed: int
    plan: ChaosPlan
    shards: int = 2
    crashed: bool = False
    operations_run: int = 0
    acked_admits: int = 0
    acked_releases: int = 0
    cross_shard_admits: int = 0
    shed: int = 0
    degraded_hits: int = 0
    unacked_keys: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def describe(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "shards": self.shards,
            "crashed": self.crashed,
            "operations_run": self.operations_run,
            "acked_admits": self.acked_admits,
            "acked_releases": self.acked_releases,
            "cross_shard_admits": self.cross_shard_admits,
            "shed": self.shed,
            "degraded_hits": self.degraded_hits,
            "unacked_keys": self.unacked_keys,
            "failures": list(self.failures),
            "plan": self.plan.describe(),
        }


def _workload_request(rng: random.Random, shard_slots: int):
    """Mostly single-shard-sized tenants, with a fat tail that cannot fit
    in one shard once the cluster warms up — those exercise the two-phase
    cross-shard path."""
    if rng.random() < 0.25:
        from repro.abstractions import HomogeneousSVC

        n_vms = rng.randint(max(4, shard_slots // 3), max(6, shard_slots // 2))
        return HomogeneousSVC(
            n_vms=n_vms, mean=rng.uniform(30, 120), std=rng.uniform(5, 40)
        )
    return random_request(rng)


def _build_cluster(
    partition: ClusterPartition,
    directory: Path,
    snapshot_every: int,
    fsync: bool,
):
    """Shards first (they recover themselves), then the coordinator."""
    shards = [
        LocalShard(
            view,
            directory / f"shard-{view.shard_index}",
            fsync=fsync,
            snapshot_every=snapshot_every,
            degradation=DegradationLadder(probe_interval=0.02),
            decision_timeout_s=_DECISION_TIMEOUT_S,
        )
        for view in partition.shards
    ]
    coordinator = ClusterCoordinator(
        partition,
        shards,
        directory=directory,
        fsync=fsync,
        decision_timeout_s=_DECISION_TIMEOUT_S,
    )
    return shards, coordinator


def _referee(
    result: ClusterChaosResult,
    partition: ClusterPartition,
    shards: List[LocalShard],
    coordinator: ClusterCoordinator,
    acked_active: Dict[str, int],
    acked_released: List[int],
    stage: str,
) -> None:
    """Check the cluster-level contract on a recovered (or retried) cluster."""
    # 1. Per-shard truth: recovered state == that shard's oracle replay.
    for shard in shards:
        try:
            oracle_state, oracle_active = oracle_replay(
                shard.store.wal_path, shard.view.tree
            )
        except Exception as exc:  # noqa: BLE001 — referee collects, never raises
            result.fail(
                f"[{stage}] shard {shard.index} oracle replay raised "
                f"{type(exc).__name__}: {exc}"
            )
            continue
        if network_state_to_dict(shard.manager.state) != network_state_to_dict(
            oracle_state
        ):
            result.fail(
                f"[{stage}] shard {shard.index} state differs from oracle replay"
            )
        live = sorted(t.request_id for t in shard.manager.tenancies())
        if live != sorted(oracle_active):
            result.fail(
                f"[{stage}] shard {shard.index} active set diverges: "
                f"live={live} oracle={sorted(oracle_active)}"
            )

    # 2. Coordinator coherence: fragments <-> shard tenancies, both ways.
    shard_active = {
        shard.index: set(shard.active_allocations()) for shard in shards
    }
    accounted = {shard.index: set() for shard in shards}
    for gid in list(coordinator._gid_map):
        for shard_index, srid in coordinator._gid_map[gid].items():
            if srid not in shard_active[shard_index]:
                result.fail(
                    f"[{stage}] gid {gid} fragment {srid} missing on "
                    f"shard {shard_index}"
                )
            accounted[shard_index].add(srid)
    for shard_index, active in shard_active.items():
        orphans = active - accounted[shard_index]
        if orphans:
            result.fail(
                f"[{stage}] shard {shard_index} holds unaccounted tenancies "
                f"{sorted(orphans)}"
            )
    if coordinator.replica.active_tenancies != len(coordinator._gid_map):
        result.fail(
            f"[{stage}] replica holds {coordinator.replica.active_tenancies} "
            f"tenancies, coordinator maps {len(coordinator._gid_map)}"
        )

    # 3. No reservation leaks; the replica's core-link sums equal a
    # from-scratch recomputation over its tenancies.
    if coordinator.ledger.pending_reservations != 0:
        result.fail(
            f"[{stage}] {coordinator.ledger.pending_reservations} reservations "
            "leaked past recovery"
        )
    tenancies = list(coordinator.replica.tenancies())
    for link_id in partition.core_link_ids:
        demands = [
            demand
            for tenancy in tenancies
            for demand in core_demands_of(tenancy.allocation, (link_id,)).values()
        ]
        link_state = coordinator.replica.state.links[link_id]
        for component, part in _LINK_SUMS:
            have = getattr(link_state, component)
            want = sum(getattr(demand, part) for demand in demands)
            if abs(have - want) > _SUM_TOLERANCE:
                result.fail(
                    f"[{stage}] replica {component} on core link {link_id} is "
                    f"{have}, its tenancies sum to {want}"
                )

    # 4. Acked admits survive; acked releases stay released.
    for key, gid in acked_active.items():
        if gid not in coordinator._gid_map:
            result.fail(f"[{stage}] acked admission lost: {key} (gid {gid})")
    for gid in acked_released:
        if gid in coordinator._gid_map:
            result.fail(f"[{stage}] acked release resurrected: gid {gid}")

    # 5. Eq. 4 everywhere.
    for shard in shards:
        occupancy = shard.manager.max_occupancy()
        if not occupancy < 1.0:
            result.fail(
                f"[{stage}] shard {shard.index} occupancy violates O_L < 1: "
                f"{occupancy}"
            )
    if not coordinator.replica.max_occupancy() < 1.0:
        result.fail(
            f"[{stage}] replica occupancy violates O_L < 1: "
            f"{coordinator.replica.max_occupancy()}"
        )
    if not coordinator.ledger.max_occupancy() < 1.0:
        result.fail(
            f"[{stage}] ledger occupancy violates O_L < 1: "
            f"{coordinator.ledger.max_occupancy()}"
        )


def run_cluster_chaos_schedule(
    seed: int,
    directory: Path,
    shards: int = 2,
    scale: str = "tiny",
    operations: int = 40,
    snapshot_every: int = 5,
) -> ClusterChaosResult:
    """Run one seeded cluster fault schedule end to end (module docstring)."""
    plan = cluster_chaos_plan(seed, operations=operations)
    result = ClusterChaosResult(seed=seed, plan=plan, shards=shards)
    rng = random.Random(seed ^ 0x5EED)
    spec = SCALES[scale].spec
    partition = ClusterPartition.build(spec, shards)
    shard_slots = partition.shards[0].total_slots
    directory = Path(directory)
    if directory.exists():
        shutil.rmtree(directory)

    # ---- phase 1: faulty workload -----------------------------------
    plan.arm(FAILPOINTS)
    shard_list, coordinator = _build_cluster(
        partition, directory, snapshot_every, plan.fsync
    )
    acked_active: Dict[str, int] = {}  # idempotency key -> global request id
    acked_released: List[int] = []
    unacked: Dict[str, Any] = {}
    try:
        for index in range(operations):
            result.operations_run = index + 1
            if acked_active and rng.random() < 0.3:
                key, gid = rng.choice(sorted(acked_active.items()))
                try:
                    if coordinator.release(gid):
                        del acked_active[key]
                        acked_released.append(gid)
                        result.acked_releases += 1
                except InjectedCrash:
                    # Indeterminate: some fragments may be gone, the WAL
                    # record may be missing.  Neither invariant may assert
                    # this tenancy; recovery must settle it either way.
                    del acked_active[key]
                    result.crashed = True
                    break
                except (CoordinatorError, ServiceError):
                    # The coordinator refused to ack (release not durable
                    # anywhere) — same indeterminate treatment, but the
                    # cluster is still up, so keep driving.
                    del acked_active[key]
                    continue
            else:
                key = f"cluster-{seed}-{index}"
                request = _workload_request(rng, shard_slots)
                try:
                    decision = coordinator.submit(request, idempotency_key=key)
                except InjectedCrash:
                    unacked[key] = request
                    result.crashed = True
                    break
                except DegradedError:
                    result.degraded_hits += 1
                    continue
                except (CoordinatorError, ServiceError):
                    # Shard died mid-decision, queue shed, or transport
                    # failure: the outcome is unknown -> retry material.
                    unacked[key] = request
                    result.shed += 1
                    if any(not shard.alive for shard in shard_list):
                        result.crashed = True
                        break
                    continue
                if decision["outcome"] == "admitted":
                    gid = decision["request_id"]
                    acked_active[key] = gid
                    result.acked_admits += 1
                    fragments = coordinator.fragments_of(gid)
                    if fragments is not None and len(fragments) > 1:
                        result.cross_shard_admits += 1
    finally:
        for shard in shard_list:
            try:
                shard.kill()
            except Exception:  # noqa: BLE001 — teardown must reach every shard
                pass
        coordinator.kill()
        FAILPOINTS.clear()
    result.unacked_keys = len(unacked)

    # ---- phase 2: recover everything and referee --------------------
    try:
        shard_list, coordinator = _build_cluster(
            partition, directory, snapshot_every, fsync=False
        )
    except Exception as exc:  # noqa: BLE001 — a recovery crash is the finding
        result.fail(f"cluster recovery raised {type(exc).__name__}: {exc}")
        return result
    try:
        _referee(
            result, partition, shard_list, coordinator,
            acked_active, acked_released, stage="recovered",
        )

        # ---- phase 3: retries converge, no double admits ------------
        for key, request in sorted(unacked.items()):
            journaled = dict(coordinator._idem.get(key) or {})
            active_before = coordinator.replica.active_tenancies
            try:
                first = coordinator.submit(request, idempotency_key=key)
                second = coordinator.submit(request, idempotency_key=key)
            except (CoordinatorError, ServiceError) as exc:
                result.fail(f"retry of {key} failed on a healthy cluster: {exc}")
                continue
            if (first["outcome"], first["request_id"]) != (
                second["outcome"], second["request_id"]
            ):
                result.fail(
                    f"retries of {key} diverged: "
                    f"{first['outcome']}/{first['request_id']} vs "
                    f"{second['outcome']}/{second['request_id']}"
                )
            delta = coordinator.replica.active_tenancies - active_before
            if journaled:
                if first["outcome"] != journaled.get("outcome"):
                    result.fail(
                        f"retry of journaled {key} returned {first['outcome']}, "
                        f"coordinator WAL says {journaled.get('outcome')}"
                    )
                if delta != 0:
                    result.fail(f"retry of journaled {key} double-admitted")
            elif first["outcome"] == "admitted" and delta != 1:
                result.fail(
                    f"fresh retry of {key} admitted {delta} tenancies"
                )
            if first["outcome"] == "admitted":
                acked_active[key] = first["request_id"]

        # ---- phase 4: the retried cluster must still referee clean --
        _referee(
            result, partition, shard_list, coordinator,
            acked_active, acked_released, stage="post-retry",
        )
    finally:
        for shard in shard_list:
            try:
                shard.stop()
            except Exception:  # noqa: BLE001
                pass
        coordinator.stop()
    return result


def run_cluster_chaos_suite(
    schedules: int,
    base_seed: int,
    workdir: Path,
    shards: int = 2,
    scale: str = "tiny",
    operations: int = 40,
    stop_on_failure: bool = False,
    progress=None,
) -> List[ClusterChaosResult]:
    """Run ``schedules`` consecutive seeds; returns every result."""
    results: List[ClusterChaosResult] = []
    workdir = Path(workdir)
    for index in range(schedules):
        seed = base_seed + index
        result = run_cluster_chaos_schedule(
            seed,
            workdir / f"schedule-{seed}",
            shards=shards,
            scale=scale,
            operations=operations,
        )
        results.append(result)
        if progress is not None:
            progress(result)
        if stop_on_failure and not result.ok:
            break
    return results
