"""The chaos runner: randomized fault schedules vs the recovery oracle.

One schedule (:func:`run_schedule`) runs the same phases against whichever
system it is handed — the single-node journaled
:class:`~repro.service.concurrency.AdmissionService` (:class:`NodeSystem`,
here) or the coordinator over journaled shards
(:class:`~repro.cluster.chaos.ClusterSystem`):

plan → arm → drive a seeded admit/release workload while the plan's faults
fire (transient journal errors, torn writes, corrupt snapshots, forced
queue saturation and, in most schedules, one planted crash) → kill →
recover from disk → referee → retry each unacked key twice → referee again.

While driving, the runner keeps the client-side **acked ledger**: which
admissions and releases were acknowledged, and which submissions were in
flight (outcome unknown) when the system died.  A system supplies only
what really differs: how it is built, killed and recovered; how a submit
or release ends as the client sees it (:class:`Ack`); whether it died; its
pause after a degraded refusal; the journaled decision for a key; and its
own extra checks.

The shared referee (:func:`referee`) checks, after recovery and again
after the retries:

1. every journal's live state and active set equal its
   :func:`~repro.service.recovery.oracle_replay`, the single-threaded
   from-scratch replay of the whole journal — the systems archive the WAL
   segments their checkpoints retire, so the referee reads every record
   since seq 1;
2. the system's own checks (the cluster's: fragment coherence, no leaked
   reservation, the replica's core-link sums);
3. **no acknowledged admission is lost** and **no acknowledged release is
   resurrected**;
4. ``O_L < 1`` on every manager the system reports.

In between, :func:`retry_unacked` resubmits each in-flight key twice with
its original idempotency key: both calls must give the same decision; a
key the journal already decided (the crash fell after the append, so only
the ack was lost) returns its journaled outcome and id and allocates
nothing; a fresh admit adds exactly one tenancy.  Retried admits join the
acked ledger.

Failures are collected, not raised, so the CLIs can report the seed —
every schedule is a pure function of it.
"""

from __future__ import annotations

import enum
import random
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional

from repro.abstractions import DeterministicVC, HeterogeneousSVC, HomogeneousSVC
from repro.faults.failpoints import FAILPOINTS, InjectedCrash
from repro.faults.schedule import ChaosPlan
from repro.manager.network_manager import NetworkManager
from repro.service.codec import network_state_to_dict
from repro.service.concurrency import OUTCOME_ADMITTED, AdmissionService
from repro.service.degrade import DegradationLadder
from repro.service.errors import DegradedError, ServiceError
from repro.service.journal import ArchivingStore, KeyEntry, archived_segments
from repro.service.recovery import oracle_replay, recover_manager
from repro.stochastic import Normal
from repro.topology.builder import SCALE_SPECS, build_datacenter

#: How long a client waits for one decision before giving up on it (the
#: planted crashes resolve in milliseconds).
DECISION_TIMEOUT_S = 5.0


def random_request(rng: random.Random):
    """One random tenant request (mirrors the recovery-test workload)."""
    kind = rng.randrange(3)
    n_vms = rng.randint(2, 9)
    if kind == 0:
        return DeterministicVC(n_vms=n_vms, bandwidth=rng.uniform(40, 200))
    if kind == 1:
        return HomogeneousSVC(
            n_vms=n_vms, mean=rng.uniform(40, 200), std=rng.uniform(5, 80)
        )
    return HeterogeneousSVC(
        n_vms=n_vms,
        demands=tuple(
            Normal(rng.uniform(40, 200), rng.uniform(5, 60)) for _ in range(n_vms)
        ),
    )


def cluster_request(rng: random.Random, shard_slots: int):
    """Mostly single-shard-sized tenants, with a fat tail that cannot fit
    in one shard once the cluster warms up — those exercise the two-phase
    cross-shard path."""
    if rng.random() < 0.25:
        n_vms = rng.randint(max(4, shard_slots // 3), max(6, shard_slots // 2))
        return HomogeneousSVC(
            n_vms=n_vms, mean=rng.uniform(30, 120), std=rng.uniform(5, 40)
        )
    return random_request(rng)


class Ack(enum.Flag):
    """How one submit or release ended, as the client saw it."""

    NONE = 0  # answered, nothing to record (a release of an unknown id)
    ACKED = enum.auto()  # decided and acknowledged
    SHED = enum.auto()  # refused, counted as shed
    DEGRADED = enum.auto()  # refused by the degradation ladder
    UNKNOWN = enum.auto()  # may or may not have applied: retry material


class Reply(NamedTuple):
    """A submit's :class:`Ack`, plus the decision when it was acked."""

    ack: Ack
    outcome: Optional[str] = None
    request_id: Optional[int] = None
    spans: int = 0  # shards an admitted tenancy spans


@dataclass
class Ledger:
    """What the client saw acknowledged; the referee judges recovery by it."""

    acked_active: Dict[str, int] = field(default_factory=dict)  # key -> id
    acked_released: List[int] = field(default_factory=list)
    unacked: Dict[str, Any] = field(default_factory=dict)  # key -> request


@dataclass
class ChaosResult:
    """Outcome of one schedule: the ledger's counters plus every violation."""

    seed: int
    plan: ChaosPlan
    shards: Optional[int] = None
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
        return {**asdict(self), "ok": self.ok, "plan": self.plan.describe()}


class NodeSystem:
    """One journaled single-worker :class:`AdmissionService`."""

    key_prefix = "chaos"
    shards: Optional[int] = None
    #: Gives the degradation ladder's probe a chance to climb back.
    degraded_pause_s = 0.03

    def __init__(self, scale: str = "tiny") -> None:
        self.tree = build_datacenter(SCALE_SPECS[scale])

    def plan(self, seed: int, operations: int) -> ChaosPlan:
        return ChaosPlan.generate(seed, operations=operations)

    def request(self, rng: random.Random):
        return random_request(rng)

    def start(self, directory: Path, snapshot_every: int, fsync: bool) -> None:
        self.directory, self.snapshot_every = directory, snapshot_every
        self.store = ArchivingStore(directory, fsync=fsync, snapshot_every=snapshot_every)
        self._serve(NetworkManager(self.tree))

    def _serve(self, manager: NetworkManager, idempotency_index=None) -> None:
        self.manager = manager
        self.service = AdmissionService(
            manager,
            store=self.store,
            workers=1,
            degradation=DegradationLadder(probe_interval=0.02),
            idempotency_index=idempotency_index,
        ).start()

    def kill(self) -> None:
        self.service.kill()
        self.store.close()

    def recover(self) -> None:
        self.store = ArchivingStore(self.directory, snapshot_every=self.snapshot_every)
        try:
            manager, report = recover_manager(self.store, self.tree)
        except Exception:
            self.store.close()
            raise
        self._serve(manager, report.idempotency_index)

    def stop(self) -> None:
        self.service.stop()
        self.store.close()

    def submit(self, key: str, request) -> Reply:
        try:
            ticket = self.service.submit(
                request, wait=True, wait_timeout=DECISION_TIMEOUT_S,
                idempotency_key=key,
            )
        except DegradedError:
            return Reply(Ack.DEGRADED)
        except ServiceError:
            return Reply(Ack.SHED)
        if not ticket.done:
            return Reply(Ack.UNKNOWN)
        return Reply(Ack.ACKED, ticket.outcome, ticket.request_id, spans=1)

    def release(self, request_id: int) -> Ack:
        try:
            return Ack.ACKED if self.service.release(request_id) else Ack.NONE
        except DegradedError:
            # Shed or rolled back: still active, and acknowledged as such.
            return Ack.DEGRADED
        except ServiceError:
            return Ack.SHED

    def died(self) -> bool:
        return self.service.crashed

    def journaled(self, key: str) -> Optional[KeyEntry]:
        return self.service.lookup_idempotency(key)

    def active_count(self) -> int:
        return self.manager.active_tenancies

    def journals(self):
        """``(label, never-compacted segments, tree, live manager)`` per journal."""
        return [("node", archived_segments(self.store.wal_path), self.tree, self.manager)]

    def live_ids(self) -> set:
        return {tenancy.request_id for tenancy in self.manager.tenancies()}

    def occupancies(self):
        return [("node", self.manager.max_occupancy())]

    def check(self, fail) -> None:
        """Nothing beyond the shared referee."""


def run_schedule(
    seed: int,
    directory: Path,
    system,
    operations: int = 40,
    snapshot_every: int = 5,
) -> ChaosResult:
    """Run one seeded fault schedule end to end; see the module docstring."""
    plan = system.plan(seed, operations=operations)
    result = ChaosResult(seed=seed, plan=plan, shards=system.shards)
    rng = random.Random(seed ^ 0x5EED)
    directory = Path(directory)
    if directory.exists():
        shutil.rmtree(directory)
    ledger = Ledger()

    # ---- phase 1: faulty workload, keeping the acked ledger ---------
    plan.arm(FAILPOINTS)
    system.start(directory, snapshot_every, plan.fsync)
    try:
        _drive(system, seed, operations, rng, result, ledger)
    finally:
        system.kill()
        FAILPOINTS.clear()
    result.unacked_keys = len(ledger.unacked)

    # ---- phase 2: recover from disk and referee ---------------------
    try:
        system.recover()
    except Exception as exc:  # noqa: BLE001 — a recovery crash is the finding
        result.fail(f"recovery raised {type(exc).__name__}: {exc}")
        return result
    try:
        result.failures += referee(system, ledger, "recovered")
        # ---- phase 3: retries converge, no double admits ------------
        result.failures += retry_unacked(system, ledger)
        # ---- phase 4: the retried system must still referee clean ---
        result.failures += referee(system, ledger, "post-retry")
    finally:
        system.stop()
    return result


def _drive(system, seed, operations, rng, result: ChaosResult, ledger: Ledger) -> None:
    """The seeded workload; stops at the first crash (or hang)."""
    acked = ledger.acked_active
    for index in range(operations):
        result.operations_run = index + 1
        crashed = False
        if acked and rng.random() < 0.3:
            key, request_id = rng.choice(sorted(acked.items()))
            try:
                ack = system.release(request_id)
            except InjectedCrash:
                ack, crashed = Ack.UNKNOWN, True
            if ack & Ack.ACKED:
                del acked[key]
                ledger.acked_released.append(request_id)
                result.acked_releases += 1
            elif ack & Ack.UNKNOWN:
                # The release may or may not be durable: this tenancy's
                # fate is indeterminate, so neither invariant may assert it.
                del acked[key]
        else:
            key = f"{system.key_prefix}-{seed}-{index}"
            request = system.request(rng)
            try:
                reply = system.submit(key, request)
            except InjectedCrash:
                reply, crashed = Reply(Ack.UNKNOWN), True
            ack = reply.ack
            if ack & Ack.ACKED and reply.outcome == OUTCOME_ADMITTED:
                acked[key] = reply.request_id
                result.acked_admits += 1
                if reply.spans > 1:
                    result.cross_shard_admits += 1
            elif ack & Ack.UNKNOWN:
                ledger.unacked[key] = request
                # Not even a refusal came back, yet nothing died.
                if not (ack & Ack.SHED or crashed or system.died()):
                    result.fail(
                        f"submit of {key} hung >{DECISION_TIMEOUT_S}s without a crash"
                    )
                    return
        if ack & Ack.SHED:
            result.shed += 1
        if ack & Ack.DEGRADED:
            result.degraded_hits += 1
            time.sleep(system.degraded_pause_s)
        if ack & Ack.UNKNOWN and (crashed or system.died()):
            result.crashed = True
            return


def referee(system, ledger: Ledger, stage: str) -> List[str]:
    """Every check both suites share (module docstring), at one stage."""
    failures: List[str] = []

    def fail(message: str) -> None:
        failures.append(f"[{stage}] {message}")

    for label, segments, tree, manager in system.journals():
        try:
            oracle_state, oracle_active = oracle_replay(segments, tree)
        except Exception as exc:  # noqa: BLE001 — the referee collects, never raises
            fail(f"{label} oracle replay raised {type(exc).__name__}: {exc}")
            continue
        if network_state_to_dict(manager.state) != network_state_to_dict(oracle_state):
            fail(f"{label} state differs from oracle replay")
        live = sorted(tenancy.request_id for tenancy in manager.tenancies())
        if live != sorted(oracle_active):
            fail(
                f"{label} active set diverges: live={live} "
                f"oracle={sorted(oracle_active)}"
            )
    system.check(fail)
    live_ids = system.live_ids()
    for key, request_id in ledger.acked_active.items():
        if request_id not in live_ids:
            fail(f"acked admission lost: {key} (id {request_id})")
    for request_id in ledger.acked_released:
        if request_id in live_ids:
            fail(f"acked release resurrected: id {request_id}")
    for label, occupancy in system.occupancies():
        if not occupancy < 1.0:
            fail(f"{label} occupancy violates O_L < 1: {occupancy}")
    return failures


def retry_unacked(system, ledger: Ledger) -> List[str]:
    """Resubmit every in-flight key twice; the retries must converge."""
    failures: List[str] = []
    for key, request in sorted(ledger.unacked.items()):
        journaled = system.journaled(key)
        active_before = system.active_count()
        first = system.submit(key, request)
        second = system.submit(key, request)
        if not first.ack == second.ack == Ack.ACKED:
            failures.append(f"retry of {key} did not decide: {first.ack}, {second.ack}")
            continue
        if (first.outcome, first.request_id) != (second.outcome, second.request_id):
            failures.append(
                f"retries of {key} diverged: {first.outcome}/{first.request_id} "
                f"vs {second.outcome}/{second.request_id}"
            )
        delta = system.active_count() - active_before
        if journaled:
            # Only the ack was lost: the retry must return the journaled
            # decision and allocate nothing.
            if first.outcome != journaled.outcome:
                failures.append(
                    f"retry of journaled {key} returned {first.outcome}, "
                    f"journal says {journaled.outcome}"
                )
            elif (
                first.outcome == OUTCOME_ADMITTED
                and first.request_id != journaled.request_id
            ):
                failures.append(
                    f"retry of {key} got id {first.request_id}, "
                    f"journal holds {journaled.request_id}"
                )
            if delta != 0:
                failures.append(f"retry of journaled {key} double-admitted")
        elif first.outcome == OUTCOME_ADMITTED and delta != 1:
            failures.append(f"fresh retry of {key} admitted {delta} tenancies")
        if first.outcome == OUTCOME_ADMITTED:
            ledger.acked_active[key] = first.request_id
    return failures


def run_suite(
    schedules: int,
    base_seed: int,
    workdir: Path,
    system,
    operations: int = 40,
    stop_on_failure: bool = False,
    progress=None,
) -> List[ChaosResult]:
    """Run ``schedules`` consecutive seeds against ``system``; every result."""
    results: List[ChaosResult] = []
    for seed in range(base_seed, base_seed + schedules):
        result = run_schedule(
            seed, Path(workdir) / f"schedule-{seed}", system, operations=operations
        )
        results.append(result)
        if progress is not None:
            progress(result)
        if stop_on_failure and not result.ok:
            break
    return results
