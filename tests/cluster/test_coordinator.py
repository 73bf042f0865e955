"""Coordinator: routing, two-phase cross-shard admits, WAL recovery.

The anchor test here is :class:`TestSingleShardEquivalence` — with K=1 the
coordinator must produce bit-identical decisions (and an identical final
``NetworkState``) to a plain :class:`AdmissionService` over the same tree,
which is what makes the cluster layer a safe drop-in above the existing
single-node stack.
"""

import random
import threading

import pytest

from repro.abstractions import HomogeneousSVC
from repro.cluster.coordinator import ClusterCoordinator, CoordinatorError
from repro.cluster.partition import ClusterPartition
from repro.cluster.shard import LocalShard
from repro.cluster.coordinator import WAL_FILENAME
from repro.faults.failpoints import (
    FAILPOINTS,
    FP_COORD_BEFORE_COMMIT,
    FP_JOURNAL_WRITE,
    InjectedCrash,
)
from repro.manager.network_manager import NetworkManager
from repro.obs.flightrec import flight_recorder
from repro.service.codec import network_state_to_dict
from repro.service.concurrency import AdmissionService
from repro.service.errors import ConflictError, ServiceError
from repro.topology.builder import TINY_SPEC, build_datacenter


def small_request(n_vms=3, mean=40.0, std=8.0):
    return HomogeneousSVC(n_vms=n_vms, mean=mean, std=std)


def build_cluster(num_shards, directory=None, **kwargs):
    partition = ClusterPartition.build(TINY_SPEC, num_shards)
    shards = [
        LocalShard(
            view,
            None if directory is None else directory / f"shard{view.shard_index}",
        )
        for view in partition.shards
    ]
    coordinator = ClusterCoordinator(
        partition,
        shards,
        directory=None if directory is None else directory / "coordinator",
        **kwargs,
    )
    return partition, shards, coordinator


def shutdown(coordinator, shards):
    coordinator.stop()
    for shard in shards:
        shard.close()


def crash(coordinator, shards):
    """Drop everything without a drain; ``build_cluster`` on the same
    directory is then a restart (shards recover first, then the coordinator)."""
    coordinator.kill()
    for shard in shards:
        shard.close()


class TestLocalPath:
    def test_admit_then_release_leaves_clean_state(self):
        _partition, shards, coordinator = build_cluster(2)
        try:
            decision = coordinator.submit(small_request())
            assert decision["outcome"] == "admitted"
            assert decision["route"] == "local"
            gid = decision["request_id"]
            assert coordinator.active_tenancies == 1
            assert coordinator.fragments_of(gid) is not None
            assert coordinator.release(gid)
            assert not coordinator.release(gid)
            assert coordinator.active_tenancies == 0
            assert coordinator.replica.state.total_free_slots == (
                coordinator.replica.state.total_slots
            )
            for shard in shards:
                assert shard.stats()["active_tenancies"] == 0
        finally:
            shutdown(coordinator, shards)

    def test_idempotency_key_dedups(self):
        _partition, shards, coordinator = build_cluster(2)
        try:
            first = coordinator.submit(small_request(), idempotency_key="k1")
            again = coordinator.submit(small_request(), idempotency_key="k1")
            assert again["deduped"] is True
            assert again["request_id"] == first["request_id"]
            assert coordinator.active_tenancies == 1
        finally:
            shutdown(coordinator, shards)

    def test_a_key_in_flight_refuses_a_second_decision(self, monkeypatch):
        """One guard for every keyed op: while a decision for a key is in
        flight neither submit nor resize may start another with it."""
        _partition, shards, coordinator = build_cluster(1)
        entered, proceed = threading.Event(), threading.Event()
        shard_submit = shards[0].submit

        def slow_submit(*args, **kwargs):
            entered.set()
            assert proceed.wait(timeout=30.0)
            return shard_submit(*args, **kwargs)

        monkeypatch.setattr(shards[0], "submit", slow_submit)
        decisions = []
        worker = threading.Thread(
            target=lambda: decisions.append(
                coordinator.submit(small_request(), idempotency_key="k")
            )
        )
        try:
            worker.start()
            assert entered.wait(timeout=30.0)
            with pytest.raises(CoordinatorError, match="in flight"):
                coordinator.submit(small_request(), idempotency_key="k")
            with pytest.raises(CoordinatorError, match="in flight"):
                coordinator.resize(1, new_n=2, idempotency_key="k")
            proceed.set()
            worker.join(timeout=30.0)
            assert not worker.is_alive()
            (first,) = decisions
            assert first["outcome"] == "admitted"
            again = coordinator.submit(small_request(), idempotency_key="k")
            assert again["deduped"] is True
            assert again["request_id"] == first["request_id"]
            assert coordinator._inflight == set()
        finally:
            proceed.set()
            shutdown(coordinator, shards)

    def test_oversize_request_rejected(self):
        _partition, shards, coordinator = build_cluster(2)
        try:
            total = coordinator.replica.state.total_slots
            decision = coordinator.submit(small_request(n_vms=total + 1, mean=1.0))
            assert decision["outcome"] == "rejected"
            assert decision["route"] == "reject"
            assert coordinator.active_tenancies == 0
        finally:
            shutdown(coordinator, shards)


class TestCrossShardTwoPhase:
    def test_large_tenant_spans_both_shards(self):
        # Each TINY shard holds 32 slots; 40 VMs force fragmentation.
        partition, shards, coordinator = build_cluster(2)
        try:
            decision = coordinator.submit(
                small_request(n_vms=40, mean=8.0, std=2.0)
            )
            assert decision["outcome"] == "admitted"
            assert decision["route"] in ("cross_shard", "spill")
            gid = decision["request_id"]
            fragments = coordinator.fragments_of(gid)
            assert sorted(fragments) == [0, 1]
            # Both shard journals carry their fragment as an active tenancy.
            assert all(
                shard.stats()["active_tenancies"] == 1 for shard in shards
            )
            # The replica carries the committed core footprint...
            assert coordinator.allocation_of(gid) is not None
            assert 0.0 < coordinator.ledger.max_occupancy() < 1.0
            assert coordinator.ledger.pending_reservations == 0
            # ...and release drains every fragment plus the core-link load.
            assert coordinator.release(gid)
            assert coordinator.allocation_of(gid) is None
            assert coordinator.ledger.max_occupancy() == 0.0
            assert all(
                shard.stats()["active_tenancies"] == 0 for shard in shards
            )
        finally:
            shutdown(coordinator, shards)


class TestWalFailures:
    def test_radmit_wal_failure_rolls_back_the_shard(self, tmp_path):
        partition = ClusterPartition.build(TINY_SPEC, 2)
        # In-memory shards: the only Journal in play is the coordinator WAL.
        shards = [LocalShard(view, None) for view in partition.shards]
        coordinator = ClusterCoordinator(partition, shards, directory=tmp_path)
        try:
            # Append #1 is the rintent, #2 the radmit: fail the radmit.
            FAILPOINTS.arm(FP_JOURNAL_WRITE, "error", every=2)
            with pytest.raises(CoordinatorError, match="rolled back"):
                coordinator.submit(small_request(), idempotency_key="k1")
            assert coordinator.active_tenancies == 0
            assert all(
                shard.stats()["active_tenancies"] == 0 for shard in shards
            )
            # The retry with the same key converges on a clean admission.
            FAILPOINTS.clear()
            decision = coordinator.submit(small_request(), idempotency_key="k1")
            assert decision["outcome"] == "admitted"
            assert decision.get("deduped") is None
        finally:
            shutdown(coordinator, shards)


def cluster_view(coordinator, shards):
    """Everything a coordinator commit must leave untouched or fully applied."""
    replica = coordinator.replica
    return {
        "links": network_state_to_dict(replica.state),
        "vm_machines": {
            t.request_id: list(t.vm_machines) for t in replica.tenancies()
        },
        "rate_limiters": dict(replica.rate_limiters._caps),
        "ledger": {
            link_id: (
                replica.state.links[link_id].mean_total,
                replica.state.links[link_id].var_total,
                replica.state.links[link_id].deterministic_total,
            )
            for link_id in coordinator.partition.core_link_ids
        },
        "pending": coordinator.ledger.pending_reservations,
        "fragments": {
            gid: coordinator.fragments_of(gid) for gid in sorted(coordinator._gid_map)
        },
        "admitted": coordinator.admitted_count,
        "rejected": coordinator.rejected_count,
        "resizes": dict(coordinator.resize_counts),
        "shards": [
            (
                network_state_to_dict(shard.manager.state),
                {
                    srid: allocation.request.n_vms
                    for srid, allocation in shard.active_allocations().items()
                },
            )
            for shard in shards
        ],
    }


SPANNING = HomogeneousSVC(n_vms=40, mean=8.0, std=2.0)  # > one 32-slot shard
OVERSIZE = HomogeneousSVC(n_vms=500, mean=1.0, std=8.0)


def _submit(request):
    return lambda coordinator, gid: coordinator.submit(request, idempotency_key="k")


def _release(coordinator, gid):
    return coordinator.release(gid)


def _resize(new_n):
    return lambda coordinator, gid: coordinator.resize(
        gid, new_n=new_n, idempotency_key="k"
    )


#: case -> (failing op, its position among every journal append — coordinator
#: WAL and shard journals share the failpoint — counted from arming, whether
#: the policy rolls the operation back, the operation on (coordinator,
#: resident gid)).  Two durable TINY shards, one resident 3-VM tenant,
#: ``max_cross_retries=0``.
WAL_CASES = {
    "rintent": ("rintent", 1, True, _submit(small_request())),
    # rintent, shard admit, radmit
    "radmit": ("radmit", 3, True, _submit(small_request())),
    # rintent, shard reject, rreject
    "rreject": ("rreject", 3, False, _submit(OVERSIZE)),
    # rintent, shard reject, xintent
    "xintent": ("xintent", 3, True, _submit(SPANNING)),
    # ... xintent, two shard adopts, xcommit
    "xcommit": ("xcommit", 6, True, _submit(SPANNING)),
    # ... xintent, adopt, its release (shard 1 refuses its fragment), xabort
    "xabort": ("xabort", 6, False, _submit(SPANNING)),
    "release-shard-down": ("release", 1, True, _release),
    # shard release, WAL release
    "release": ("release", 2, False, _release),
    "rsintent": ("rsintent", 1, True, _resize(5)),
    # rsintent, shard resize, rsdone
    "rsdone": ("rsdone", 3, False, _resize(5)),
    "rsdone-rejected": ("rsdone", 3, False, _resize(500)),
}


def _crash_at_append(nth, operation):
    """Die at the ``nth`` journal append of ``operation`` (a coordinator one)."""

    def prepare(coordinator, shards, gid, monkeypatch):
        FAILPOINTS.arm(FP_JOURNAL_WRITE, "crash", every=nth, max_hits=1)
        operation(coordinator, gid)

    return prepare


def _crash_before_xcommit(coordinator, shards, gid, monkeypatch):
    FAILPOINTS.arm(FP_COORD_BEFORE_COMMIT, "crash", max_hits=1)
    coordinator.submit(SPANNING, idempotency_key="k")


def _lost_resize_record(coordinator, shards, gid, monkeypatch):
    """An accepted resize whose done record is lost, then a rejected one:
    no intent is left open, and the WAL still believes the old size."""
    FAILPOINTS.arm(FP_JOURNAL_WRITE, "error", every=3, max_hits=1)
    assert coordinator.resize(gid, new_n=5)["outcome"] != "rejected"
    FAILPOINTS.clear()
    assert coordinator.resize(gid, new_n=500)["outcome"] == "rejected"


def _tenancy_behind_the_coordinators_back(coordinator, shards, gid, monkeypatch):
    assert shards[1].submit(small_request())["outcome"] == "admitted"


#: case -> (shards, the op recovery appends, its position among the journal
#: appends recovery makes — shard releases share the failpoint —, how the
#: cluster got there).  Durable TINY shards, one resident 3-VM tenant.
RECOVERY_CASES = {
    # rintent, shard admit, (crash) -> the open intent resolves to an admit
    "radmit": (2, "radmit", 1, _crash_at_append(3, _submit(small_request()))),
    # one shard: its reject is the decision
    "rreject": (1, "rreject", 1, _crash_at_append(3, _submit(OVERSIZE))),
    # shard release, (crash) -> the release is completed
    "release": (2, "release", 1, _crash_at_append(2, _release)),
    # rsintent, shard resize, (crash) -> the open resize resolves
    "rsdone": (2, "rsdone", 1, _crash_at_append(3, _resize(5))),
    "rsdone-rejected": (2, "rsdone", 1, _crash_at_append(3, _resize(500))),
    "rsdone-reconciled": (2, "rsdone", 1, _lost_resize_record),
    # two adopted fragments are released at their shards, then the xabort
    "xabort": (2, "xabort", 3, _crash_before_xcommit),
    "radmit-orphan": (2, "radmit", 1, _tenancy_behind_the_coordinators_back),
}


def drive_wal_case(case, directory, monkeypatch, inject):
    """Run one case; returns (live view, recovered view, decision, events)."""
    op, nth, rolls_back, operation = WAL_CASES[case]
    partition, shards, coordinator = build_cluster(
        2, directory=directory, max_cross_retries=0
    )
    try:
        resident = coordinator.submit(small_request(), idempotency_key="resident")
        gid = resident["request_id"]
        (home,) = coordinator.fragments_of(gid)

        def refuse(*_args, **_kwargs):
            raise ConflictError("injected conflict")

        def down(*_args, **_kwargs):
            raise ServiceError("injected shard outage")

        if case == "xabort":
            monkeypatch.setattr(shards[1], "adopt", refuse)
        if case == "release-shard-down":
            monkeypatch.setattr(shards[home], "release", down)
        before = cluster_view(coordinator, shards)
        watermark = flight_recorder().events()[-1]["seq"]
        if inject:
            FAILPOINTS.arm(FP_JOURNAL_WRITE, "error", every=nth, max_hits=1)
        decision = None
        if inject and rolls_back:
            with pytest.raises(CoordinatorError, match="not journaled"):
                operation(coordinator, gid)
        else:
            decision = operation(coordinator, gid)
        FAILPOINTS.clear()
        monkeypatch.undo()
        live = cluster_view(coordinator, shards)
        if inject and rolls_back:
            assert live == before
        events = [
            event["op"]
            for event in flight_recorder().events()
            if event["kind"] == "wal_error" and event["seq"] > watermark
        ]
    finally:
        coordinator.kill()
        for shard in shards:
            shard.close()
    shards = [
        LocalShard(view, directory / f"shard{view.shard_index}")
        for view in partition.shards
    ]
    coordinator = ClusterCoordinator(
        partition, shards, directory=directory / "coordinator"
    )
    try:
        recovered = cluster_view(coordinator, shards)
    finally:
        shutdown(coordinator, shards)
    return live, recovered, decision, events


class TestFailedAppendPolicy:
    """One failed WAL append per site: undo-or-continue, one event, recoverable.

    Required records roll the operation back (state equals the pre-op view,
    :class:`CoordinatorError` reports the outcome as unknown); roll-forward
    records leave the state a fault-free twin reaches and the decision
    stands.  Either way exactly one ``wal_error`` flight event names the op
    and a restart from disk equals the live state.
    """

    @pytest.mark.parametrize("case", sorted(WAL_CASES))
    def test_one_failed_append(self, tmp_path, monkeypatch, case):
        op, _nth, rolls_back, _operation = WAL_CASES[case]
        live, recovered, decision, events = drive_wal_case(
            case, tmp_path / "faulty", monkeypatch, inject=True
        )
        assert events == [op]
        if not rolls_back:
            twin, _recovered, twin_decision, twin_events = drive_wal_case(
                case, tmp_path / "twin", monkeypatch, inject=False
            )
            assert twin_events == []
            assert decision == twin_decision
            assert live == twin
        if case == "rreject":
            # The one divergence a lost reject record leaves behind: the
            # tally (and the key, so a retry re-runs the decision).
            live["rejected"] -= 1
        assert recovered == live

    @pytest.mark.parametrize("case", sorted(RECOVERY_CASES))
    def test_one_failed_append_during_recovery(self, tmp_path, monkeypatch, case):
        """Recovery's own appends are roll-forward: each restates what the
        shard journals re-derive, so losing one costs a ``wal_error`` event
        and nothing else — the coordinator comes up, and a second restart
        from the same directory reaches the same state."""
        num_shards, op, nth, prepare = RECOVERY_CASES[case]
        _partition, shards, coordinator = build_cluster(
            num_shards, directory=tmp_path, max_cross_retries=0
        )
        try:
            resident = coordinator.submit(small_request(), idempotency_key="resident")
            try:
                prepare(coordinator, shards, resident["request_id"], monkeypatch)
            except InjectedCrash:
                pass
        finally:
            FAILPOINTS.clear()
            monkeypatch.undo()
            crash(coordinator, shards)

        def restart(inject):
            watermark = flight_recorder().events()[-1]["seq"]
            if inject:
                # Shard recovery appends nothing, so the count starts with
                # the coordinator's.
                FAILPOINTS.arm(FP_JOURNAL_WRITE, "error", every=nth, max_hits=1)
            try:
                _partition, shards, coordinator = build_cluster(
                    num_shards, directory=tmp_path
                )
            finally:
                FAILPOINTS.clear()
            try:
                events = [
                    event["op"]
                    for event in flight_recorder().events()
                    if event["kind"] == "wal_error" and event["seq"] > watermark
                ]
                return cluster_view(coordinator, shards), events
            finally:
                crash(coordinator, shards)

        first, events = restart(inject=True)
        assert events == [op]
        second, events = restart(inject=False)
        assert events == []
        assert second == first
        third, _events = restart(inject=False)  # the re-derived record landed
        assert third == first


class TestRecovery:
    def test_round_trip_restores_admissions_and_dedup(self, tmp_path):
        partition, shards, coordinator = build_cluster(2, directory=tmp_path)
        decisions = {}
        try:
            decisions["a"] = coordinator.submit(
                small_request(), idempotency_key="a"
            )
            decisions["big"] = coordinator.submit(
                small_request(n_vms=40, mean=8.0, std=2.0), idempotency_key="big"
            )
            decisions["reject"] = coordinator.submit(
                small_request(n_vms=500, mean=1.0), idempotency_key="reject"
            )
            assert decisions["a"]["outcome"] == "admitted"
            assert decisions["big"]["outcome"] == "admitted"
            assert decisions["reject"]["outcome"] == "rejected"
            fragments_before = {
                key: coordinator.fragments_of(decisions[key]["request_id"])
                for key in ("a", "big")
            }
        finally:
            coordinator.kill()
            for shard in shards:
                shard.close()

        # Restart shards first (daemons come back independently), then the
        # coordinator, which reconciles its WAL against the live shards.
        shards = [
            LocalShard(view, tmp_path / f"shard{view.shard_index}")
            for view in partition.shards
        ]
        coordinator = ClusterCoordinator(
            partition, shards, directory=tmp_path / "coordinator"
        )
        try:
            assert coordinator.active_tenancies == 2
            for key in ("a", "big"):
                gid = decisions[key]["request_id"]
                assert coordinator.fragments_of(gid) == fragments_before[key]
            assert coordinator.allocation_of(decisions["big"]["request_id"]) is not None
            # Dedup survives the restart for every keyed decision.
            for key in ("a", "big", "reject"):
                replay = coordinator.submit(
                    small_request(), idempotency_key=key
                )
                assert replay["deduped"] is True
                assert replay["outcome"] == decisions[key]["outcome"]
                assert replay["request_id"] == decisions[key]["request_id"]
            # Releases still work on recovered tenancies.
            assert coordinator.release(decisions["big"]["request_id"])
            assert coordinator.active_tenancies == 1
            assert coordinator.ledger.max_occupancy() == 0.0
        finally:
            shutdown(coordinator, shards)


    @pytest.mark.parametrize(
        "last_op", [_submit(small_request()), _release, _resize(5)],
        ids=["radmit", "release", "rsdone"],
    )
    def test_torn_coordinator_wal_tail_is_rederived(self, tmp_path, last_op):
        """Cut ``coordinator.jsonl`` in the middle of its last record: the
        reopened WAL drops the torn line, recovery re-derives what it said
        from the shard journals, and later appends extend the intact prefix."""
        _partition, shards, coordinator = build_cluster(2, directory=tmp_path)
        try:
            resident = coordinator.submit(small_request(), idempotency_key="resident")
            last_op(coordinator, resident["request_id"])
            live = cluster_view(coordinator, shards)
        finally:
            crash(coordinator, shards)
        wal = tmp_path / "coordinator" / WAL_FILENAME
        content = wal.read_bytes()
        last_record = content.rstrip(b"\n").rsplit(b"\n", 1)[-1]
        wal.write_bytes(content[: len(content) - len(last_record) // 2])

        for _restart in range(2):
            _partition, shards, coordinator = build_cluster(2, directory=tmp_path)
            try:
                assert cluster_view(coordinator, shards) == live
            finally:
                crash(coordinator, shards)

    def test_a_completed_release_takes_its_admitted_keys_along(self, tmp_path):
        """A WAL admission whose fragment is gone from its shard is dropped
        by recovery, and so is the key that would answer "admitted" with it
        — also on the restart after, which replays the recovered release.
        An ordinary, acknowledged release keeps its key."""
        _partition, shards, coordinator = build_cluster(2, directory=tmp_path)
        try:
            kept = coordinator.submit(small_request(), idempotency_key="kept")
            assert coordinator.release(kept["request_id"])
            lost = coordinator.submit(small_request(), idempotency_key="lost")
            ((home, srid),) = coordinator.fragments_of(lost["request_id"]).items()
            assert shards[home].release(srid)  # behind the coordinator's back
        finally:
            crash(coordinator, shards)
        for restart in range(2):
            _partition, shards, coordinator = build_cluster(2, directory=tmp_path)
            try:
                assert coordinator.active_tenancies == 0
                assert "lost" not in coordinator._idem
                assert coordinator._idem["kept"]["request_id"] == kept["request_id"]
                if restart == 1:
                    again = coordinator.submit(small_request(), idempotency_key="lost")
                    assert again.get("deduped") is None
                    assert again["outcome"] == "admitted"
                    assert coordinator.fragments_of(again["request_id"]) is not None
            finally:
                crash(coordinator, shards)


class TestSingleShardEquivalence:
    """Acceptance: K=1 decisions are bit-identical to the direct service."""

    @staticmethod
    def _trace(seed, count):
        rng = random.Random(seed)
        ops = []
        active = []
        for index in range(count):
            if active and rng.random() < 0.3:
                victim = active.pop(rng.randrange(len(active)))
                ops.append(("release", victim))
                continue
            request = HomogeneousSVC(
                n_vms=rng.randint(2, 10),
                mean=rng.uniform(20.0, 120.0),
                std=rng.uniform(2.0, 40.0),
            )
            ops.append(("submit", request))
            active.append(index + 1)  # both sides burn one id per submit
        return ops

    def test_decisions_and_state_match_direct_service(self):
        ops = self._trace(seed=7, count=60)

        _partition, shards, coordinator = build_cluster(1)
        cluster_log = []
        try:
            for op, payload in ops:
                if op == "submit":
                    decision = coordinator.submit(payload)
                    # Rejects carry the coordinator's burned gid; the direct
                    # ticket reports None there — only admitted ids must match.
                    cluster_log.append(
                        (
                            decision["outcome"],
                            decision["request_id"]
                            if decision["outcome"] == "admitted"
                            else None,
                        )
                    )
                else:
                    coordinator.release(payload)
            cluster_state = network_state_to_dict(coordinator.replica.state)
            cluster_active = coordinator.active_tenancies
        finally:
            shutdown(coordinator, shards)

        manager = NetworkManager(build_datacenter(TINY_SPEC), epsilon=0.05)
        service = AdmissionService(manager, workers=1).start()
        direct_log = []
        try:
            for op, payload in ops:
                if op == "submit":
                    ticket = service.submit(payload, wait=True, wait_timeout=30.0)
                    assert ticket.done
                    direct_log.append((ticket.outcome, ticket.request_id))
                else:
                    service.release(payload)
            direct_state = network_state_to_dict(manager.state)
            direct_active = manager.active_tenancies
        finally:
            service.stop()

        assert cluster_log == direct_log
        assert cluster_active == direct_active
        assert cluster_state == direct_state
