"""The degradation ladder: unit transitions and end-to-end service behaviour."""

import pytest

from repro.abstractions import HomogeneousSVC
from repro.faults.failpoints import FAILPOINTS, FP_JOURNAL_WRITE, MODE_ERROR
from repro.manager.network_manager import NetworkManager
from repro.obs.flightrec import flight_recorder
from repro.service.codec import network_state_to_dict
from repro.service.concurrency import (
    OUTCOME_ADMITTED,
    OUTCOME_ERROR,
    OUTCOME_REJECTED,
    AdmissionService,
)
from repro.service.degrade import (
    STATE_FAST_FAIL,
    STATE_FULL,
    STATE_READ_ONLY,
    DegradationLadder,
)
from repro.service.errors import CODE_READ_ONLY, CODE_UNAVAILABLE, DegradedError
from repro.service.journal import DurabilityStore
from repro.service.recovery import recover_manager


def small_request():
    return HomogeneousSVC(n_vms=2, mean=50.0, std=10.0)


def manager_view(manager):
    """Everything a commit must leave either untouched or fully applied."""
    return {
        "links": network_state_to_dict(manager.state),
        "vm_machines": {
            t.request_id: list(t.vm_machines) for t in manager.tenancies()
        },
        "admitted": manager.admitted_count,
        "rejected": manager.rejected_count,
        "resizes": dict(manager.resize_counts),
    }


def wal_errors_since(seq):
    return [
        event
        for event in flight_recorder().events()
        if event["kind"] == "wal_error" and event["seq"] > seq
    ]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestLadderUnit:
    def test_starts_full(self):
        ladder = DegradationLadder()
        assert ladder.state == STATE_FULL
        assert not ladder.degraded
        assert ladder.code == 0

    def test_failure_steps_to_read_only_then_fast_fail(self):
        ladder = DegradationLadder(fast_fail_after=3)
        ladder.record_failure(OSError("disk"))
        assert ladder.state == STATE_READ_ONLY
        ladder.record_failure(OSError("disk"))
        assert ladder.state == STATE_READ_ONLY
        ladder.record_failure(OSError("disk"))
        assert ladder.state == STATE_FAST_FAIL
        assert ladder.code == 2

    def test_success_recovers_to_full(self):
        ladder = DegradationLadder(fast_fail_after=2)
        ladder.record_failure(OSError("disk"))
        ladder.record_failure(OSError("disk"))
        assert ladder.state == STATE_FAST_FAIL
        ladder.record_success()
        assert ladder.state == STATE_FULL
        assert ladder.consecutive_failures == 0

    def test_retry_after_backs_off_exponentially_and_caps(self):
        ladder = DegradationLadder(probe_interval=1.0, max_retry_after=8.0)
        hints = []
        for _ in range(6):
            ladder.record_failure(OSError("disk"))
            hints.append(ladder.retry_after())
        assert hints[:4] == [1.0, 2.0, 4.0, 8.0]
        assert all(h == 8.0 for h in hints[3:])  # capped

    def test_should_probe_follows_the_backoff(self):
        clock = FakeClock()
        ladder = DegradationLadder(clock=clock, probe_interval=1.0)
        assert not ladder.should_probe()  # full: nothing to probe
        ladder.record_failure(OSError("disk"))
        assert not ladder.should_probe()
        clock.now = 1.5
        assert ladder.should_probe()

    def test_describe_is_json_friendly(self):
        ladder = DegradationLadder()
        ladder.record_failure(OSError("boom"))
        payload = ladder.describe()
        assert payload["state"] == STATE_READ_ONLY
        assert payload["consecutive_failures"] == 1
        assert "boom" in payload["last_error"]
        assert payload["retry_after_s"] > 0


class TestServiceDegradation:
    def test_journal_failure_rolls_back_and_degrades(self, tiny_tree, tmp_path):
        store = DurabilityStore(tmp_path / "j")
        service = AdmissionService(
            NetworkManager(tiny_tree), store=store, workers=1,
            degradation=DegradationLadder(probe_interval=30.0),
        )
        with service:
            FAILPOINTS.arm(FP_JOURNAL_WRITE, MODE_ERROR)
            ticket = service.submit(small_request(), wait=True)
            assert ticket.outcome == OUTCOME_ERROR
            assert "rolled back" in ticket.detail
            # The admission was rolled back: no tenancy holds bandwidth.
            assert service.manager.active_tenancies == 0
            assert service.manager.admitted_count == 0
            assert service.degradation_state() == STATE_READ_ONLY
            # Mutations now shed with a typed, retryable error.
            with pytest.raises(DegradedError) as excinfo:
                service.submit(small_request(), wait=True)
            assert excinfo.value.code == CODE_READ_ONLY
            assert excinfo.value.retry_after > 0
            assert service.counters.shed >= 1
        store.close()

    def test_probe_recovers_full_service(self, tiny_tree, tmp_path):
        store = DurabilityStore(tmp_path / "j")
        service = AdmissionService(
            NetworkManager(tiny_tree), store=store, workers=1,
            degradation=DegradationLadder(probe_interval=0.01),
        )
        with service:
            FAILPOINTS.arm(FP_JOURNAL_WRITE, MODE_ERROR, max_hits=1)
            assert service.submit(small_request(), wait=True).outcome == OUTCOME_ERROR
            assert service.degradation_state() == STATE_READ_ONLY
            # The failpoint is exhausted: the next probe note succeeds and
            # the ladder climbs back to full within a couple of sweeps.
            deadline = 100
            for _ in range(deadline):
                if service.degradation_state() == STATE_FULL:
                    break
                import time

                time.sleep(0.02)
            assert service.degradation_state() == STATE_FULL
            ticket = service.submit(small_request(), wait=True)
            assert ticket.outcome == OUTCOME_ADMITTED
        store.close()

    def test_fast_fail_shed_includes_status_reads(self, tiny_tree, tmp_path):
        store = DurabilityStore(tmp_path / "j")
        ladder = DegradationLadder(probe_interval=30.0, fast_fail_after=1)
        service = AdmissionService(
            NetworkManager(tiny_tree), store=store, workers=1, degradation=ladder,
        )
        with service:
            FAILPOINTS.arm(FP_JOURNAL_WRITE, MODE_ERROR)
            service.submit(small_request(), wait=True)
            assert service.degradation_state() == STATE_FAST_FAIL
            with pytest.raises(DegradedError) as excinfo:
                service.gate("stats")
            assert excinfo.value.code == CODE_UNAVAILABLE
            service.gate("ping")  # liveness stays reachable
        store.close()

    def test_release_failure_keeps_tenancy_and_raises_typed_error(
        self, tiny_tree, tmp_path
    ):
        store = DurabilityStore(tmp_path / "j")
        service = AdmissionService(
            NetworkManager(tiny_tree), store=store, workers=1,
            degradation=DegradationLadder(probe_interval=0.01),
        )
        with service:
            ticket = service.submit(small_request(), wait=True)
            assert ticket.outcome == OUTCOME_ADMITTED
            FAILPOINTS.arm(FP_JOURNAL_WRITE, MODE_ERROR, max_hits=1)
            with pytest.raises(DegradedError) as excinfo:
                service.release(ticket.request_id)
            assert excinfo.value.code == CODE_READ_ONLY
            # Rolled back: the tenancy still holds its bandwidth, and a
            # later retry (journal healthy again) succeeds.
            assert service.manager.get_tenancy(ticket.request_id) is not None
            import time

            for _ in range(100):
                if service.degradation_state() == STATE_FULL:
                    break
                time.sleep(0.02)
            assert service.release(ticket.request_id)
            assert service.manager.get_tenancy(ticket.request_id) is None
        store.close()

    def test_stats_and_metrics_surface_degradation(self, tiny_tree, tmp_path):
        store = DurabilityStore(tmp_path / "j")
        service = AdmissionService(
            NetworkManager(tiny_tree), store=store, workers=1,
            degradation=DegradationLadder(probe_interval=30.0),
        )
        with service:
            FAILPOINTS.arm(FP_JOURNAL_WRITE, MODE_ERROR)
            service.submit(small_request(), wait=True)
            stats = service.stats()
            assert stats["degradation"]["state"] == STATE_READ_ONLY
            assert stats["degradation"]["consecutive_failures"] >= 1
            snapshot = service.metrics()["metrics"]
            gauge = snapshot["repro_service_degradation_state"]["series"][0]["value"]
            assert gauge == 1.0
        store.close()


class TestFailedAppendPolicy:
    """One failed append per op: undo-or-continue, one event, recoverable.

    ``journal.write`` is armed for exactly the op's own append.  Ops whose
    record recovery cannot do without (admit, adopt, release, resize) must
    leave the manager equal to its pre-op view and surface a typed error;
    the reject record is a tolerated loss, so the decision stands.  Either
    way exactly one ``wal_error`` flight event names the op and a recovery
    from disk equals the live state.
    """

    @pytest.mark.parametrize("op", ["admit", "reject", "adopt", "release", "resize"])
    def test_one_failed_append(self, tiny_tree, tmp_path, op):
        store = DurabilityStore(tmp_path / "j")
        manager = NetworkManager(tiny_tree)
        service = AdmissionService(
            manager, store=store, workers=1,
            degradation=DegradationLadder(probe_interval=30.0),  # no probe noise
        )
        with service:
            resident = service.submit(small_request(), wait=True)
            assert resident.outcome == OUTCOME_ADMITTED
            placement = manager.allocator.allocate(manager.state, small_request(), 0)
            oversize = HomogeneousSVC(
                n_vms=tiny_tree.total_slots + 1, mean=1.0, std=0.1
            )
            before = manager_view(manager)
            errors_before = service.counters.errors
            watermark = flight_recorder().events()[-1]["seq"]
            FAILPOINTS.arm(FP_JOURNAL_WRITE, MODE_ERROR, max_hits=1)
            if op == "admit":
                ticket = service.submit(small_request(), wait=True)
                assert ticket.outcome == OUTCOME_ERROR
                assert "journal unavailable" in ticket.detail
                assert "rolled back" in ticket.detail
            elif op == "reject":
                ticket = service.submit(oversize, wait=True)
                assert ticket.outcome == OUTCOME_REJECTED  # decision stands
                before["rejected"] += 1  # ...and so does its tally
            else:
                mutate = {
                    "adopt": lambda: service.adopt(placement),
                    "release": lambda: service.release(resident.request_id),
                    "resize": lambda: service.resize(resident.request_id, new_n=5),
                }[op]
                with pytest.raises(DegradedError, match=f"{op} not journaled") as info:
                    mutate()
                assert "rolled back" in str(info.value)
                assert info.value.code == CODE_READ_ONLY
                assert info.value.retry_after > 0
            assert manager_view(manager) == before
            assert service.counters.errors == errors_before + 1
            assert service.degradation_state() == STATE_READ_ONLY
            assert [event["op"] for event in wal_errors_since(watermark)] == [op]
            live = manager_view(manager)
        store.close()
        store = DurabilityStore(tmp_path / "j")
        recovered, _report = recover_manager(store, tiny_tree)
        store.close()
        if op == "reject":
            # The one divergence a lost reject record leaves behind.
            live["rejected"] -= 1
        assert manager_view(recovered) == live
