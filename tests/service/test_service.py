"""AdmissionService behaviour: concurrency, modes, deadlines, stats."""

import threading

import pytest

from repro.abstractions import DeterministicVC, HomogeneousSVC
from repro.faults.failpoints import FAILPOINTS, FP_WORKER_AFTER_JOURNAL, MODE_CRASH
from repro.manager.network_manager import NetworkManager
from repro.service.concurrency import (
    OUTCOME_ADMITTED,
    OUTCOME_EXPIRED,
    OUTCOME_QUEUED,
    OUTCOME_REJECTED,
    AdmissionService,
    LatencyWindow,
)
from repro.service.recovery import oracle_replay
from repro.service.codec import network_state_to_dict


@pytest.fixture()
def service(tiny_tree):
    with AdmissionService(NetworkManager(tiny_tree), workers=2) as svc:
        yield svc


def small_svc():
    return HomogeneousSVC(n_vms=3, mean=80.0, std=30.0)


def huge_svc(tree):
    return HomogeneousSVC(n_vms=tree.total_slots + 1, mean=10.0, std=1.0)


class TestSubmitRelease:
    def test_admit_then_release(self, service):
        ticket = service.submit(small_svc())
        assert ticket.outcome == OUTCOME_ADMITTED
        assert ticket.request_id is not None
        assert service.release(ticket.request_id)
        assert not service.release(ticket.request_id)  # already gone

    def test_online_reject_is_immediate(self, tiny_tree, service):
        ticket = service.submit(huge_svc(tiny_tree))
        assert ticket.outcome == OUTCOME_REJECTED

    def test_rejection_names_the_allocator(self, tiny_tree, service):
        # The detail string and the stats payload both attribute rejections
        # to the algorithm that refused (here Algorithm 1's DP, "svc-dp").
        ticket = service.submit(huge_svc(tiny_tree))
        assert ticket.outcome == OUTCOME_REJECTED
        assert ticket.detail == "no valid placement (allocator=svc-dp)"
        stats = service.stats()
        assert stats["rejections_by_allocator"] == {"svc-dp": 1}

    def test_rejection_attribution_tallies_per_allocator(self, tiny_tree, service):
        service.submit(huge_svc(tiny_tree))
        service.submit(huge_svc(tiny_tree))
        service.submit(small_svc())  # success must not disturb the tally
        stats = service.stats()
        assert stats["rejections_by_allocator"] == {"svc-dp": 2}
        assert stats["counters"]["rejected"] == 2

    def test_submit_accepts_wire_payloads(self, service):
        ticket = service.submit({"kind": "deterministic", "n_vms": 2, "bandwidth": 50.0})
        assert ticket.outcome == OUTCOME_ADMITTED

    def test_status_reports_ticket(self, service):
        ticket = service.submit(small_svc())
        status = service.status(ticket.ticket_id)
        assert status["outcome"] == OUTCOME_ADMITTED
        assert status["request_id"] == ticket.request_id
        assert service.status(999_999) is None

    def test_submit_after_stop_raises(self, tiny_tree):
        svc = AdmissionService(NetworkManager(tiny_tree)).start()
        svc.stop()
        with pytest.raises(RuntimeError, match="not running"):
            svc.submit(small_svc())

    @pytest.mark.parametrize("death", ["stop", "kill", "crash"])
    def test_dead_service_refuses_every_mutation(
        self, tiny_tree, plain_store, death
    ):
        manager = NetworkManager(tiny_tree)
        svc = AdmissionService(manager, store=plain_store, workers=1).start()
        ticket = svc.submit(small_svc())
        assert ticket.outcome == OUTCOME_ADMITTED
        placement = manager.allocator.allocate(manager.state, small_svc(), 0)
        if death == "crash":
            FAILPOINTS.arm(FP_WORKER_AFTER_JOURNAL, MODE_CRASH, max_hits=1)
            try:
                doomed = svc.submit(small_svc(), wait=True, wait_timeout=10.0)
            finally:
                FAILPOINTS.clear()
            assert svc.crashed and not doomed.done
        else:
            getattr(svc, death)()
        before = (
            network_state_to_dict(manager.state),
            sorted(t.request_id for t in manager.tenancies()),
            plain_store.journal.next_seq,
        )
        refused = [
            lambda: svc.release(ticket.request_id),
            lambda: svc.resize(ticket.request_id, new_n=2),
            lambda: svc.adopt(placement),
            lambda: svc.submit(small_svc()),
        ]
        for mutation in refused:
            with pytest.raises(RuntimeError, match="not running"):
                mutation()
        assert before == (
            network_state_to_dict(manager.state),
            sorted(t.request_id for t in manager.tenancies()),
            plain_store.journal.next_seq,
        )
        svc.kill()


class TestConcurrentClients:
    def test_many_threads_agree_with_oracle_journal(self, tiny_tree, plain_store):
        """4 submitting threads; the final state must equal the WAL replay."""
        manager = NetworkManager(tiny_tree)
        with AdmissionService(manager, store=plain_store, workers=4) as svc:
            def client(seed):
                admitted = []
                for index in range(25):
                    if index % 2:
                        request = small_svc()
                    else:
                        request = DeterministicVC(n_vms=2, bandwidth=60.0)
                    ticket = svc.submit(request, wait=True)
                    if ticket.outcome == OUTCOME_ADMITTED:
                        admitted.append(ticket.request_id)
                    if len(admitted) > 3:
                        svc.release(admitted.pop(0))

            threads = [threading.Thread(target=client, args=(s,)) for s in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        state, active = oracle_replay(plain_store.wal_path, tiny_tree)
        assert network_state_to_dict(state) == network_state_to_dict(manager.state)
        assert sorted(active) == sorted(t.request_id for t in manager.tenancies())

    def test_every_ticket_resolves(self, tiny_tree):
        with AdmissionService(NetworkManager(tiny_tree), workers=3) as svc:
            tickets = [svc.submit(small_svc(), wait=False) for _ in range(40)]
            for ticket in tickets:
                assert ticket.wait(10.0), "ticket never resolved"
                assert ticket.outcome in (OUTCOME_ADMITTED, OUTCOME_REJECTED)


class TestBatchMode:
    def test_rejected_request_waits_and_retries_on_departure(self, tiny_tree):
        manager = NetworkManager(tiny_tree)
        with AdmissionService(manager, mode="batch", workers=2) as svc:
            blockers = []
            while True:
                ticket = svc.submit(
                    HomogeneousSVC(n_vms=16, mean=150.0, std=50.0),
                    timeout_s=30.0,
                    wait_timeout=2.0,
                )
                if ticket.done and ticket.outcome == OUTCOME_ADMITTED:
                    blockers.append(ticket.request_id)
                else:
                    waiter = ticket
                    break
            assert not waiter.done  # parked, not rejected
            assert svc.release(blockers[0])
            assert waiter.wait(5.0)
            assert waiter.outcome == OUTCOME_ADMITTED

    def test_parked_request_expires_at_deadline(self, tiny_tree):
        with AdmissionService(NetworkManager(tiny_tree), mode="batch", workers=2) as svc:
            blockers = []
            while True:
                ticket = svc.submit(
                    HomogeneousSVC(n_vms=16, mean=150.0, std=50.0),
                    timeout_s=0.3,
                    wait_timeout=2.0,
                )
                if ticket.done and ticket.outcome == OUTCOME_ADMITTED:
                    blockers.append(ticket.request_id)
                else:
                    waiter = ticket
                    break
            assert waiter.wait(5.0)
            assert waiter.outcome == OUTCOME_EXPIRED


class TestTicketTable:
    def test_resolved_tickets_are_evicted_and_a_queued_one_survives(self, tiny_tree):
        class SmallTable(AdmissionService):
            ticket_capacity = 8

        with SmallTable(NetworkManager(tiny_tree), mode="batch", workers=1) as svc:
            # Batch mode parks what does not fit: this ticket stays unresolved.
            parked = svc.submit(huge_svc(tiny_tree), wait=False, timeout_s=60.0)
            first = svc.submit(small_svc())
            assert svc.release(first.request_id)
            for _ in range(3 * SmallTable.ticket_capacity):
                ticket = svc.submit(small_svc())
                assert ticket.outcome == OUTCOME_ADMITTED
                assert svc.release(ticket.request_id)
                assert len(svc._tickets) <= SmallTable.ticket_capacity
            assert not parked.done
            assert svc.status(parked.ticket_id)["outcome"] == OUTCOME_QUEUED
            assert svc.status(first.ticket_id) is None  # as for an unknown ticket
            assert svc.status(ticket.ticket_id)["outcome"] == OUTCOME_ADMITTED


class TestStats:
    def test_stats_payload_shape(self, tiny_tree, service):
        admitted = service.submit(small_svc())
        service.submit(huge_svc(tiny_tree))
        service.release(admitted.request_id)
        stats = service.stats()
        counters = stats["counters"]
        assert counters["submitted"] == 2
        assert counters["admitted"] == 1
        assert counters["rejected"] == 1
        assert counters["released"] == 1
        assert stats["active_tenancies"] == 0
        latency = stats["admission_latency"]
        assert latency["count"] == 2
        for key in ("p50_ms", "p90_ms", "p99_ms", "mean_ms"):
            assert latency[key] >= 0.0
        labels = [row["label"] for row in stats["occupancy"]["by_level"]]
        assert labels == ["machine", "ToR", "aggregation"]
        assert stats["slots"]["total"] == tiny_tree.total_slots
        assert stats["durability"] == {"enabled": False}

    def test_max_occupancy_is_the_manager_statistic(self, service):
        # ``stats`` takes it from the per-level maxima; the values are the same.
        assert service.stats()["occupancy"]["max"] == 0.0
        for n_vms in (6, 5, 9, 3):
            service.submit(HomogeneousSVC(n_vms=n_vms, mean=150.0, std=60.0))
            service.submit(DeterministicVC(n_vms=n_vms, bandwidth=90.0))
            worst = service.manager.max_occupancy()
            assert worst > 0.0
            assert service.stats()["occupancy"]["max"] == worst

    def test_queued_outcome_via_describe(self, tiny_tree):
        svc = AdmissionService(NetworkManager(tiny_tree))
        # Not started: submission is refused, so build a ticket by hand.
        with pytest.raises(RuntimeError):
            svc.submit(small_svc())
        svc.start()
        try:
            ticket = svc.submit(small_svc(), wait=False)
            assert ticket.describe()["outcome"] in (
                OUTCOME_QUEUED,
                OUTCOME_ADMITTED,
                OUTCOME_REJECTED,
            )
            assert ticket.wait(10.0)
        finally:
            svc.stop()


class TestLatencyWindow:
    def test_percentiles_of_known_samples(self):
        window = LatencyWindow()
        for value in range(1, 101):  # 1ms .. 100ms
            window.observe(value / 1000.0)
        summary = window.summary()
        assert summary["count"] == 100
        assert summary["p50_ms"] == pytest.approx(50.0, abs=1.0)
        assert summary["p99_ms"] == pytest.approx(99.0, abs=1.0)
        assert summary["mean_ms"] == pytest.approx(50.5, abs=0.1)

    def test_empty_window_is_all_zero(self):
        summary = LatencyWindow().summary()
        assert summary["count"] == 0
        assert summary["p50_ms"] == 0.0
        assert summary["mean_ms"] == 0.0
