"""Bounded-queue backpressure, idempotent submits, server-side deadlines."""

import pytest

from repro.abstractions import HomogeneousSVC
from repro.faults.failpoints import FAILPOINTS, FP_QUEUE_ACCEPT, MODE_SHED
from repro.manager.network_manager import NetworkManager
from repro.service.concurrency import (
    OUTCOME_ADMITTED,
    OUTCOME_EXPIRED,
    AdmissionService,
    LatencyWindow,
)
from repro.service.errors import CODE_OVERLOADED, OverloadedError, OverQuotaError
from repro.service.journal import KeyWindow


def small_request():
    return HomogeneousSVC(n_vms=2, mean=50.0, std=10.0)


class TestQueueBound:
    def test_submits_beyond_the_bound_shed_with_retry_after(self, tiny_tree):
        service = AdmissionService(
            NetworkManager(tiny_tree), workers=1, max_queue_depth=2
        )
        # Flag the service running without starting workers: the queue can
        # only fill, making the bound deterministic to hit.
        service._running = True
        service.submit(small_request(), wait=False)
        service.submit(small_request(), wait=False)
        with pytest.raises(OverloadedError) as excinfo:
            service.submit(small_request(), wait=False)
        assert excinfo.value.code == CODE_OVERLOADED
        assert excinfo.value.retry_after > 0
        assert service.counters.shed == 1
        assert service.counters.submitted == 2  # the shed one never counted
        assert service.stats()["queue"]["limit"] == 2

    def test_a_shed_at_a_full_queue_reads_the_mean_without_sorting_the_window(
        self, tiny_tree, monkeypatch
    ):
        service = AdmissionService(
            NetworkManager(tiny_tree), workers=3, max_queue_depth=2, tenant_quota=1
        )
        service._running = True
        for sample in (0.4, float("nan"), 1.3, -1.0, 0.71):  # two are clamped to 0
            service.latencies.observe(sample)
        # What the hint was computed from before: summary()'s mean, back in seconds.
        mean = service.latencies.summary()["mean_ms"] / 1000.0
        assert mean == service.latencies.mean_ms() / 1000.0 > 0.0
        monkeypatch.setattr(
            service.latencies, "summary",
            lambda *args: pytest.fail("summary() sorts the window under the service lock"),
        )
        service.submit(small_request(), wait=False, tenant="a")
        with pytest.raises(OverQuotaError) as over_quota:
            service.submit(small_request(), wait=False, tenant="a")
        assert over_quota.value.retry_after == 1 * mean / 3 > 0.05
        service.submit(small_request(), wait=False, tenant="b")
        with pytest.raises(OverloadedError) as overloaded:
            service.submit(small_request(), wait=False, tenant="c")
        assert overloaded.value.retry_after == 2 * mean / 3 < 5.0
        # No sample yet: the 5 ms default per request, as summary()'s 0.0 gave.
        assert LatencyWindow().mean_ms() == 0.0
        service.latencies = LatencyWindow()
        assert service._overload_retry_after(40) == 40 * 0.005 / 3

    def test_bound_counts_parked_requests_too(self, tiny_tree):
        service = AdmissionService(
            NetworkManager(tiny_tree), workers=1, mode="batch", max_queue_depth=1
        )
        service._running = True
        service.submit(small_request(), wait=False)
        with pytest.raises(OverloadedError):
            service.submit(small_request(), wait=False)

    def test_unbounded_when_disabled(self, tiny_tree):
        service = AdmissionService(
            NetworkManager(tiny_tree), workers=1, max_queue_depth=None
        )
        service._running = True
        for _ in range(50):
            service.submit(small_request(), wait=False)
        assert service.counters.submitted == 50

    def test_queue_accept_failpoint_forces_saturation(self, tiny_tree):
        FAILPOINTS.arm(FP_QUEUE_ACCEPT, MODE_SHED)
        service = AdmissionService(NetworkManager(tiny_tree), workers=1)
        service._running = True
        with pytest.raises(OverloadedError):
            service.submit(small_request(), wait=False)

    def test_invalid_bound_rejected(self, tiny_tree):
        with pytest.raises(ValueError, match="max_queue_depth"):
            AdmissionService(NetworkManager(tiny_tree), max_queue_depth=0)


class TestServerSideDeadlines:
    def test_default_timeout_expires_unserved_requests(self, tiny_tree):
        with AdmissionService(
            NetworkManager(tiny_tree), workers=1, default_timeout_s=0.0
        ) as service:
            ticket = service.submit(small_request(), wait=True, wait_timeout=5.0)
            assert ticket.outcome == OUTCOME_EXPIRED
            assert service.counters.expired == 1

    def test_explicit_timeout_overrides_the_default(self, tiny_tree):
        with AdmissionService(
            NetworkManager(tiny_tree), workers=1, default_timeout_s=0.0
        ) as service:
            ticket = service.submit(
                small_request(), timeout_s=30.0, wait=True, wait_timeout=5.0
            )
            assert ticket.outcome == OUTCOME_ADMITTED


class TestIdempotentSubmit:
    def test_same_key_returns_the_same_ticket(self, tiny_tree):
        with AdmissionService(NetworkManager(tiny_tree), workers=1) as service:
            first = service.submit(
                small_request(), wait=True, idempotency_key="k1"
            )
            assert first.outcome == OUTCOME_ADMITTED
            second = service.submit(
                small_request(), wait=True, idempotency_key="k1"
            )
            assert second is first
            assert service.counters.deduped == 1
            assert service.counters.submitted == 1
            assert service.manager.active_tenancies == 1  # no double-admit

    def test_different_keys_are_independent(self, tiny_tree):
        with AdmissionService(NetworkManager(tiny_tree), workers=1) as service:
            a = service.submit(small_request(), wait=True, idempotency_key="a")
            b = service.submit(small_request(), wait=True, idempotency_key="b")
            assert a.request_id != b.request_id
            assert service.counters.deduped == 0

    def test_recovered_index_answers_without_reexecution(self, tiny_tree):
        # Simulate a post-recovery service seeded with a journaled decision.
        with AdmissionService(
            NetworkManager(tiny_tree),
            workers=1,
            idempotency_index=KeyWindow.rebuild([["old", OUTCOME_ADMITTED, 41]]),
        ) as service:
            ticket = service.submit(
                small_request(), wait=True, idempotency_key="old"
            )
            assert ticket.outcome == OUTCOME_ADMITTED
            assert ticket.request_id == 41
            assert "journal" in ticket.detail
            assert service.counters.deduped == 1
            # Nothing was enqueued, nothing allocated.
            assert service.counters.submitted == 0
            assert service.manager.active_tenancies == 0

    def test_stats_report_live_key_count(self, tiny_tree):
        with AdmissionService(NetworkManager(tiny_tree), workers=1) as service:
            service.submit(small_request(), wait=True, idempotency_key="x")
            assert service.stats()["idempotency"]["keys"] == 1
