"""Queue disciplines: priority order, FIFO ties, deadlines, batch parking.

Driven with a single tenant, where the fair queue reduces to one
priority + FIFO heap; cross-tenant scheduling is ``test_fairness.py``.
"""

import pytest

from repro.abstractions import HomogeneousSVC
from repro.service.queue import MODE_BATCH, MODE_ONLINE, FairRequestQueue, QueuedRequest


def entry(ticket_id, priority=0, deadline=None):
    return QueuedRequest(
        ticket_id=ticket_id,
        request=HomogeneousSVC(n_vms=2, mean=10.0, std=1.0),
        priority=priority,
        deadline=deadline,
    )


class TestOrdering:
    def test_fifo_within_priority(self):
        queue = FairRequestQueue(MODE_ONLINE)
        for ticket_id in (1, 2, 3):
            queue.push(entry(ticket_id))
        popped = [queue.pop_ready(0.0)[0].ticket_id for _ in range(3)]
        assert popped == [1, 2, 3]

    def test_higher_priority_first(self):
        queue = FairRequestQueue(MODE_ONLINE)
        queue.push(entry(1, priority=0))
        queue.push(entry(2, priority=5))
        queue.push(entry(3, priority=1))
        popped = [queue.pop_ready(0.0)[0].ticket_id for _ in range(3)]
        assert popped == [2, 3, 1]

    def test_empty_queue_pops_none(self):
        queue = FairRequestQueue(MODE_ONLINE)
        ready, expired = queue.pop_ready(0.0)
        assert ready is None and expired == []


class TestDeadlines:
    def test_pop_drains_expired_entries(self):
        queue = FairRequestQueue(MODE_ONLINE)
        queue.push(entry(1, deadline=5.0))
        queue.push(entry(2, deadline=100.0))
        ready, expired = queue.pop_ready(now=10.0)
        assert ready.ticket_id == 2
        assert [e.ticket_id for e in expired] == [1]

    def test_expire_sweeps_ready_and_parked(self):
        queue = FairRequestQueue(MODE_BATCH)
        queue.push(entry(1, deadline=5.0))
        parked = entry(2, deadline=6.0)
        queue.push(parked)
        popped, _ = queue.pop_ready(0.0)
        queue.park(popped)
        expired = queue.expire(now=10.0)
        assert sorted(e.ticket_id for e in expired) == [1, 2]
        assert len(queue) == 0

    def test_no_deadline_never_expires(self):
        queue = FairRequestQueue(MODE_ONLINE)
        queue.push(entry(1))
        assert queue.expire(now=1e12) == []
        assert queue.pop_ready(1e12)[0].ticket_id == 1


class TestTieBreaking:
    """Priority and arrival order are the only keys — deadlines never
    reorder the heap, they only expire entries at pop time."""

    def test_equal_priority_is_fifo_regardless_of_deadlines(self):
        queue = FairRequestQueue(MODE_ONLINE)
        queue.push(entry(1, deadline=100.0))
        queue.push(entry(2, deadline=5.0))  # tighter deadline, later arrival
        queue.push(entry(3))
        popped = [queue.pop_ready(0.0)[0].ticket_id for _ in range(3)]
        assert popped == [1, 2, 3]

    def test_priority_beats_earlier_deadline(self):
        queue = FairRequestQueue(MODE_ONLINE)
        queue.push(entry(1, priority=0, deadline=1.0))
        queue.push(entry(2, priority=3, deadline=1000.0))
        ready, expired = queue.pop_ready(now=0.5)
        assert ready.ticket_id == 2
        assert expired == []

    def test_expired_ties_drain_in_arrival_order(self):
        queue = FairRequestQueue(MODE_ONLINE)
        queue.push(entry(1, deadline=5.0))
        queue.push(entry(2, deadline=5.0))
        queue.push(entry(3, deadline=100.0))
        ready, expired = queue.pop_ready(now=10.0)
        assert ready.ticket_id == 3
        assert [e.ticket_id for e in expired] == [1, 2]

    def test_parked_retry_keeps_original_seq_among_equal_priorities(self):
        queue = FairRequestQueue(MODE_BATCH)
        queue.push(entry(1))
        queue.push(entry(2))
        first, _ = queue.pop_ready(0.0)
        queue.park(first)
        queue.push(entry(3))  # arrives while ticket 1 waits parked
        queue.requeue_parked()
        order = [queue.pop_ready(0.0)[0].ticket_id for _ in range(3)]
        assert order == [1, 2, 3]

    def test_sort_key_is_priority_then_seq(self):
        high_late = entry(1, priority=5)
        high_late.seq = 9
        low_early = entry(2, priority=0)
        low_early.seq = 1
        assert high_late.sort_key() < low_early.sort_key()
        first = entry(3)
        second = entry(4)
        second.seq = 1  # push() assigns seq; deadlines are not in the key
        assert first.sort_key() < second.sort_key()


class TestBatchParking:
    def test_online_mode_rejects_parking(self):
        queue = FairRequestQueue(MODE_ONLINE)
        with pytest.raises(ValueError, match="batch mode"):
            queue.park(entry(1))

    def test_parked_requests_keep_fifo_position_on_retry(self):
        queue = FairRequestQueue(MODE_BATCH)
        for ticket_id in (1, 2, 3):
            queue.push(entry(ticket_id))
        first, _ = queue.pop_ready(0.0)
        queue.park(first)  # rejected, waits for a departure
        assert queue.parked_count == 1
        assert queue.requeue_parked() == 1
        # Ticket 1 arrived first, so it is retried before 2 and 3.
        order = [queue.pop_ready(0.0)[0].ticket_id for _ in range(3)]
        assert order == [1, 2, 3]

    def test_drain_returns_everything_in_order(self):
        queue = FairRequestQueue(MODE_BATCH)
        for ticket_id in (1, 2):
            queue.push(entry(ticket_id))
        popped, _ = queue.pop_ready(0.0)
        queue.park(popped)
        drained = queue.drain()
        assert [e.ticket_id for e in drained] == [1, 2]
        assert len(queue) == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown queue mode"):
            FairRequestQueue("bursty")
