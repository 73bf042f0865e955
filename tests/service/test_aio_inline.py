"""The front door runs commands on the event-loop thread.

A ``wait:true`` submit is one enqueue plus one decision step on the loop; the
fair queue, the workers' path for ``wait:false``, the crash freeze and the
order of a connection's replies are what these tests pin.  The door is served
in-process so the tests can hold the workers back (``_running = True`` with no
thread started, as ``test_batching`` does) and look at the service directly.
"""

import json
import socket
import threading
import time

import pytest

from repro.abstractions import HomogeneousSVC
from repro.faults.failpoints import FAILPOINTS, FP_WORKER_BEFORE_JOURNAL
from repro.manager.network_manager import NetworkManager
from repro.service.client import ServiceClient
from repro.service.codec import network_state_to_dict
from repro.service.concurrency import AdmissionService
from repro.service.journal import DurabilityStore
from repro.service.recovery import oracle_replay, recover_manager
from tests.service.conftest import served_front_door as served

REQUEST = HomogeneousSVC(n_vms=2, mean=10.0, std=1.0)


def held_back(tree, **kwargs):
    """A service that accepts submits while no worker thread exists yet."""
    service = AdmissionService(NetworkManager(tree), workers=1, **kwargs)
    service._running = True
    return service


def release_workers(service):
    service._running = False
    service.start()


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestInlineSubmit:
    def test_wait_true_is_decided_in_fair_queue_order(self, tiny_tree):
        service = held_back(tiny_tree)
        try:
            with served(service) as port:
                queued = [
                    service.submit(REQUEST, wait=False, tenant="a") for _ in range(3)
                ]
                replies = []

                def submit_b():
                    with ServiceClient(port=port, timeout=15) as client:
                        replies.append(client.submit(REQUEST, tenant="b"))

                thread = threading.Thread(target=submit_b)
                thread.start()
                # The loop's one step served the head of the fair queue —
                # tenant a's first entry, not the submit that ran the step.
                wait_until(lambda: service.counters.admitted == 1)
                assert queued[0].outcome == "admitted"
                time.sleep(0.1)
                assert not replies, "b was answered ahead of its turn"
                assert service.queue_depths() == (3, 0)
                release_workers(service)
                thread.join(15)
                assert all(ticket.wait(15) for ticket in queued)
            # DRR alternates the two lanes: a, b, a, a.
            assert replies[0]["outcome"] == "admitted"
            assert [t.request_id for t in queued] == [1, 3, 4]
            assert replies[0]["request_id"] == 2
        finally:
            service.stop()

    def test_wait_true_alone_never_needs_a_worker(self, tiny_tree):
        service = held_back(tiny_tree)
        try:
            with served(service) as port:
                with ServiceClient(port=port, timeout=15) as client:
                    reply = client.submit(REQUEST)
                    assert reply["outcome"] == "admitted"
                    assert client.status(reply["ticket"])["outcome"] == "admitted"
                    assert client.release(reply["request_id"])["released"] == 1
                names = [thread.name for thread in threading.enumerate()]
            assert not [name for name in names if name.startswith("aio-bridge")]
            assert not [name for name in names if name.startswith("admission-worker")]
        finally:
            service.stop()

    def test_wait_false_answers_queued_and_status_returns_the_decision(
        self, tiny_tree
    ):
        service = held_back(tiny_tree)
        try:
            with served(service) as port:
                with ServiceClient(port=port, timeout=15) as client:
                    reply = client.submit(REQUEST, wait=False)
                    assert reply["outcome"] == "queued"
                    assert service.counters.admitted == 0, "decided on the loop"
                    assert client.status(reply["ticket"])["outcome"] == "queued"
                    release_workers(service)
                    wait_until(
                        lambda: client.status(reply["ticket"])["outcome"] != "queued"
                    )
                    decided = client.status(reply["ticket"])
            assert decided["outcome"] == "admitted"
            assert decided["request_id"] == 1
        finally:
            service.stop()


class TestCrashOnTheLoopThread:
    @pytest.fixture(autouse=True)
    def clean_failpoints(self):
        FAILPOINTS.clear()
        yield
        FAILPOINTS.clear()

    def test_crash_before_journal_freezes_the_service(self, tiny_tree, tmp_path):
        store = DurabilityStore(tmp_path / "journal")
        service = held_back(tiny_tree, store=store)
        with served(service) as port:
            with ServiceClient(port=port, timeout=15) as client:
                assert client.submit(REQUEST)["outcome"] == "admitted"
                FAILPOINTS.arm(FP_WORKER_BEFORE_JOURNAL, "crash", max_hits=1)
                reply = client.submit(REQUEST, wait_timeout=0.3)
        # Frozen as by a worker's crash: nothing acknowledged, nothing resolved.
        assert reply["outcome"] == "queued"
        assert service.crashed and not service.running
        assert service.status(reply["ticket"])["outcome"] == "queued"
        with pytest.raises(RuntimeError, match="not running"):
            service.submit(REQUEST, wait=False)
        store.close()

        reopened = DurabilityStore(tmp_path / "journal")
        recovered, _report = recover_manager(reopened, tiny_tree)
        reopened.close()
        oracle_state, oracle_active = oracle_replay(
            tmp_path / "journal" / "wal.jsonl", tiny_tree
        )
        assert network_state_to_dict(recovered.state) == (
            network_state_to_dict(oracle_state)
        )
        # The admission that crashed before its record never happened.
        assert [t.request_id for t in recovered.tenancies()] == [1] == sorted(
            oracle_active
        )


class SlowManager(NetworkManager):
    """A manager whose every admission takes a while (a large het DP)."""

    delay_s = 0.5

    def request(self, request, batch=None):
        time.sleep(self.delay_s)
        return super().request(request, batch=batch)


class TestSlowCommandOnTheLoop:
    def test_second_connection_is_delayed_not_dropped_or_reordered(self, tiny_tree):
        service = AdmissionService(SlowManager(tiny_tree), workers=1)
        service._running = True
        try:
            with served(service) as port:
                slow_reply = []

                def slow_submit():
                    with ServiceClient(port=port, timeout=15) as client:
                        slow_reply.append(client.submit(REQUEST))

                thread = threading.Thread(target=slow_submit)
                with socket.create_connection(("127.0.0.1", port), 15) as sock:
                    thread.start()
                    time.sleep(0.15)  # the DP now holds the loop
                    started = time.monotonic()
                    sock.sendall(
                        b'{"op": "ping"}\n{"op": "status", "ticket": 999}\n'
                        b'{"op": "ping"}\n'
                    )
                    lines = sock.makefile("rb")
                    answers = [json.loads(lines.readline()) for _ in range(3)]
                    elapsed = time.monotonic() - started
                thread.join(15)
            assert slow_reply[0]["outcome"] == "admitted"
            assert elapsed >= 0.2, "the loop was not held: the DP ran elsewhere"
            assert [answer.get("pong", False) for answer in answers] == [
                True, False, True,
            ]
            assert "unknown ticket 999" in answers[1]["error"]
        finally:
            service.stop()
