"""The idempotency window: one type, one order, the same after a restart.

``KeyWindow`` keeps keyed decisions in decision order and a hit never moves
a key, so the window a restart rebuilds from the sidecars and the active
segment is the window the live service kept.  A key answers only ops of
the kind it decided; reused by the other kind it is refused.
"""

import json
import shutil
import socket
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.abstractions import HomogeneousSVC
from repro.manager.network_manager import NetworkManager
from repro.service.codec import CodecError
from repro.service.concurrency import OUTCOME_ADMITTED, OUTCOME_REJECTED, AdmissionService
from repro.service.journal import (
    FORGET,
    KIND_ADMISSION,
    KIND_RESIZE,
    WAL_NAME,
    ArchivingStore,
    DurabilityStore,
    Journal,
    KeyEntry,
    KeyWindow,
    archived_segments,
    keyed_decision,
    never_compacted,
)
from repro.service.recovery import recover_manager
from repro.topology.builder import TINY_SPEC, build_datacenter

from tests.service.conftest import served_front_door

TREE = build_datacenter(TINY_SPEC)
REQUEST = HomogeneousSVC(n_vms=2, mean=40.0, std=8.0)


def keys_of(window):
    return [key for key, *_ in window.decisions()]


class TestKeyWindow:
    def test_a_hit_does_not_move_a_key(self):
        window = KeyWindow(2)
        window.decide("k0", KIND_ADMISSION, "admitted", 1)
        window.decide("k1", KIND_ADMISSION, "rejected", None)
        assert window.lookup("k0", KIND_ADMISSION) == KeyEntry(KIND_ADMISSION, "admitted", 1)
        window.decide("k2", KIND_RESIZE, "in_place", 1)
        assert window.decisions() == [
            ("k1", KIND_ADMISSION, "rejected", None),
            ("k2", KIND_RESIZE, "in_place", 1),
        ]

    def test_a_key_decided_again_joins_the_newest_end(self):
        window = KeyWindow(3)
        for key in ("a", "b", "c"):
            window.decide(key, KIND_ADMISSION, "admitted", key)
        window.forget("a")
        window.decide("a", KIND_ADMISSION, "rejected", None)
        assert keys_of(window) == ["b", "c", "a"]

    def test_a_pending_submit_is_never_evicted_and_fills_no_slot(self):
        window = KeyWindow(1)
        window.pend("waiting", ticket_id=7)
        window.decide("k0", KIND_ADMISSION, "admitted", 1)
        window.decide("k1", KIND_ADMISSION, "admitted", 2)
        assert keys_of(window) == ["k1"]
        assert window.lookup("waiting", KIND_ADMISSION) == KeyEntry(
            KIND_ADMISSION, None, None, 7
        )
        assert window.get("waiting") is None  # no decision yet
        assert len(window) == 2
        window.decide("waiting", KIND_ADMISSION, "rejected", None, ticket_id=7)
        assert keys_of(window) == ["waiting"]
        assert len(window) == 1

    @pytest.mark.parametrize(
        "decided, asked, named",
        [(KIND_ADMISSION, KIND_RESIZE, "an admission"), (KIND_RESIZE, KIND_ADMISSION, "a resize")],
    )
    def test_the_other_kind_is_refused_by_name(self, decided, asked, named):
        window = KeyWindow()
        window.decide("k", decided, "rejected", 3)
        with pytest.raises(CodecError, match=f"already decided {named}"):
            window.lookup("k", asked)
        assert window.lookup("k", decided).outcome == "rejected"

    def test_forgetting_a_request_drops_only_its_admitted_keys(self):
        window = KeyWindow(4)
        window.decide("a", KIND_ADMISSION, "admitted", 1)
        window.decide("b", KIND_RESIZE, "in_place", 1)
        window.decide("c", KIND_ADMISSION, "admitted", 2)
        window.forget_admissions(1)
        assert keys_of(window) == ["b", "c"]
        # The index built by the first forget follows later decisions.
        window.decide("d", KIND_ADMISSION, "admitted", 2)
        window.decide("e", KIND_ADMISSION, "admitted", 3)
        window.decide("f", KIND_ADMISSION, "admitted", 3)  # evicts b
        window.forget_admissions(2)
        assert keys_of(window) == ["e", "f"]
        window.forget_admissions(3)
        assert window.decisions() == []


ENTRY = st.one_of(
    st.tuples(
        st.sampled_from("abcdef"),
        st.sampled_from(["admitted", "rejected"]),
        st.integers(0, 3),
    ).map(list),
    st.tuples(
        st.sampled_from("abcdef"),
        st.sampled_from(["in_place", "replaced", "rejected"]),
        st.integers(0, 3),
    ).map(lambda entry: [*entry, True]),
    st.integers(0, 3).map(lambda request_id: [None, FORGET, request_id]),
)


@given(entries=st.lists(ENTRY, max_size=40), capacity=st.sampled_from([1, 3, 64]))
@settings(max_examples=300, deadline=None)
def test_the_rebuilt_window_is_the_live_one(entries, capacity):
    """Folding a journal's key entries gives what deciding them one by one
    gave, forgets and evictions included."""
    live = KeyWindow(capacity)
    for key, outcome, request_id, *resize in entries:
        if key is None:
            live.forget_admissions(request_id)
        else:
            live.forget(key)
            live.decide(key, KIND_RESIZE if resize else KIND_ADMISSION, outcome, request_id)
    assert KeyWindow.rebuild(entries, capacity).decisions() == live.decisions()


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------


def open_store(directory, capacity, store_class=DurabilityStore, **kwargs):
    store = store_class(directory, **kwargs)
    store.journal.key_window = capacity
    return store


def restart(directory, capacity, store_class=DurabilityStore, **kwargs):
    """Recover ``directory`` into a running service (window of ``capacity``)."""
    store = open_store(directory, capacity, store_class, **kwargs)
    manager, report = recover_manager(store, TREE)
    service = AdmissionService(
        manager, store=store, workers=1, idempotency_index=report.idempotency_index
    ).start()
    return store, service


class TestReusedKey:
    def test_a_resize_cannot_reuse_a_submit_key(self):
        with AdmissionService(NetworkManager(TREE), workers=1) as service:
            ticket = service.submit(REQUEST, wait=True, idempotency_key="k")
            with pytest.raises(CodecError, match="already decided an admission"):
                service.resize(ticket.request_id, new_n=3, idempotency_key="k")
            assert service.manager.tenancy(ticket.request_id).n_vms == 2

    def test_a_submit_cannot_reuse_a_resize_key(self):
        with AdmissionService(NetworkManager(TREE), workers=1) as service:
            ticket = service.submit(REQUEST, wait=True)
            service.resize(ticket.request_id, new_n=3, idempotency_key="rs")
            with pytest.raises(CodecError, match="already decided a resize"):
                service.submit(REQUEST, wait=True, idempotency_key="rs")
            assert service.manager.active_tenancies == 1
            assert service.counters.submitted == 1

    def test_an_adopt_cannot_reuse_a_resize_key(self):
        with AdmissionService(NetworkManager(TREE), workers=1) as service:
            ticket = service.submit(REQUEST, wait=True)
            service.resize(ticket.request_id, new_n=3, idempotency_key="rs")
            placed = NetworkManager(TREE).request(REQUEST).allocation
            with pytest.raises(CodecError, match="already decided a resize"):
                service.adopt(placed, idempotency_key="rs")
            assert service.manager.active_tenancies == 1

    def test_the_refusal_survives_a_restart(self, tmp_path):
        store, service = restart(tmp_path, 16)
        try:
            ticket = service.submit(REQUEST, wait=True, idempotency_key="k")
            service.resize(ticket.request_id, new_n=3, idempotency_key="rs")
        finally:
            service.kill()
            store.close()
        store, service = restart(tmp_path, 16)
        try:
            with pytest.raises(CodecError, match="already decided an admission"):
                service.resize(ticket.request_id, new_n=4, idempotency_key="k")
            with pytest.raises(CodecError, match="already decided a resize"):
                service.submit(REQUEST, wait=True, idempotency_key="rs")
        finally:
            service.stop()
            store.close()

    def test_the_wire_answers_ok_false(self):
        with AdmissionService(NetworkManager(TREE), workers=1) as service:
            with served_front_door(service) as port:
                with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
                    stream = sock.makefile("rwb")

                    def call(**command):
                        stream.write(json.dumps(command).encode() + b"\n")
                        stream.flush()
                        return json.loads(stream.readline())

                    request = {"kind": "homogeneous", "n_vms": 2, "mean": 40.0, "std": 8.0}
                    first = call(op="submit", request=request, idem="k")
                    assert first["outcome"] == OUTCOME_ADMITTED
                    refused = call(
                        op="resize", request_id=first["request_id"], new_n=3, idem="k"
                    )
                    assert refused["ok"] is False
                    assert "already decided an admission" in refused["error"]
                    call(op="resize", request_id=first["request_id"], new_n=3, idem="rs")
                    refused = call(op="submit", request=request, idem="rs")
                    assert refused["ok"] is False
                    assert "already decided a resize" in refused["error"]


class TestWindowOrder:
    """Capacity 2: k0, k1, a retry of k0, then k2 keep ``[k1, k2]`` — the
    retry is a hit and moves nothing, restart or not."""

    def test_straight_through(self, tmp_path):
        store = open_store(tmp_path, 2)
        with AdmissionService(
            NetworkManager(TREE), store=store, workers=1, idempotency_index=KeyWindow(2)
        ) as service:
            first = service.submit(REQUEST, wait=True, idempotency_key="k0")
            service.submit(REQUEST, wait=True, idempotency_key="k1")
            assert service.submit(REQUEST, wait=True, idempotency_key="k0") is first
            service.submit(REQUEST, wait=True, idempotency_key="k2")
            assert keys_of(service._keys) == ["k1", "k2"]
        store.close()

    def test_with_a_restart_before_the_retry(self, tmp_path):
        store, service = restart(tmp_path, 2)
        try:
            first = service.submit(REQUEST, wait=True, idempotency_key="k0")
            service.submit(REQUEST, wait=True, idempotency_key="k1")
        finally:
            service.kill()
            store.close()
        store, service = restart(tmp_path, 2)
        try:
            retry = service.submit(REQUEST, wait=True, idempotency_key="k0")
            assert (retry.outcome, retry.request_id) == (first.outcome, first.request_id)
            service.submit(REQUEST, wait=True, idempotency_key="k2")
            assert keys_of(service._keys) == ["k1", "k2"]
        finally:
            service.kill()
            store.close()
        store, service = restart(tmp_path, 2)
        try:
            assert keys_of(service._keys) == ["k1", "k2"]
        finally:
            service.stop()
            store.close()

    def test_an_expired_submit_frees_its_key(self):
        with AdmissionService(
            NetworkManager(TREE), workers=1, default_timeout_s=0.0
        ) as service:
            ticket = service.submit(REQUEST, wait=True, idempotency_key="late")
            assert ticket.outcome == "expired"
            assert len(service._keys) == 0


# ----------------------------------------------------------------------
# Live window == restarted window (state machine)
# ----------------------------------------------------------------------

KEYS = st.sampled_from([f"key-{index}" for index in range(6)])
SIZES = st.integers(min_value=1, max_value=4)


class ServiceWindowMachine(RuleBasedStateMachine):
    """Keyed submits, resizes and adopts (reusing keys, across kinds),
    unkeyed releases, checkpoints every few records, and crashes with a
    restart at random points.  A model of the window checks every reply and
    the window's order; every restart must bring back the live window, the
    window of the never-compacted copy and the fold of the whole history."""

    CAPACITY = 4
    EVERY = 3

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="key-window-"))
        self.directory = self.root / "live"
        self.copies = 0
        #: The model: ``[key, (kind, outcome, request_id)]``, oldest first.
        self.model = []
        self.active = []
        self.store, self.service = self.start()

    def start(self):
        return restart(
            self.directory, self.CAPACITY, ArchivingStore, snapshot_every=self.EVERY
        )

    def teardown(self):
        self.service.stop()
        self.store.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def known(self, key):
        return dict(self.model).get(key)

    def decided(self, key, kind, outcome, request_id):
        self.model.append([key, (kind, outcome, request_id)])
        del self.model[: -self.CAPACITY]

    @rule(key=KEYS, size=SIZES)
    def submit(self, key, size):
        known = self.known(key)
        request = HomogeneousSVC(n_vms=size, mean=40.0, std=8.0)
        if known is not None and known[0] == KIND_RESIZE:
            with pytest.raises(CodecError):
                self.service.submit(request, wait=True, idempotency_key=key)
            return
        ticket = self.service.submit(request, wait=True, idempotency_key=key)
        assert ticket.outcome in (OUTCOME_ADMITTED, OUTCOME_REJECTED)
        if known is not None:
            assert (ticket.outcome, ticket.request_id) == known[1:]
            return
        self.decided(key, KIND_ADMISSION, ticket.outcome, ticket.request_id)
        if ticket.outcome == OUTCOME_ADMITTED:
            self.active.append(ticket.request_id)

    @precondition(lambda self: self.active)
    @rule(key=KEYS, pick=st.integers(min_value=0), size=SIZES)
    def resize(self, key, pick, size):
        request_id = self.active[pick % len(self.active)]
        known = self.known(key)
        if known is not None and known[0] == KIND_ADMISSION:
            with pytest.raises(CodecError):
                self.service.resize(request_id, new_n=size, idempotency_key=key)
            return
        decision = self.service.resize(request_id, new_n=size, idempotency_key=key)
        if known is not None:
            assert (decision["outcome"], decision["request_id"]) == known[1:]
            return
        self.decided(key, KIND_RESIZE, decision["outcome"], request_id)

    @rule(key=KEYS, size=SIZES)
    def adopt(self, key, size):
        placer = NetworkManager(TREE)
        for tenancy in self.service.manager.tenancies():
            placer.adopt(tenancy.allocation)
        tenancy = placer.request(HomogeneousSVC(n_vms=size, mean=40.0, std=8.0))
        if tenancy is None:
            return
        known = self.known(key)
        if known is not None and known[:2] != (KIND_ADMISSION, OUTCOME_ADMITTED):
            with pytest.raises(CodecError):
                self.service.adopt(tenancy.allocation, idempotency_key=key)
            return
        request_id = self.service.adopt(tenancy.allocation, idempotency_key=key)
        if known is not None:
            assert request_id == known[2]
            return
        self.decided(key, KIND_ADMISSION, OUTCOME_ADMITTED, request_id)
        self.active.append(request_id)

    @precondition(lambda self: self.active)
    @rule(pick=st.integers(min_value=0))
    def release(self, pick):
        request_id = self.active.pop(pick % len(self.active))
        assert self.service.release(request_id)

    @rule()
    def crash_and_restart(self):
        before = self.service._keys.decisions()
        self.service.kill()
        self.store.close()
        self.copies += 1
        bare = never_compacted(self.directory, self.root / f"bare-{self.copies}")
        self.store, self.service = self.start()
        assert self.service._keys.decisions() == before
        bare_store = open_store(bare, self.CAPACITY)
        try:
            _manager, report = recover_manager(bare_store, TREE)
        finally:
            bare_store.close()
        assert report.idempotency_index.decisions() == before
        history = Journal.iter_records(archived_segments(self.directory / WAL_NAME))
        entries = (entry for entry in map(keyed_decision, history) if entry)
        assert KeyWindow.rebuild(entries, self.CAPACITY).decisions() == before

    @invariant()
    def the_window_is_the_model(self):
        assert self.service._keys.decisions() == [
            (key, *decision) for key, decision in self.model
        ]


TestServiceWindow = ServiceWindowMachine.TestCase
TestServiceWindow.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
