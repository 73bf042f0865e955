"""Recovery decodes one checkpoint and the tail, and checkpoints only shorten
the fold.

``recover_manager`` loads the newest checkpoint and folds only the segments
after it, once; the idempotency window comes back from the sidecars.  The
property below drives a keyed stream of every journaled op through a store
that checkpoints every few records and archives the segments it retires,
tears the tail, then checks recovery against the never-compacted history:
the fold of every segment from seq 1, :func:`oracle_replay`, and the window
of its last keyed decisions.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abstractions import HomogeneousSVC
from repro.manager.network_manager import NetworkManager
from repro.service.codec import network_state_to_dict
from repro.service.concurrency import OUTCOME_ADMITTED, AdmissionService
from repro.service.journal import (
    WAL_NAME,
    ArchivingStore,
    DurabilityStore,
    Journal,
    KeyWindow,
    archived_segments,
    keyed_decision,
    never_compacted,
    segment_paths,
)
from repro.service.recovery import oracle_replay, recover_manager
from repro.topology.builder import TINY_SPEC, build_datacenter

TREE = build_datacenter(TINY_SPEC)


def test_recover_manager_decodes_the_journal_once_after_open(tmp_path, monkeypatch):
    store = DurabilityStore(tmp_path, snapshot_every=3)
    with AdmissionService(NetworkManager(TREE), store=store, workers=1) as service:
        for index in range(8):
            service.submit(
                HomogeneousSVC(n_vms=2, mean=40.0, std=8.0),
                wait=True, idempotency_key=f"k{index}",
            )
    store.close()

    store = DurabilityStore(tmp_path)
    calls = []
    iter_records = Journal.iter_records

    def counted(source, *args, **kwargs):
        calls.append(list(source))
        return iter_records(source, *args, **kwargs)

    monkeypatch.setattr(Journal, "iter_records", staticmethod(counted))
    _manager, report = recover_manager(store, TREE)
    store.close()
    assert report.used_snapshot
    # Only the segment after the checkpoint at seq 6 is decoded ...
    assert calls == [[store.journal.active_path]]
    assert report.replayed_records == 2
    # ... and every key still comes back.
    assert [key for key, *_ in report.idempotency_index.decisions()] == [
        f"k{index}" for index in range(8)
    ]


#: One op of the stream: (kind, size, pick).  ``pick`` chooses the tenant a
#: release or resize acts on; ``size`` is the VM count.
OPS = st.lists(
    st.tuples(
        st.sampled_from(["submit", "reject", "release", "resize", "adopt", "snapshot"]),
        st.integers(1, 6),
        st.integers(0, 1_000),
    ),
    min_size=1,
    max_size=24,
)


def drive(directory, ops, snapshot_every):
    """Run ``ops`` through a journaled service; every decision is keyed."""
    store = ArchivingStore(directory, snapshot_every=snapshot_every, keep_snapshots=2)
    manager = NetworkManager(TREE)
    with AdmissionService(manager, store=store, workers=1) as service:
        active = []
        for index, (kind, size, pick) in enumerate(ops):
            key = f"op-{index}"
            request = HomogeneousSVC(n_vms=size, mean=30.0 + 10 * size, std=8.0)
            if kind in ("submit", "reject"):
                if kind == "reject":
                    request = HomogeneousSVC(n_vms=10_000, mean=1.0, std=0.1)
                ticket = service.submit(request, wait=True, idempotency_key=key)
                if ticket.outcome == OUTCOME_ADMITTED:
                    active.append(ticket.request_id)
            elif kind == "adopt":
                allocation = manager.allocator.allocate(manager.state, request, 0)
                if allocation is not None:
                    active.append(service.adopt(allocation, idempotency_key=key))
            elif kind == "snapshot":
                service.take_snapshot()
            elif active and kind == "release":
                assert service.release(active.pop(pick % len(active)))
            elif active:
                target = active[pick % len(active)]
                service.resize(target, new_n=size, idempotency_key=key)
    store.close()


def recovered(directory):
    store = DurabilityStore(directory)
    try:
        manager, report = recover_manager(store, TREE)
    finally:
        store.close()
    return {
        "state": network_state_to_dict(manager.state),
        "active": sorted(t.request_id for t in manager.tenancies()),
        "admitted": manager.admitted_count,
        "rejected": manager.rejected_count,
        "resizes": dict(manager.resize_counts),
        "next_request_id": manager.next_request_id,
    }, report


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=OPS, tear=st.floats(0.0, 0.99), every=st.integers(2, 5))
def test_snapshots_only_shorten_the_fold(ops, tear, every):
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "source"
        drive(source, ops, every)
        # Tear the active segment's last record at a random byte (0 keeps it).
        segments = segment_paths(source / WAL_NAME)
        content = segments[-1].read_bytes() if segments else b""
        if content:
            wal = segments[-1]
            last = content.rstrip(b"\n").rsplit(b"\n", 1)[-1]
            cut = int(tear * len(last))
            if cut:
                wal.write_bytes(content[: len(content) - len(last) - 1 + cut])

        with_checkpoints, report = recovered(source)
        history = archived_segments(source / WAL_NAME)
        bare, _bare_report = recovered(never_compacted(source, Path(tmp) / "bare"))
        assert bare == with_checkpoints
        state, active = oracle_replay(history, TREE)
        assert network_state_to_dict(state) == with_checkpoints["state"]
        assert sorted(active) == with_checkpoints["active"]
        window = KeyWindow.rebuild(
            entry
            for entry in map(keyed_decision, Journal.iter_records(history))
            if entry is not None
        )
        assert report.idempotency_index.decisions() == window.decisions()
