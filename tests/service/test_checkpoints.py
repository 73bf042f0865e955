"""Checkpoints, WAL segments and sidecars: a restart reads one checkpoint
and a bounded tail, and equals the fold of the never-compacted history.

Every store here archives the segments its checkpoints retire
(:class:`ArchivingStore`), so :func:`oracle_replay` and the idempotency
window of the whole history stay the referee.  The crash points are the
three steps after a checkpoint's rename: the roll, the first deletion and
the next one.
"""

import json

import pytest

import repro.service.journal as journal_module
from repro.abstractions import HomogeneousSVC
from repro.faults.failpoints import FAILPOINTS, FP_SNAPSHOT_WRITE, InjectedCrash
from repro.service.codec import network_state_to_dict
from repro.service.concurrency import OUTCOME_ADMITTED, AdmissionService
from repro.service.degrade import STATE_FULL
from repro.service.journal import (
    ARCHIVE_DIR,
    WAL_NAME,
    ArchivingStore,
    DurabilityStore,
    Journal,
    KeyWindow,
    archived_segments,
    keyed_decision,
    segment_paths,
)
from repro.service.recovery import oracle_replay, recover_manager
from repro.topology.builder import TINY_SPEC, build_datacenter

TREE = build_datacenter(TINY_SPEC)
REQUEST = HomogeneousSVC(n_vms=1, mean=20.0, std=4.0)


@pytest.fixture(autouse=True)
def _disarm():
    FAILPOINTS.clear()
    yield
    FAILPOINTS.clear()


def churn(service, keys):
    """Keyed submits; every other admitted tenant is released again."""
    for index, key in enumerate(keys):
        ticket = service.submit(REQUEST, wait=True, idempotency_key=key)
        if ticket.outcome == OUTCOME_ADMITTED and index % 2:
            assert service.release(ticket.request_id)


def serve(store):
    """Recover ``store`` and serve it (the caller stops the service)."""
    manager, report = recover_manager(store, TREE)
    return AdmissionService(
        manager, store=store, workers=1, idempotency_index=report.idempotency_index
    ).start()


def history_window(directory, capacity):
    history = archived_segments(directory / WAL_NAME)
    entries = (e for e in map(keyed_decision, Journal.iter_records(history)) if e)
    return KeyWindow.rebuild(entries, capacity).decisions()


def assert_matches_history(directory, key_window=None):
    """Recover ``directory`` and hold it against its never-compacted history."""
    store = DurabilityStore(directory)
    if key_window is not None:
        store.journal.key_window = key_window
    try:
        manager, report = recover_manager(store, TREE)
    finally:
        store.close()
    state, active = oracle_replay(archived_segments(directory / WAL_NAME), TREE)
    assert network_state_to_dict(manager.state) == network_state_to_dict(state)
    assert sorted(t.request_id for t in manager.tenancies()) == sorted(active)
    assert report.idempotency_index.decisions() == history_window(
        directory, store.journal.key_window
    )
    return report


class CrashingStore(ArchivingStore):
    """Dies (``InjectedCrash``) at its ``crash_at``-th segment discard."""

    crash_at = 0

    def discard_segment(self, path):
        self.discards = getattr(self, "discards", 0) + 1
        if self.discards == self.crash_at:
            raise InjectedCrash(f"crash at discard {self.discards}")
        super().discard_segment(path)


def checkpointed_then_crashed(directory, crash):
    """Checkpoints at seqs 4, 8, 12 keeping three, then a checkpoint that
    would retire three segments at once dies at ``crash``."""
    store = CrashingStore(directory, keep_snapshots=3)
    service = serve(store)
    for round_ in range(3):
        churn(service, [f"r{round_}-a", f"r{round_}-b", f"r{round_}-c"])
        service.take_snapshot()
    churn(service, ["last-a", "last-b"])
    store.keep_snapshots = 1
    if crash == "roll":
        def dies():
            raise InjectedCrash("crash before the roll")

        store.journal.roll = dies
    else:
        store.crash_at = store.discards + (1 if crash == "first-discard" else 2)
    with pytest.raises(InjectedCrash):
        service.take_snapshot()
    service.kill()
    store.close()


class TestCrashPoints:
    @pytest.mark.parametrize("crash", ["roll", "first-discard", "second-discard"])
    def test_a_crash_after_the_rename_recovers_and_keeps_appending(self, tmp_path, crash):
        checkpointed_then_crashed(tmp_path, crash)
        report = assert_matches_history(tmp_path)
        assert report.replayed_records == 0  # the renamed checkpoint is the newest
        # The next life checkpoints, rolls and retires normally.
        store = ArchivingStore(tmp_path, snapshot_every=3, keep_snapshots=1)
        service = serve(store)
        churn(service, [f"next-{index}" for index in range(5)])
        service.stop()
        store.close()
        assert_matches_history(tmp_path)
        live = segment_paths(tmp_path / WAL_NAME)
        assert len(live) <= 2  # at most the sealed segment and the active one


class TestCorruptCheckpoint:
    def test_a_corrupt_newest_checkpoint_falls_back_to_the_older_one(self, tmp_path):
        store = ArchivingStore(tmp_path, keep_snapshots=2)
        service = serve(store)
        churn(service, ["a", "b", "c"])
        service.take_snapshot()
        older = store.journal.next_seq - 1
        churn(service, ["d", "e"])
        FAILPOINTS.arm(FP_SNAPSHOT_WRITE, "corrupt", max_hits=1)
        service.take_snapshot()  # written truncated: no roll, nothing retired
        churn(service, ["f"])
        service.kill()
        store.close()
        assert store.snapshot_paths()[0][0] > older
        report = assert_matches_history(tmp_path)
        assert report.snapshot_seq == older

    def test_a_checkpoint_corrupted_on_disk_still_has_an_older_tail(self, tmp_path):
        store = ArchivingStore(tmp_path, keep_snapshots=2)
        service = serve(store)
        for round_ in range(4):
            churn(service, [f"{round_}-a", f"{round_}-b"])
            service.take_snapshot()
        service.stop()
        store.close()
        (newest, path), (older, _path) = store.snapshot_paths()
        path.write_text("{ corrupt")
        report = assert_matches_history(tmp_path)
        assert report.snapshot_seq == older < newest
        assert (tmp_path / ARCHIVE_DIR).exists()  # segments really were retired


class TestLegacyLayout:
    def test_a_single_wal_file_recovers_and_keeps_appending(self, tmp_path):
        store = ArchivingStore(tmp_path)  # no cadence: one wal.jsonl, nothing else
        service = serve(store)
        churn(service, [f"old-{index}" for index in range(6)])
        service.kill()
        store.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == [WAL_NAME]

        assert_matches_history(tmp_path)
        store = ArchivingStore(tmp_path, snapshot_every=4, keep_snapshots=1)
        service = serve(store)
        churn(service, [f"new-{index}" for index in range(6)])
        service.stop()
        store.close()
        assert not (tmp_path / WAL_NAME).exists()  # rolled, then retired
        assert_matches_history(tmp_path)


class TestBoundedRestart:
    def test_every_restart_decodes_at_most_one_cadence(self, tmp_path):
        """Lives that each append less than a cadence still checkpoint: the
        open counts the tail towards the next checkpoint."""
        for life in range(6):
            store = ArchivingStore(tmp_path, snapshot_every=4)
            manager, report = recover_manager(store, TREE)
            assert report.replayed_records <= 4
            service = AdmissionService(
                manager, store=store, workers=1,
                idempotency_index=report.idempotency_index,
            ).start()
            churn(service, [f"{life}-a", f"{life}-b"])
            service.kill()
            store.close()
        assert_matches_history(tmp_path)
        assert len(segment_paths(tmp_path / WAL_NAME)) <= 5

    def test_opening_a_store_writes_nothing(self, tmp_path):
        DurabilityStore(tmp_path / "j", fsync=True).close()
        assert list((tmp_path / "j").iterdir()) == []


class TestIdempotencyWindow:
    def test_sidecars_age_out_and_the_window_survives(self, tmp_path):
        store = ArchivingStore(tmp_path, snapshot_every=3, keep_snapshots=1)
        store.journal.key_window = 4
        service = serve(store)
        churn(service, [f"k{index}" for index in range(16)])
        service.stop()
        store.close()
        sidecars = sorted(p.name for p in tmp_path.glob("*.keys.json"))
        assert 0 < len(sidecars) <= 3
        for sidecar in sidecars:
            assert len(json.loads((tmp_path / sidecar).read_text())) <= 4
        assert_matches_history(tmp_path, key_window=4)

    def test_no_keys_are_written_into_a_checkpoint(self, tmp_path):
        store = DurabilityStore(tmp_path, snapshot_every=4)
        service = serve(store)
        churn(service, [f"key-{index}" for index in range(8)])
        service.stop()
        store.close()
        for _seq, path in store.snapshot_paths():
            assert "key-" not in path.read_text()


class TestFailedRoll:
    @pytest.mark.parametrize("failure", ["open", "directory-fsync"])
    def test_a_roll_that_cannot_create_its_segment_keeps_appending(
        self, tmp_path, monkeypatch, failure
    ):
        """The checkpoint is logged and skipped; the sealed segment stays the
        active one, with no empty successor left behind."""
        original = Journal._create

        def broken_sync(directory):
            raise OSError("injected: directory fsync failed")

        def create(journal, path):
            if path == journal.active_path:
                return original(journal, path)
            if failure == "open":
                raise OSError("injected: cannot create the next segment")
            with monkeypatch.context() as patch:
                patch.setattr(journal_module, "_sync_directory", broken_sync)
                return original(journal, path)

        store = ArchivingStore(tmp_path, fsync=True, snapshot_every=3)
        service = serve(store)
        monkeypatch.setattr(Journal, "_create", create)
        churn(service, ["a", "b", "c", "d"])  # both checkpoints fail to roll
        assert [p.name for p in segment_paths(tmp_path / WAL_NAME)] == [WAL_NAME]
        assert len(store.snapshot_paths()) == 2
        monkeypatch.undo()
        churn(service, ["e", "f"])
        assert service.degradation_state() == STATE_FULL
        service.stop()
        store.close()
        assert [p.name for p in segment_paths(tmp_path / WAL_NAME)] == [
            WAL_NAME, "wal-10.jsonl",
        ]
        assert_matches_history(tmp_path)


class TestDirectoryFsync:
    def test_each_create_rename_and_unlink_syncs_the_directory(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(
            journal_module, "_sync_directory", lambda directory: synced.append(directory)
        )
        store = DurabilityStore(tmp_path, fsync=True, keep_snapshots=1)
        assert synced == []
        store.log_reject({}, idempotency_key="a")
        assert len(synced) == 1  # the first segment is created
        # checkpoint rename, sidecar rename, next segment, first segment unlinked
        store.write_snapshot({})
        assert len(synced) == 5
        store.log_reject({}, idempotency_key="b")
        # ... and the older checkpoint unlinked as well
        store.write_snapshot({})
        assert len(synced) == 10
        store.close()
        assert synced == [tmp_path] * 10
