"""WAL append/replay, torn-tail handling, snapshots, retention."""

import json

import pytest

from repro.faults.failpoints import (
    FAILPOINTS,
    FP_JOURNAL_FSYNC,
    FP_JOURNAL_WRITE,
    FailpointError,
    InjectedCrash,
)
from repro.service.journal import DurabilityStore, Journal, ReplaySummary


@pytest.fixture()
def failpoints():
    FAILPOINTS.clear()
    yield FAILPOINTS
    FAILPOINTS.clear()


class TestJournal:
    def test_append_assigns_monotonic_seq(self, tmp_path):
        with Journal(tmp_path / "wal.jsonl") as journal:
            assert journal.append("admit", x=1) == 1
            assert journal.append("release", x=2) == 2
            assert journal.next_seq == 3

    def test_replay_returns_records_in_order(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with Journal(path) as journal:
            for index in range(5):
                journal.append("admit", index=index)
        records = Journal.replay(path)
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]
        assert [r["index"] for r in records] == list(range(5))

    def test_torn_tail_is_ignored(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with Journal(path) as journal:
            journal.append("admit", index=0)
            journal.append("admit", index=1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "op": "adm')  # torn mid-write
        summary = ReplaySummary()
        records = list(Journal.iter_records(path, summary=summary))
        assert [r["seq"] for r in records] == [1, 2]
        assert summary.torn_tail

    def test_out_of_order_seq_stops_replay(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        lines = [
            {"seq": 1, "op": "admit"},
            {"seq": 2, "op": "admit"},
            {"seq": 7, "op": "admit"},  # gap: untrusted from here on
            {"seq": 8, "op": "admit"},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert [r["seq"] for r in Journal.replay(path)] == [1, 2]

    def test_reopen_truncates_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        with Journal(path) as journal:
            journal.append("admit", index=0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn')
        with Journal(path) as journal:
            # The torn line must not shadow the records appended after it.
            assert journal.append("admit", index=1) == 2
        records = Journal.replay(path)
        assert [r["seq"] for r in records] == [1, 2]
        assert [r["index"] for r in records] == [0, 1]

    def test_missing_file_replays_empty(self, tmp_path):
        assert Journal.replay(tmp_path / "absent.jsonl") == []


class TestFailedAppend:
    """A record whose append raised was never acknowledged.

    It must be gone from the file at once, not at the next append: the
    process may stop before there is one, and recovery would replay it.
    """

    def test_failed_fsync_leaves_no_record_without_a_further_append(
        self, tmp_path, failpoints
    ):
        path = tmp_path / "wal.jsonl"
        journal = Journal(path, fsync=True)
        journal.append("admit", index=0)
        failpoints.arm(FP_JOURNAL_FSYNC, "error", max_hits=1)
        with pytest.raises(FailpointError):
            journal.append("admit", index=1)  # written in full, then fsync fails
        assert journal.next_seq == 2
        journal.close()  # the process stops here: no repairing append follows
        assert [r["index"] for r in Journal.replay(path)] == [0]
        with Journal(path) as reopened:
            assert reopened.next_seq == 2
            assert reopened.append("admit", index=2) == 2
        assert [r["index"] for r in Journal.replay(path)] == [0, 2]

    def test_torn_write_is_truncated_at_once(self, tmp_path, failpoints):
        path = tmp_path / "wal.jsonl"
        journal = Journal(path)
        journal.append("admit", index=0)
        intact = path.read_bytes()
        failpoints.arm(FP_JOURNAL_WRITE, "corrupt", max_hits=1)
        with pytest.raises(FailpointError):
            journal.append("admit", index=1)
        assert path.read_bytes() == intact
        journal.close()

    def test_a_failed_truncate_is_retried_by_the_next_append(
        self, tmp_path, failpoints, monkeypatch
    ):
        path = tmp_path / "wal.jsonl"
        journal = Journal(path, fsync=True)
        journal.append("admit", index=0)
        repair = journal._repair_tail

        def broken():
            raise OSError("injected: truncate failed")

        monkeypatch.setattr(journal, "_repair_tail", broken)
        failpoints.arm(FP_JOURNAL_FSYNC, "error", max_hits=1)
        with pytest.raises(FailpointError):
            journal.append("admit", index=1)
        monkeypatch.setattr(journal, "_repair_tail", repair)
        assert journal.append("admit", index=2) == 2
        journal.close()
        assert [r["index"] for r in Journal.replay(path)] == [0, 2]

    def test_a_crash_inside_the_write_leaves_the_bytes_for_reopen(
        self, tmp_path, monkeypatch
    ):
        # A dead process truncates nothing: what the crash left is trimmed
        # by the next open (_recover_tail), as after a real power loss.
        path = tmp_path / "wal.jsonl"
        journal = Journal(path)
        journal.append("admit", index=0)
        intact = path.read_bytes()
        write = journal._file.write

        def dies_mid_write(data):
            write(data[: len(data) // 2])
            journal._file.flush()
            raise InjectedCrash("power loss mid-write")

        monkeypatch.setattr(journal, "_file", _WriteProxy(journal._file, dies_mid_write))
        with pytest.raises(InjectedCrash):
            journal.append("admit", index=1)
        journal.close()
        assert len(path.read_bytes()) > len(intact)  # the half line is on disk
        with Journal(path) as reopened:
            assert reopened.next_seq == 2
        assert path.read_bytes() == intact


class _WriteProxy:
    """A file object whose ``write`` is replaced (built-in files refuse setattr)."""

    def __init__(self, handle, write):
        self._handle = handle
        self.write = write

    def __getattr__(self, name):
        return getattr(self._handle, name)


class TestDurabilityStore:
    def test_snapshot_round_trip(self, plain_store):
        plain_store.log_release(1)
        payload = {"hello": [1, 2, 3]}
        plain_store.write_snapshot(payload)
        seq, state = plain_store.latest_snapshot()
        assert seq == 1
        assert state == payload

    def test_latest_snapshot_skips_corrupt_files(self, plain_store):
        plain_store.log_release(1)
        plain_store.write_snapshot({"generation": "old"})
        plain_store.log_release(2)
        plain_store.write_snapshot({"generation": "new"})
        newest_seq, path = plain_store.snapshot_paths()[0]
        path.write_text("{ corrupt json")
        seq, state = plain_store.latest_snapshot()
        assert seq < newest_seq
        assert state == {"generation": "old"}

    def test_should_snapshot_counts_records(self, tmp_path):
        store = DurabilityStore(tmp_path / "j", snapshot_every=3)
        assert not store.should_snapshot()
        for request_id in range(3):
            store.log_release(request_id)
        assert store.should_snapshot()
        store.write_snapshot({})
        assert not store.should_snapshot()
        store.close()

    def test_snapshot_retention_prunes_old_files(self, tmp_path):
        store = DurabilityStore(tmp_path / "j", keep_snapshots=2)
        for round_ in range(5):
            store.log_release(round_)
            store.write_snapshot({"round": round_})
        assert len(store.snapshot_paths()) == 2
        _seq, state = store.latest_snapshot()
        assert state == {"round": 4}
        store.close()

    def test_config_round_trip(self, plain_store):
        assert plain_store.read_config() is None
        plain_store.write_config({"scale": "tiny", "epsilon": 0.02})
        assert plain_store.read_config() == {"scale": "tiny", "epsilon": 0.02}

    def test_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            DurabilityStore(tmp_path / "a", snapshot_every=0)
        with pytest.raises(ValueError):
            DurabilityStore(tmp_path / "b", keep_snapshots=0)
