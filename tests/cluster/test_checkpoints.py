"""Coordinator and shard checkpoints: a cluster restart reads one checkpoint
and a bounded tail per journal, and reaches the never-compacted fold.

Every journal here checkpoints every two records and archives the segments
it retires; a restart from the checkpointed directory must give the same
``cluster_view`` (orphan numbering included) as a restart from the archive
with every checkpoint removed, and a second restart appends nothing.
"""

import pytest

from repro.cluster.chaos import ArchivingCoordinator, ArchivingShard
from repro.cluster.cluster_cli import cluster_main
from repro.cluster.coordinator import (
    CHECKPOINT_PREFIX,
    WAL_FILENAME,
    ClusterCoordinator,
    CoordinatorError,
)
from repro.cluster.partition import ClusterPartition
from repro.cluster.shard import LocalShard
from repro.faults.failpoints import FAILPOINTS, InjectedCrash
from repro.service.errors import ServiceError
from repro.service.journal import ARCHIVE_DIR, WAL_NAME, never_compacted, segment_paths
from repro.topology.builder import TINY_SPEC

from tests.cluster.test_coordinator import (
    RECOVERY_CASES,
    SPANNING,
    cluster_view,
    small_request,
)

EVERY = 2


def build(num_shards, directory, snapshot_every=EVERY, **kwargs):
    partition = ClusterPartition.build(TINY_SPEC, num_shards)
    shards = [
        ArchivingShard(
            view, directory / f"shard{view.shard_index}", snapshot_every=snapshot_every
        )
        for view in partition.shards
    ]
    coordinator = ArchivingCoordinator(
        partition, shards, directory=directory / "coordinator",
        snapshot_every=snapshot_every, **kwargs,
    )
    return shards, coordinator


def crash(coordinator, shards):
    coordinator.kill()
    for shard in shards:
        shard.close()


def restart_view(num_shards, directory):
    shards, coordinator = build(num_shards, directory)
    try:
        return cluster_view(coordinator, shards)
    finally:
        crash(coordinator, shards)


def coordinator_segments(directory):
    return segment_paths(directory / "coordinator" / WAL_FILENAME)


def churn(coordinator, count, prefix):
    """Keyed local and cross-shard admits, every other one released."""
    for index in range(count):
        request = small_request(n_vms=40, mean=8.0, std=2.0) if index % 3 == 2 else small_request()
        decision = coordinator.submit(request, idempotency_key=f"{prefix}-{index}")
        if decision["outcome"] == "admitted" and index % 2:
            assert coordinator.release(decision["request_id"])


@pytest.mark.parametrize("case", sorted(RECOVERY_CASES))
def test_checkpoint_plus_tail_equals_the_archive_fold(tmp_path, monkeypatch, case):
    num_shards, _op, _nth, prepare = RECOVERY_CASES[case]
    directory = tmp_path / "live"
    shards, coordinator = build(num_shards, directory, max_cross_retries=0)
    try:
        churn(coordinator, 6, "warm")
        resident = coordinator.submit(small_request(), idempotency_key="resident")
        try:
            prepare(coordinator, shards, resident["request_id"], monkeypatch)
        except InjectedCrash:
            pass
    finally:
        FAILPOINTS.clear()
        monkeypatch.undo()
        crash(coordinator, shards)
    assert (directory / "coordinator" / ARCHIVE_DIR).exists()

    compacted = never_compacted(directory, tmp_path / "bare")
    first = restart_view(num_shards, directory)
    assert restart_view(num_shards, compacted) == first
    for _later in range(2):
        segments = coordinator_segments(directory)
        sizes = [path.stat().st_size for path in segments]
        assert restart_view(num_shards, directory) == first
        assert coordinator_segments(directory) == segments
        assert [path.stat().st_size for path in segments] == sizes


@pytest.mark.parametrize("num_shards", [1, 2])
def test_keyless_rejects_leave_no_open_intent(tmp_path, num_shards):
    """A reject without a key journals nothing; the fold settles its intent
    as recovery would, so checkpoints do not grow with rejects."""
    shards, coordinator = build(num_shards, tmp_path / "live")
    try:
        for _ in range(6):
            oversize = small_request(n_vms=500, mean=1.0)
            assert coordinator.submit(oversize)["outcome"] == "rejected"
            coordinator.submit(small_request())
        assert not coordinator._fold.rintents
    finally:
        crash(coordinator, shards)
    bare = never_compacted(tmp_path / "live", tmp_path / "bare")
    assert restart_view(num_shards, tmp_path / "live") == restart_view(num_shards, bare)


def test_a_legacy_coordinator_wal_recovers_and_keeps_appending(tmp_path):
    directory = tmp_path / "live"
    shards, coordinator = build(2, directory, snapshot_every=None)
    try:
        churn(coordinator, 6, "old")
    finally:
        crash(coordinator, shards)
    assert [p.name for p in coordinator_segments(directory)] == [WAL_FILENAME]
    assert not list((directory / "coordinator").glob(f"{CHECKPOINT_PREFIX}-*"))

    shards, coordinator = build(2, directory)
    try:
        churn(coordinator, 8, "new")
        live = cluster_view(coordinator, shards)
    finally:
        crash(coordinator, shards)
    assert not (directory / "coordinator" / WAL_FILENAME).exists()  # retired
    assert restart_view(2, directory) == live
    assert restart_view(2, never_compacted(directory, tmp_path / "bare")) == live


def test_a_restart_decodes_at_most_one_cadence_per_journal(tmp_path, monkeypatch):
    shards, coordinator = build(2, tmp_path, snapshot_every=8)
    try:
        churn(coordinator, 30, "k")
    finally:
        crash(coordinator, shards)
    decoded = []
    records_after = type(coordinator._wal).records_after

    def counted(journal, seq):
        for record in records_after(journal, seq):
            decoded.append(journal.path.name)
            yield record

    monkeypatch.setattr(type(coordinator._wal), "records_after", counted)
    restart_view(2, tmp_path)
    for name in {WAL_FILENAME, WAL_NAME}:
        # Each of the three journals decodes less than a cadence of records.
        assert decoded.count(name) < 8 * (2 if name == WAL_NAME else 1)


def test_recovery_settles_what_shard_failures_left_open(tmp_path, monkeypatch):
    """Rounds a shard outage aborted, releases a shard missed and submits
    that never reached a shard stay in the fold only until the next restart
    finishes them: each restart starts from an empty fold and asks the
    shards the same number of questions, however many lives came before."""
    lookups = []
    original_lookup = LocalShard.idem_lookup

    def counted_lookup(shard, key):
        lookups.append(key)
        return original_lookup(shard, key)

    monkeypatch.setattr(LocalShard, "idem_lookup", counted_lookup)

    def down(*_args, **_kwargs):
        raise ServiceError("injected shard outage")

    directory = tmp_path / "live"
    asked = []
    for life in range(4):
        del lookups[:]
        shards, coordinator = build(2, directory, snapshot_every=4)
        try:
            asked.append(len(lookups))
            fold = coordinator._fold
            assert (fold.aborted, fold.released, fold.rintents) == ([], {}, {})
            with monkeypatch.context() as outage:
                outage.setattr(shards[1], "adopt", down)
                with pytest.raises(CoordinatorError):
                    coordinator.submit(SPANNING, idempotency_key=f"span-{life}")
            resident = coordinator.submit(small_request(), idempotency_key=f"r-{life}")
            (home,) = coordinator.fragments_of(resident["request_id"])
            with monkeypatch.context() as outage:
                outage.setattr(shards[home], "release", down)
                assert coordinator.release(resident["request_id"])
            with monkeypatch.context() as outage:
                for shard in shards:
                    outage.setattr(shard, "submit", down)
                with pytest.raises(ServiceError):
                    coordinator.submit(small_request(), idempotency_key=f"lost-{life}")
            churn(coordinator, 6, f"life-{life}")
            assert fold.aborted and fold.released and fold.rintents
        finally:
            crash(coordinator, shards)
    assert asked[1:] == [asked[1]] * 3
    assert (directory / "coordinator" / ARCHIVE_DIR).exists()
    bare = never_compacted(directory, tmp_path / "bare")
    assert restart_view(2, directory) == restart_view(2, bare)


class SmallTable(ClusterCoordinator):
    idempotency_capacity = 2


def test_the_idempotency_table_evicts_the_oldest_key(tmp_path):
    partition = ClusterPartition.build(TINY_SPEC, 2)
    shards = [LocalShard(view) for view in partition.shards]
    coordinator = SmallTable(partition, shards)
    try:
        coordinator.submit(small_request(), idempotency_key="k0")
        coordinator.submit(small_request(), idempotency_key="k1")
        assert coordinator.submit(small_request(), idempotency_key="k0")["deduped"]
        # A hit does not move k0: the oldest decision goes.
        coordinator.submit(small_request(), idempotency_key="k2")
        assert [key for key, *_ in coordinator._keys.decisions()] == ["k1", "k2"]
        again = coordinator.submit(small_request(), idempotency_key="k0")
        assert again.get("deduped") is None  # decided afresh
        assert [key for key, *_ in coordinator._keys.decisions()] == ["k2", "k0"]
    finally:
        coordinator.stop()
        for shard in shards:
            shard.close()


@pytest.mark.parametrize("process", [False, True], ids=["local", "process"])
def test_the_cluster_cli_checkpoints_every_journal(tmp_path, process, capsys):
    argv = ["--shards", "2", "--scale", "tiny", "--requests", "600",
            "--workdir", str(tmp_path), "--json"]
    if process:
        argv.append("--process")
    assert cluster_main(argv) == 0
    capsys.readouterr()
    for shard in ("shard-0", "shard-1"):
        assert list((tmp_path / shard).glob("snapshot-*.json")), shard
    assert list(tmp_path.glob(f"{CHECKPOINT_PREFIX}-*.json"))
