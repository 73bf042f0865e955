"""The coordinator's idempotency window: the service's type and order.

The coordinator keeps client keys in the same ``KeyWindow`` as its shards:
decision order, a hit moves nothing, a key answers only ops of its own kind
— and a restart rebuilds exactly the window the live coordinator kept.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.abstractions import HomogeneousSVC
from repro.cluster.chaos import ArchivingCoordinator, ArchivingShard
from repro.cluster.coordinator import WAL_FILENAME, _key_of
from repro.cluster.partition import ClusterPartition
from repro.service.codec import CodecError
from repro.service.journal import (
    KIND_ADMISSION,
    KIND_RESIZE,
    Journal,
    KeyWindow,
    archived_segments,
    never_compacted,
)
from repro.topology.builder import TINY_SPEC

from tests.cluster.test_coordinator import SPANNING, small_request


class SmallWindow(ArchivingCoordinator):
    idempotency_capacity = 2


def build(directory, coordinator_class=ArchivingCoordinator, snapshot_every=2):
    partition = ClusterPartition.build(TINY_SPEC, 2)
    shards = [
        ArchivingShard(
            view, directory / f"shard{view.shard_index}", snapshot_every=snapshot_every
        )
        for view in partition.shards
    ]
    coordinator = coordinator_class(
        partition, shards, directory=directory / "coordinator",
        snapshot_every=snapshot_every,
    )
    return shards, coordinator


def crash(coordinator, shards):
    coordinator.kill()
    for shard in shards:
        shard.close()


def keys_of(coordinator):
    return [key for key, *_ in coordinator._keys.decisions()]


class TestReusedKey:
    def test_a_resize_cannot_reuse_a_submit_key(self, tmp_path):
        shards, coordinator = build(tmp_path)
        try:
            gid = coordinator.submit(small_request(), idempotency_key="k")["request_id"]
            with pytest.raises(CodecError, match="already decided an admission"):
                coordinator.resize(gid, new_n=3, idempotency_key="k")
            assert sum(coordinator.resize_counts.values()) == 0
        finally:
            crash(coordinator, shards)

    def test_a_submit_cannot_reuse_a_resize_key(self, tmp_path):
        shards, coordinator = build(tmp_path)
        try:
            gid = coordinator.submit(small_request())["request_id"]
            coordinator.resize(gid, new_n=3, idempotency_key="rs")
            with pytest.raises(CodecError, match="already decided a resize"):
                coordinator.submit(small_request(), idempotency_key="rs")
            assert coordinator.active_tenancies == 1
        finally:
            crash(coordinator, shards)

    def test_a_rejected_resize_keeps_its_kind_across_a_restart(self, tmp_path):
        """A spanning tenant's resize is rejected at the coordinator: after a
        restart its key still answers a resize, and still refuses a submit."""
        shards, coordinator = build(tmp_path)
        try:
            gid = coordinator.submit(SPANNING)["request_id"]
            denied = coordinator.resize(gid, new_n=3, idempotency_key="rs")
            assert denied["outcome"] == "rejected"
        finally:
            crash(coordinator, shards)
        shards, coordinator = build(tmp_path)
        try:
            assert coordinator._keys.decisions() == [("rs", KIND_RESIZE, "rejected", gid)]
            again = coordinator.resize(gid, new_n=3, idempotency_key="rs")
            assert (again["outcome"], again["deduped"]) == ("rejected", True)
            with pytest.raises(CodecError, match="already decided a resize"):
                coordinator.submit(small_request(), idempotency_key="rs")
        finally:
            crash(coordinator, shards)


class TestWindowOrder:
    """Capacity 2: k0, k1, a retry of k0, then k2 keep ``[k1, k2]`` across a
    restart too (``tests/cluster/test_checkpoints.py`` runs it straight
    through)."""

    def test_with_a_restart_before_k2(self, tmp_path):
        shards, coordinator = build(tmp_path, SmallWindow)
        try:
            for key in ("k0", "k1"):
                coordinator.submit(small_request(), idempotency_key=key)
            assert coordinator.submit(small_request(), idempotency_key="k0")["deduped"]
        finally:
            crash(coordinator, shards)
        shards, coordinator = build(tmp_path, SmallWindow)
        try:
            assert keys_of(coordinator) == ["k0", "k1"]
            coordinator.submit(small_request(), idempotency_key="k2")
            assert keys_of(coordinator) == ["k1", "k2"]
        finally:
            crash(coordinator, shards)


# ----------------------------------------------------------------------
# Live window == restarted window (state machine)
# ----------------------------------------------------------------------

KEYS = st.sampled_from([f"key-{index}" for index in range(6)])
SIZES = st.integers(min_value=1, max_value=4)


class FourKeys(ArchivingCoordinator):
    idempotency_capacity = 4


class CoordinatorWindowMachine(RuleBasedStateMachine):
    """Keyed submits (some spanning both shards) and resizes, reusing keys
    across kinds, unkeyed releases, checkpoints every two records, and
    crashes with a restart at random points.  Every restart must bring back
    the live window, the window of a restart from the never-compacted copy
    and the fold of the coordinator's whole WAL."""

    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="coordinator-window-"))
        self.directory = self.root / "live"
        self.copies = 0
        #: The model: ``[key, (kind, outcome, gid)]``, oldest first.
        self.model = []
        self.active = []
        self.shards, self.coordinator = build(self.directory, FourKeys)

    def teardown(self):
        crash(self.coordinator, self.shards)
        shutil.rmtree(self.root, ignore_errors=True)

    def known(self, key):
        return dict(self.model).get(key)

    def decided(self, key, kind, outcome, gid):
        self.model.append([key, (kind, outcome, gid)])
        del self.model[: -FourKeys.idempotency_capacity]

    @rule(key=KEYS, size=SIZES, spanning=st.booleans())
    def submit(self, key, size, spanning):
        known = self.known(key)
        request = SPANNING if spanning else HomogeneousSVC(n_vms=size, mean=40.0, std=8.0)
        if known is not None and known[0] == KIND_RESIZE:
            with pytest.raises(CodecError):
                self.coordinator.submit(request, idempotency_key=key)
            return
        decision = self.coordinator.submit(request, idempotency_key=key)
        if known is not None:
            assert decision["deduped"]
            assert (decision["outcome"], decision["request_id"]) == known[1:]
            return
        self.decided(key, KIND_ADMISSION, decision["outcome"], decision["request_id"])
        if decision["outcome"] == "admitted":
            self.active.append(decision["request_id"])

    @precondition(lambda self: self.active)
    @rule(key=KEYS, pick=st.integers(min_value=0), size=SIZES)
    def resize(self, key, pick, size):
        gid = self.active[pick % len(self.active)]
        known = self.known(key)
        if known is not None and known[0] == KIND_ADMISSION:
            with pytest.raises(CodecError):
                self.coordinator.resize(gid, new_n=size, idempotency_key=key)
            return
        decision = self.coordinator.resize(gid, new_n=size, idempotency_key=key)
        if known is not None:
            assert (decision["outcome"], decision["request_id"]) == known[1:]
            return
        self.decided(key, KIND_RESIZE, decision["outcome"], gid)

    @precondition(lambda self: self.active)
    @rule(pick=st.integers(min_value=0))
    def release(self, pick):
        assert self.coordinator.release(self.active.pop(pick % len(self.active)))

    @rule()
    def crash_and_restart(self):
        before = self.coordinator._keys.decisions()
        crash(self.coordinator, self.shards)
        self.copies += 1
        bare = never_compacted(self.directory, self.root / f"bare-{self.copies}")
        self.shards, self.coordinator = build(self.directory, FourKeys)
        assert self.coordinator._keys.decisions() == before
        shards, coordinator = build(bare, FourKeys)
        try:
            assert coordinator._keys.decisions() == before
        finally:
            crash(coordinator, shards)
        history = Journal.iter_records(
            archived_segments(self.directory / "coordinator" / WAL_FILENAME)
        )
        entries = (entry for entry in map(_key_of, history) if entry)
        assert KeyWindow.rebuild(entries, FourKeys.idempotency_capacity).decisions() == before

    @invariant()
    def the_window_is_the_model(self):
        assert self.coordinator._keys.decisions() == [
            (key, *decision) for key, decision in self.model
        ]


TestCoordinatorWindow = CoordinatorWindowMachine.TestCase
TestCoordinatorWindow.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
