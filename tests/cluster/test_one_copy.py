"""One copy of what the cluster has admitted, checked across interleavings.

The replica is the only holder of committed core-link load and the ledger
only of the holds, so after every step — and in the middle of the steps
that leave a hold pending while a shard is being asked — two things must
hold:

* ``ledger.occupancies()`` equals Eq. (6) recomputed from scratch over
  ``replica.tenancies()`` plus the pending holds (no double count, no gap);
* ``_gid_map``, ``_srid_map`` and ``replica.tenancies()`` name the same
  gids (they only change together, inside ``_install`` / ``_uninstall``).

The cluster has two shards of two pods each, so a tenant can load core
links while living in one shard — the case where a growing resize takes a
delta hold.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.abstractions import HomogeneousSVC
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.ledger import CoreDemand, core_demands_of
from repro.cluster.partition import ClusterPartition
from repro.cluster.shard import LocalShard
from repro.service.errors import ConflictError
from repro.topology.builder import DatacenterSpec
from tests.cluster.conftest import FakeClock

#: 4 pods of 16 slots; two shards of 32.
SPEC = DatacenterSpec(
    machines_per_rack=2,
    slots_per_machine=4,
    racks_per_pod=2,
    pods=4,
    machine_link_mbps=1000.0,
    oversubscription=2.0,
)
TTL_S = 30.0
#: Ledger ids of the holds the test takes itself (no gid gets that far).
FOREIGN = 1_000_000


class Cluster:
    """A 2-shard in-memory cluster that checks the invariant as it is driven."""

    def __init__(self):
        self.partition = ClusterPartition.build(SPEC, 2)
        self.shards = [LocalShard(view, None) for view in self.partition.shards]
        self.clock = FakeClock()
        self.coordinator = ClusterCoordinator(
            self.partition, self.shards, reserve_ttl_s=TTL_S, clock=self.clock
        )
        self.core = tuple(self.partition.core_link_ids)
        self.gids = []
        self.foreign_holds = 0
        self.conflicts_armed = 0
        self.seen = dict.fromkeys(
            ("cross", "conflict_retry", "round_hold", "delta_hold", "ttl_lapse"), 0
        )
        for shard in self.shards:
            self._watch(shard)

    def _watch(self, shard):
        """Check the invariant while a hold is pending and the shard is asked."""
        adopt, resize = shard.adopt, shard.resize

        def watched_adopt(*args, **kwargs):
            self.seen["round_hold"] += self.coordinator.ledger.pending_reservations > 0
            self.check()
            if self.conflicts_armed and shard.index == 1:
                self.conflicts_armed -= 1
                self.seen["conflict_retry"] += 1
                raise ConflictError("injected: fragment no longer fits")
            return adopt(*args, **kwargs)

        def watched_resize(request_id, *args, **kwargs):
            gid = self.coordinator._srid_map[(shard.index, request_id)]
            self.seen["delta_hold"] += self.coordinator.ledger.is_reserved(-gid)
            self.check()
            return resize(request_id, *args, **kwargs)

        shard.adopt, shard.resize = watched_adopt, watched_resize

    def close(self):
        self.coordinator.stop()
        for shard in self.shards:
            shard.close()

    # -- the invariant --------------------------------------------------

    def check(self):
        coordinator = self.coordinator
        replica, ledger = coordinator.replica, coordinator.ledger
        sums = {link_id: [0.0, 0.0, 0.0] for link_id in self.core}
        footprints = [
            core_demands_of(tenancy.allocation, self.core)
            for tenancy in replica.tenancies()
        ] + [demands for demands, _expires_at in ledger._held.values()]
        for footprint in footprints:
            for link_id, demand in footprint.items():
                sums[link_id][0] += demand.mean
                sums[link_id][1] += demand.variance
                sums[link_id][2] += demand.deterministic
        occupancies = ledger.occupancies()
        assert sorted(occupancies) == sorted(self.core)
        for link_id, (mean, variance, deterministic) in sums.items():
            capacity = self.partition.tree.link(link_id).capacity
            expected = (
                deterministic + mean + replica.state.risk_c * math.sqrt(variance)
            ) / capacity
            assert occupancies[link_id] == pytest.approx(expected, rel=1e-9, abs=1e-9)
        gids = sorted(tenancy.request_id for tenancy in replica.tenancies())
        # A round's hold goes the moment its tenancy arrives in the replica.
        assert not set(ledger._held) & set(gids)
        assert sorted(coordinator._gid_map) == gids
        assert coordinator._srid_map == {
            (shard_index, srid): gid
            for gid, fragments in coordinator._gid_map.items()
            for shard_index, srid in fragments.items()
        }

    # -- steps ----------------------------------------------------------

    def step(self, step):
        kind, *args = step
        getattr(self, f"do_{kind}")(*args)
        self.check()
        # Between steps only the foreign holds may be pending.
        assert all(held >= FOREIGN for held in self.coordinator.ledger._held)

    def _submitted(self, decision):
        if decision["outcome"] == "admitted":
            gid = decision["request_id"]
            self.gids.append(gid)
            self.seen["cross"] += len(self.coordinator.fragments_of(gid)) > 1
        # submit and resize sweep lapsed holds before anything else.
        assert all(
            expires_at > self.clock.now
            for _demands, expires_at in self.coordinator.ledger._held.values()
        )

    def do_admit(self, n_vms, mean, std):
        self._submitted(
            self.coordinator.submit(HomogeneousSVC(n_vms=n_vms, mean=mean, std=std))
        )

    def do_cross(self, n_vms, conflict):
        self.conflicts_armed = int(conflict)
        self._submitted(
            self.coordinator.submit(HomogeneousSVC(n_vms=n_vms, mean=6.0, std=2.0))
        )
        self.conflicts_armed = 0

    def do_resize(self, pick, new_n):
        if self.gids:
            self.coordinator.resize(self.gids[pick % len(self.gids)], new_n=new_n)

    def do_release(self, pick):
        if self.gids:
            assert self.coordinator.release(self.gids.pop(pick % len(self.gids)))

    def do_hold(self, pick, fraction):
        """Another round's hold, still pending when the next steps run."""
        link_id = self.core[pick % len(self.core)]
        capacity = self.partition.tree.link(link_id).capacity
        self.foreign_holds += 1
        self.coordinator.ledger.reserve(
            FOREIGN + self.foreign_holds,
            {link_id: CoreDemand(mean=fraction * capacity, variance=fraction * 400.0)},
        )

    def do_tick(self, seconds):
        before = self.coordinator.ledger.pending_reservations
        self.clock.now += seconds
        self.do_admit(1, 1.0, 0.1)  # any submit sweeps the lapsed holds
        self.seen["ttl_lapse"] += (
            self.coordinator.ledger.pending_reservations < before
        )


ADMIT = st.tuples(
    st.just("admit"),
    st.integers(2, 28),  # above 16 VMs a tenant spans two pods of its shard
    st.floats(5.0, 60.0),
    st.floats(0.5, 15.0),
)
CROSS = st.tuples(st.just("cross"), st.integers(33, 44), st.booleans())
RESIZE = st.tuples(st.just("resize"), st.integers(0, 50), st.integers(1, 30))
RELEASE = st.tuples(st.just("release"), st.integers(0, 50))
HOLD = st.tuples(st.just("hold"), st.integers(0, 3), st.floats(0.02, 0.3))
TICK = st.tuples(st.just("tick"), st.sampled_from((1.0, 12.0, TTL_S + 1.0)))
STEPS = st.lists(
    st.one_of(ADMIT, ADMIT, CROSS, RESIZE, RESIZE, RELEASE, HOLD, TICK),
    min_size=4,
    max_size=14,
)


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(STEPS)
def test_occupancy_and_maps_hold_at_every_step(steps):
    cluster = Cluster()
    try:
        cluster.check()
        for step in steps:
            cluster.step(step)
    finally:
        cluster.close()


def test_scripted_interleaving_reaches_every_transition():
    """The same driver on a fixed script — and proof the script bites."""
    cluster = Cluster()
    try:
        for step in (
            ("admit", 20, 40.0, 8.0),   # spans both pods of one shard
            ("hold", 0, 0.1),
            ("resize", 0, 26),          # grow: delta hold while the shard decides
            ("cross", 36, True),        # ConflictError on the first round
            ("resize", 0, 6),           # shrink: nothing to hold
            ("tick", TTL_S + 1.0),      # the foreign hold lapses
            ("release", 1),
            ("release", 0),
        ):
            cluster.step(step)
        assert all(cluster.seen.values()), cluster.seen
    finally:
        cluster.close()
