"""Incremental Algorithm 1: tables kept across calls never change a decision.

The production allocator keeps, per request shape, the DP tables of its last
traversals and skips every vertex under which ``NetworkState.changed_at``
says nothing moved.  The referee here runs one op stream through three
managers in lockstep — one long-lived production allocator, a *fresh*
production allocator for every call (no table outlives a call), and the seed
DP — and demands equal decisions and equal link state after every op, across
commits, releases, re-adopts and both resize paths.  The rest pins the
bounds: the stamp invariant, state binding, table growth, eviction order,
and table identity.
"""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abstractions import DeterministicVC, HomogeneousSVC
from repro.allocation import svc_homogeneous
from repro.allocation.base import Allocator
from repro.allocation.svc_homogeneous import (
    _MAX_TABLES_PER_VERTEX,
    _STORE_CAPACITY,
    GlobalMinMaxAllocator,
    SVCHomogeneousAllocator,
    _request_shape,
    _ValueRow,
)
from repro.manager.network_manager import NetworkManager
from repro.network import NetworkState
from repro.topology import DatacenterSpec, build_datacenter
from tests.reference import SeedTreeSearch


class FreshPerCall(Allocator):
    """A brand-new production allocator per call: the cache-free reference."""

    name = "svc-dp"

    def allocate(self, state, request, request_id):
        return SVCHomogeneousAllocator().allocate(state, request, request_id)

    def resize_link_demands(self, *args):
        return SVCHomogeneousAllocator().resize_link_demands(*args)


def fingerprint(state):
    """Everything the DP reads: free slots and the per-link aggregates, bit for bit."""
    return (
        [state.free_slots(machine) for machine in state.tree.machine_ids],
        [
            (link_id, link.deterministic_total, link.mean_total, link.var_total)
            for link_id, link in sorted(state.links.items())
        ],
    )


def vertex_inputs(state):
    """Per internal node, what its DP table is a function of at this node."""
    tree = state.tree
    return {
        node.node_id: (
            state.free_slots_under(node.node_id),
            [
                (
                    state.links[child].deterministic_total,
                    state.links[child].mean_total,
                    state.links[child].var_total,
                )
                for child in node.children
            ],
        )
        for node in tree.nodes
        if not node.is_machine
    }


def describe(allocation):
    return (
        allocation.request_id,
        allocation.host_node,
        dict(allocation.machine_counts),
        allocation.max_occupancy,  # compared with ==: bit-identical, not close
    )


def apply(manager, op, live):
    """Run one op; returns what the three managers must agree on."""
    kind = op[0]
    if kind == "submit":
        tenancy = manager.request(op[1])
        return None if tenancy is None else describe(tenancy.allocation)
    if not live:
        return "idle"
    request_id = live[op[1] % len(live)]
    if kind == "release":
        manager.release(manager.tenancy(request_id))
        return ("released", request_id)
    if kind == "readopt":  # what recovery and the coordinator's fragments do
        allocation = manager.tenancy(request_id).allocation
        manager.release(manager.tenancy(request_id))
        manager.adopt(allocation)
        return ("readopted", request_id)
    new_n = max(1, manager.tenancy(request_id).n_vms + op[2])
    result = manager.resize(request_id, new_n=new_n)
    return (result.outcome, describe(result.tenancy.allocation))


def referee(tree, ops):
    """Drive ``ops`` through the three managers; returns the outcome tally."""
    managers = [
        NetworkManager(tree, allocator=SVCHomogeneousAllocator()),
        NetworkManager(tree, allocator=FreshPerCall()),
        NetworkManager(tree, allocator=SeedTreeSearch(optimize=True)),
    ]
    production = managers[0].state
    live = []
    tally = {}
    for index, op in enumerate(ops):
        before, version = vertex_inputs(production), production.version
        outcomes = [apply(manager, op, live) for manager in managers]
        assert outcomes[0] == outcomes[1] == outcomes[2], f"op {index} {op}: {outcomes}"
        prints = [fingerprint(manager.state) for manager in managers]
        assert prints[0] == prints[1] == prints[2], f"op {index} {op}: link state differs"
        # The stamp rule: whatever a vertex's table depends on moved only if
        # the vertex carries the version of the mutation that moved it (a
        # resize or re-adopt is two mutations: a release, then a commit).
        for node_id, inputs in vertex_inputs(production).items():
            if inputs != before[node_id]:
                assert version < production.changed_at[node_id] <= production.version
                if op[0] in ("submit", "release"):
                    assert production.changed_at[node_id] == production.version
        outcome = outcomes[0]
        if op[0] == "submit":
            tally[("submit", outcome is not None)] = tally.get(("submit", outcome is not None), 0) + 1
            if outcome is not None:
                live.append(outcome[0])
        elif outcome != "idle":
            tally[outcome[0]] = tally.get(outcome[0], 0) + 1
            if op[0] == "release":
                live.remove(outcome[1])
    return tally


SIZES = (2, 3, 5, 8, 12)
RATES = (40.0, 90.0, 150.0)


def menu_shape(step):
    """The burst menu of ``benchmarks/e2e`` scaled to the tiny tree, plus a VC."""
    if step % 7 == 6:
        return DeterministicVC(n_vms=SIZES[step % 5], bandwidth=RATES[step % 3])
    mean = RATES[step % 3]
    return HomogeneousSVC(n_vms=SIZES[step % 5], mean=mean, std=0.4 * mean)


def recorded_trace(seed, bursts=14, burst=5):
    """Two tenants walking the menu in interleaved same-shape bursts."""
    rng = random.Random(seed)
    steps = [rng.randrange(15), rng.randrange(15)]
    ops = []
    for _ in range(bursts):
        shapes = []
        for tenant in range(2):
            steps[tenant] += 1
            shapes.append(menu_shape(steps[tenant]))
        for _ in range(burst):
            for shape in shapes:
                ops.append(("submit", shape))
                draw = rng.random()
                if draw < 0.15:
                    ops.append(("resize", rng.randrange(64), rng.choice((-2, -1, 1, 2, 6))))
                elif draw < 0.25:
                    ops.append(("readopt", rng.randrange(64)))
                elif draw < 0.45:
                    ops.append(("release", rng.randrange(64)))
        # Releases down towards the target, oldest first, as the workload does.
        ops.extend(("release", 0) for _ in range(rng.randrange(3, 8)))
    return ops


class TestDecisionIdentity:
    def test_recorded_interleaved_trace(self, tiny_tree):
        for seed in (1, 2, 3):
            tally = referee(tiny_tree, recorded_trace(seed))
            # The trace must exercise every path it claims to.
            assert tally[("submit", True)] > 20 and tally[("submit", False)] > 0
            assert tally["released"] > 20 and tally["readopted"] > 3
            assert tally["in_place"] > 3 and tally["replaced"] > 0

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        machines_per_rack=st.integers(1, 4),
        racks=st.integers(1, 3),
        pods=st.integers(1, 2),
        oversub=st.sampled_from([1.0, 2.0, 4.0]),
        shapes=st.lists(
            st.one_of(
                st.builds(
                    HomogeneousSVC,
                    n_vms=st.integers(1, 9),
                    mean=st.sampled_from([50.0, 150.0, 300.0]),
                    std=st.sampled_from([0.0, 20.0, 90.0]),
                ),
                st.builds(
                    DeterministicVC,
                    n_vms=st.integers(1, 9),
                    bandwidth=st.sampled_from([60.0, 200.0]),
                ),
            ),
            min_size=1,
            max_size=3,
        ),
        stream=st.lists(
            st.one_of(
                st.tuples(st.just("submit"), st.integers(0, 2)),
                st.tuples(st.just("submit"), st.integers(0, 2)),
                st.tuples(st.just("release"), st.integers(0, 40)),
                st.tuples(st.just("readopt"), st.integers(0, 40)),
                st.tuples(st.just("resize"), st.integers(0, 40), st.sampled_from([-2, -1, 1, 3])),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_random_trees_and_streams(self, machines_per_rack, racks, pods, oversub, shapes, stream):
        tree = build_datacenter(
            DatacenterSpec(
                machines_per_rack=machines_per_rack,
                slots_per_machine=3,
                racks_per_pod=racks,
                pods=pods,
                machine_link_mbps=500.0,
                oversubscription=oversub,
            )
        )
        ops = [
            ("submit", shapes[op[1] % len(shapes)]) if op[0] == "submit" else op
            for op in stream
        ]
        referee(tree, ops)


class TestStateBinding:
    def test_one_allocator_two_states_never_share_a_table(self, tiny_tree):
        shared = SVCHomogeneousAllocator()
        busy, idle = NetworkState(tiny_tree), NetworkState(tiny_tree)
        shape = HomogeneousSVC(n_vms=6, mean=120.0, std=50.0)
        for request_id in range(1, 9):
            # ``busy`` fills up; ``idle`` is probed with the same shape and
            # must always get the empty tree's placement.
            for state in (busy, idle):
                got = shared.allocate(state, shape, request_id)
                want = SVCHomogeneousAllocator().allocate(state, shape, request_id)
                assert (got is None) == (want is None)
                if got is not None:
                    assert describe(got) == describe(want)
                assert shared._store[_request_shape(shape)].state() is state
                if got is not None and state is busy:
                    busy.commit(got)
        assert busy.used_slots > 0 and idle.is_pristine()


def churn(manager, shape, rng, live, cycles):
    """Admit ``shape`` over and over on a state that never looks the same twice.

    The background tenants are placed by throwaway allocators, so the
    manager's own allocator only ever sees ``shape`` — and has to make new
    tables for it all the time.
    """
    for _ in range(cycles):
        if rng.random() < 0.5:
            other = HomogeneousSVC(
                n_vms=rng.randint(1, 9),
                mean=float(rng.randint(20, 200)),
                std=float(rng.randint(0, 60)),
            )
            allocation = SVCHomogeneousAllocator().allocate(
                manager.state, other, manager.next_request_id
            )
            if allocation is not None:
                live.append(manager.adopt(allocation))
        tenancy = manager.request(shape)
        if tenancy is not None:
            live.append(tenancy)
        for _ in range(rng.randint(0, 2) if tenancy is not None else 3):
            if live:
                manager.release(live.pop(rng.randrange(len(live))))


CHURN_SHAPE = HomogeneousSVC(n_vms=9, mean=60.0, std=25.0)


class TestBounds:
    def test_table_count_stays_bounded_over_2000_cycles(self, tiny_tree):
        allocator = SVCHomogeneousAllocator()
        manager = NetworkManager(tiny_tree, allocator=allocator)
        internal = sum(1 for node in tiny_tree.nodes if not node.is_machine)
        rng = random.Random(5)
        live = []
        sizes = []
        for _ in range(2000):
            churn(manager, CHURN_SHAPE, rng, live, 1)
            sizes.append(len(allocator._store[_request_shape(CHURN_SHAPE)].vertex_cache))
        assert max(sizes) <= (_MAX_TABLES_PER_VERTEX + 1) * internal
        # The churn did keep making new tables, and they were cut back.
        assert sum(1 for was, now in zip(sizes, sizes[1:]) if now < was) > 10

    def test_least_recently_used_shape_is_evicted_first(self, tiny_tree):
        allocator = SVCHomogeneousAllocator()
        state = NetworkState(tiny_tree)
        shapes = [
            HomogeneousSVC(n_vms=2, mean=10.0 + index, std=1.0)
            for index in range(_STORE_CAPACITY + 2)
        ]
        for request_id, shape in enumerate(shapes[:_STORE_CAPACITY]):
            allocator.allocate(state, shape, request_id)
        allocator.allocate(state, shapes[0], 100)  # touch the oldest
        kept = allocator._store[_request_shape(shapes[0])]
        allocator.allocate(state, shapes[_STORE_CAPACITY], 101)
        allocator.allocate(state, shapes[_STORE_CAPACITY + 1], 102)
        assert list(allocator._store) == [
            _request_shape(shape) for shape in shapes[3:_STORE_CAPACITY] + [shapes[0]] + shapes[-2:]
        ]
        assert allocator._store[_request_shape(shapes[0])] is kept

    def test_cache_stats_hold_with_tables_carried_in(self, tiny_tree, monkeypatch):
        class Recorder:
            def __init__(self):
                self.seen = []

            def start(self, allocator):
                return None

            def done(self, *args, **kwargs):
                pass

            def cache(self, cache, lookups, hits):
                self.seen.append((cache, lookups, hits))

        recorder = Recorder()
        monkeypatch.setattr(svc_homogeneous, "admission_instruments", lambda: recorder)
        manager = NetworkManager(tiny_tree, allocator=SVCHomogeneousAllocator())
        shape = HomogeneousSVC(n_vms=5, mean=90.0, std=35.0)
        first = manager.request(shape)
        for _ in range(30):
            manager.request(shape)
        manager.release(first)
        manager.request(shape)
        assert all(0 <= hits <= lookups for _cache, lookups, hits in recorder.seen)
        vertex = [(lookups, hits) for cache, lookups, hits in recorder.seen if cache == "vertex"]
        assert vertex[0][1] < vertex[0][0]  # a cold first call builds tables
        assert any(hits == lookups for lookups, hits in vertex[1:])  # later ones carry them in


class TestTableIdentity:
    def test_a_pruned_table_can_never_be_named_again(self, tiny_tree):
        """Keys name child tables by serial; ``id()`` would be reused once freed."""
        allocator = SVCHomogeneousAllocator()
        manager = NetworkManager(tiny_tree, allocator=allocator)
        rng = random.Random(9)
        live = []
        churn(manager, CHURN_SHAPE, rng, live, 20)
        kept = allocator._store[_request_shape(CHURN_SHAPE)]

        def serials():
            return {table.serial for table in kept.vertex_cache.values()}

        watched = [weakref.ref(table) for table in kept.vertex_cache.values()]
        seen = serials()
        for _ in range(400):  # until a prune drops, and so frees, a table
            churn(manager, CHURN_SHAPE, rng, live, 1)
            seen |= serials()
            if any(ref() is None for ref in watched):
                break
        gc.collect()
        alive = serials()
        stale = seen - alive
        assert stale, "the churn must prune tables that keys once named"
        churn(manager, CHURN_SHAPE, rng, live, 60)  # new tables, some at freed addresses
        fresh = serials() - alive
        assert fresh and not fresh & stale
        # Serials only grow, so no later table can take a pruned one's name.
        assert min(fresh) > max(seen)
        assert _ValueRow(values=np.zeros(1)).serial > max(fresh)

    def test_clean_vertices_are_not_rekeyed(self, tiny_tree):
        """A vertex is keyed again only if something under it moved."""
        manager = NetworkManager(tiny_tree, allocator=SVCHomogeneousAllocator())
        state = manager.state
        rng = random.Random(4)
        live = []
        churn(manager, CHURN_SHAPE, rng, live, 10)
        # Probed without committing, by the allocator that walks every level.
        walker = GlobalMinMaxAllocator()
        probe = HomogeneousSVC(n_vms=5, mean=30.0, std=10.0)
        assert walker.allocate(state, probe, 10_000) is not None
        kept = walker._store[_request_shape(probe)]
        assert tiny_tree.root_id in kept.signatures
        rekeyed = clean = 0
        walked_at = state.version
        for _ in range(60):
            before = dict(kept.signatures)
            churn(manager, CHURN_SHAPE, rng, live, 1)
            if state.total_free_slots < probe.n_vms:
                continue  # turned away before any level is walked
            walker.allocate(state, probe, 10_000)  # every level, admitted or not
            for node_id, memo in kept.signatures.items():
                if state.changed_at[node_id] > walked_at:
                    assert memo[0] == state.version  # keyed again, at this version
                    rekeyed += 1
                else:
                    assert memo is before[node_id]  # the very memo: not even re-keyed
                    clean += 1
            walked_at = state.version
        assert rekeyed > 40 and clean > 40
