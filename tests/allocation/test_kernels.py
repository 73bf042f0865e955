"""The level-stacked kernels and the level snapshot under Algorithm 1.

Three layers, each against the untouched seed DP: the bare fold (a stack of
vertices at once == one vertex at a time == the seed ``_combine`` chain, bit
for bit, values and recovered splits), the level walk of all four allocators
that ride on it over trees with ragged racks, full machines and saturated
uplinks, and the two stores behind it — the level snapshot (a refresh equals
a from-scratch gather) and the kept tables (values only: small).
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abstractions import DeterministicVC, HeterogeneousSVC, HomogeneousSVC
from repro.allocation.kernels import (
    _distinct_rows,
    _fold_counts,
    _fold_level,
    _LevelSnapshot,
    _split_counts,
    level_snapshot,
)
from repro.allocation.svc_het_heuristic import SVCHeterogeneousAllocator
from repro.allocation.svc_homogeneous import (
    AdaptedTIVCAllocator,
    GlobalMinMaxAllocator,
    OktopusAllocator,
    SVCHomogeneousAllocator,
    _request_shape,
)
from repro.manager.network_manager import NetworkManager
from repro.network import NetworkState
from repro.topology import PAPER_SPEC, SMALL_SPEC, build_datacenter
from repro.topology.tree import Tree
from tests.reference import SeedSubstringHeuristic, SeedTreeSearch

#: Few distinct values, so whole runs of splits tie and the tie-break shows.
LEVELS = (0.0, 0.25, 0.25, 0.5, 0.75, np.inf)


@st.composite
def child_rows(draw, n):
    """One child's effective row: finite up to a cap (0: only the empty split;
    nothing finite at all: an uplink that is over its limit as it stands)."""
    cap = draw(st.integers(-1, n))
    row = np.full(n + 1, np.inf)
    row[: cap + 1] = draw(st.lists(st.sampled_from(LEVELS), min_size=cap + 1, max_size=cap + 1))
    return row


@st.composite
def vertex_stacks(draw):
    n = draw(st.integers(1, 9))
    return n, draw(
        st.lists(st.lists(child_rows(n), min_size=0, max_size=4), min_size=1, max_size=5)
    )


def seed_chain(optimize, n, children):
    """The seed's per-child ``_combine`` chain: prefix rows and choice tables."""
    seed = SeedTreeSearch(optimize=optimize)
    partial = np.full(n + 1, np.inf)
    partial[0] = 0.0
    prefixes, choices = [partial], []
    for child in children:
        partial, choice = seed._combine(partial, child, n)
        prefixes.append(partial)
        choices.append(choice)
    return prefixes, choices


def stacked_chain(optimize, n, vertices):
    """The same through ``_fold_level`` / ``_fold_counts``, all vertices at once."""
    counts = np.array([len(children) for children in vertices])
    effective = np.full((len(vertices), max(1, counts.max()), n + 1), np.inf)
    for v, children in enumerate(vertices):
        for i, child in enumerate(children):
            effective[v, i] = child
    # Columns past the widest cap are inf in every row: the walk never builds them.
    finite = np.flatnonzero(np.isfinite(effective).any(axis=(0, 1)))
    effective = effective[:, :, : (int(finite[-1]) if finite.size else 0) + 1]
    start = np.full((len(vertices), n + 1), np.inf)
    start[:, 0] = 0.0
    prefixes = _fold_level(
        start, counts,
        lambda rows, position: _fold_counts(rows, effective[: len(rows), position], optimize),
    )
    return effective, prefixes


class TestStackedFold:
    @settings(max_examples=150, deadline=None)
    @given(stack=vertex_stacks(), optimize=st.booleans())
    def test_stack_equals_single_vertices_equals_seed_chain(self, stack, optimize):
        n, vertices = stack
        vertices.sort(key=len, reverse=True)  # most children first, as the walk stacks them
        effective, prefixes = stacked_chain(optimize, n, vertices)
        for v, children in enumerate(vertices):
            want_rows, want_choices = seed_chain(optimize, n, children)
            _, alone = stacked_chain(optimize, n, [children])
            for position in range(len(children) + 1):
                assert np.array_equal(prefixes[position][v], want_rows[position])
                assert np.array_equal(alone[position][0], want_rows[position])
            # A vertex past its last child keeps its final row in every later prefix.
            assert np.array_equal(prefixes[-1][v], want_rows[-1])
            for position, choice in enumerate(want_choices):
                for total in np.flatnonzero(choice >= 0):
                    totals = np.full(len(vertices), total)
                    split = _split_counts(
                        prefixes[position], effective[:, position], totals, optimize
                    )
                    assert split[v] == choice[total]

    def test_first_feasible_is_not_the_minimum(self):
        # One vertex, two children: giving the second child 0 VMs is feasible
        # but dearer than giving it 1 — adapted TIVC keeps the first.
        rows = np.array([[0.0, 0.9, np.inf]])
        eff = np.array([[0.0, 0.1, np.inf]])
        assert _fold_counts(rows, eff, optimize=True)[0].tolist() == [0.0, 0.1, 0.9]
        assert _fold_counts(rows, eff, optimize=False)[0].tolist() == [0.0, 0.9, 0.9]
        totals = np.array([1])
        assert _split_counts(rows, eff, totals, optimize=True)[0] == 1
        assert _split_counts(rows, eff, totals, optimize=False)[0] == 0


class TestDistinctRows:
    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, np.inf]), min_size=3, max_size=3),
            min_size=0,
            max_size=12,
        )
    )
    def test_equals_numpys_unique_over_rows(self, rows):
        rows = np.array(rows).reshape(-1, 3)
        distinct, inverse = _distinct_rows(rows)
        want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(distinct, want)
        assert np.array_equal(inverse, want_inverse.ravel())
        assert np.array_equal(distinct[inverse], rows)


def ragged_tree(rack_sizes, slots, loose_machines):
    """Racks of unequal size under one pod, plus machines hung off the pod itself."""
    tree = Tree()
    pod = tree.add_switch("pod", level=2)
    slot = itertools.cycle(slots)
    for index, size in enumerate(rack_sizes):
        rack = tree.add_switch(f"rack{index}", level=1)
        tree.attach(rack, pod, 400.0)
        for machine in range(size):
            tree.attach(tree.add_machine(f"m{index}.{machine}", next(slot)), rack, 300.0)
    for index in range(loose_machines):
        tree.attach(tree.add_machine(f"loose{index}", next(slot)), pod, 300.0)
    return tree.freeze()


PAIRS = {
    "svc-dp": (SVCHomogeneousAllocator, lambda: SeedTreeSearch(optimize=True)),
    "tivc": (AdaptedTIVCAllocator, lambda: SeedTreeSearch(optimize=False)),
    "oktopus": (OktopusAllocator, lambda: SeedTreeSearch(optimize=False)),  # sent VCs only
    "svc-global": (GlobalMinMaxAllocator, lambda: SeedTreeSearch(optimize=True, localize=False)),
}


class TestLevelWalk:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        rack_sizes=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        slots=st.lists(st.integers(1, 3), min_size=1, max_size=5),
        loose_machines=st.integers(0, 2),
        saturated=st.sets(st.integers(0, 30), max_size=3),
        name=st.sampled_from(sorted(PAIRS)),
        requests=st.lists(
            st.tuples(
                st.integers(1, 8),  # below and above the 1-3 slots of a machine
                st.sampled_from([40.0, 120.0, 260.0]),
                st.sampled_from([None, 0.0, 0.5]),  # None: a deterministic VC
                st.booleans(),  # released again before the next request
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_four_allocators_decide_as_their_seed(
        self, rack_sizes, slots, loose_machines, saturated, name, requests
    ):
        if not sum(rack_sizes) + loose_machines:
            return
        tree = ragged_tree(rack_sizes, slots, loose_machines)
        make_fast, make_seed = PAIRS[name]
        fast, seed = make_fast(), make_seed()
        states = [NetworkState(tree), NetworkState(tree)]
        links = sorted(states[0].links)
        for state in states:  # before the first snapshot of the state is taken
            for link_id in {links[pick % len(links)] for pick in saturated}:
                state.links[link_id].add_deterministic(10_000, state.links[link_id].capacity)
        for request_id, (n, rate, ratio, release) in enumerate(requests, start=1):
            if ratio is None or name == "oktopus":
                request = DeterministicVC(n_vms=n, bandwidth=rate)
            else:
                request = HomogeneousSVC(n_vms=n, mean=rate, std=ratio * rate)
            got = fast.allocate(states[0], request, request_id)
            want = seed.allocate(states[1], request, request_id)
            assert (got is None) == (want is None)
            if got is None:
                continue
            assert got.host_node == want.host_node
            assert got.machine_counts == want.machine_counts
            assert got.max_occupancy == want.max_occupancy
            assert got.link_demands == want.link_demands
            for state, allocation in zip(states, (got, want)):
                state.commit(allocation)
                if release:
                    state.release(allocation)


    @pytest.mark.parametrize("name", sorted(PAIRS) + ["svc-het"])
    def test_a_tree_with_no_switch_is_answered_by_the_machine_level_alone(self, name):
        # One bare machine: the walk has no level to visit (it raised here).
        tree = Tree()
        tree.add_machine("only", 4)
        tree.freeze()
        if name == "svc-het":
            fast, seed = SVCHeterogeneousAllocator(), SeedSubstringHeuristic()
        else:
            fast, seed = (make() for make in PAIRS[name])
        states = [NetworkState(tree), NetworkState(tree)]
        held = None
        for request_id, n in enumerate([5, 3, 2, 1, 4], start=1):  # 4 slots, 3 of them held
            if name == "svc-het":
                request = HeterogeneousSVC.uniform(n, 100.0, 30.0)
            elif name == "oktopus":
                request = DeterministicVC(n_vms=n, bandwidth=100.0)
            else:
                request = HomogeneousSVC(n_vms=n, mean=100.0, std=30.0)
            got = fast.allocate(states[0], request, request_id)
            want = seed.allocate(states[1], request, request_id)
            assert (got is None) == (want is None) == (n not in (3, 1))
            if got is None:
                continue
            assert got.host_node == want.host_node == tree.root_id
            assert got.machine_counts == want.machine_counts == {tree.root_id: n}
            assert got.max_occupancy == want.max_occupancy == 0.0
            assert got.link_demands == want.link_demands == {}
            if held is None:
                held = (got, want)
                for state, allocation in zip(states, held):
                    state.commit(allocation)
        for state, allocation in zip(states, held):
            state.release(allocation)
        assert fast.allocate(states[0], request, 9).machine_counts == {tree.root_id: 4}


class TestLevelSnapshot:
    def test_refresh_equals_a_from_scratch_gather(self):
        manager = NetworkManager(build_datacenter(SMALL_SPEC), epsilon=0.05)
        state = manager.state
        rng = random.Random(11)
        live = []
        refreshed_rows = 0
        for step in range(300):
            draw = rng.random()
            if draw < 0.55 or not live:
                rate = rng.choice([100.0, 200.0, 400.0])
                if rng.random() < 0.3:
                    request = DeterministicVC(n_vms=rng.randint(1, 30), bandwidth=rate)
                else:
                    request = HomogeneousSVC(
                        n_vms=rng.randint(1, 30), mean=rate, std=rng.random() * rate
                    )
                tenancy = manager.request(request)
                if tenancy is not None:
                    live.append(tenancy.request_id)
            elif draw < 0.8:
                manager.release(manager.tenancy(live.pop(rng.randrange(len(live)))))
            else:
                request_id = rng.choice(live)
                new_n = max(1, manager.tenancy(request_id).n_vms + rng.choice([-3, -1, 2, 9]))
                manager.resize(request_id, new_n=new_n)
            if step % 3:
                continue  # several mutations pile up between two looks
            kept = level_snapshot(state)
            fresh = _LevelSnapshot(state)
            fresh.refresh(state)
            assert kept is level_snapshot(state) and kept.version == state.version
            for kept_block, fresh_block in zip(kept.levels, fresh.levels):
                assert kept_block.node_ids == fresh_block.node_ids
                assert np.array_equal(kept_block.data, fresh_block.data)
                refreshed_rows += len(kept_block.node_ids)
        assert refreshed_rows and state.used_slots > 0
        assert manager.resize_counts["in_place"] and manager.resize_counts["replaced"]

    def test_one_snapshot_per_live_state(self):
        tree = build_datacenter(SMALL_SPEC)
        first, second = NetworkState(tree), NetworkState(tree)
        assert level_snapshot(first) is level_snapshot(first)
        assert level_snapshot(first) is not level_snapshot(second)


def held_bytes(thing, seen=None) -> int:
    """Bytes of array and key data reachable from ``thing`` (each object once)."""
    seen = set() if seen is None else seen
    if id(thing) in seen:
        return 0
    seen.add(id(thing))
    if isinstance(thing, np.ndarray):
        return thing.nbytes if thing.base is None else held_bytes(thing.base, seen)
    if isinstance(thing, bytes):
        return len(thing)
    if isinstance(thing, dict):
        return sum(held_bytes(k, seen) + held_bytes(v, seen) for k, v in thing.items())
    if isinstance(thing, (list, tuple)):
        return sum(held_bytes(item, seen) for item in thing)
    if hasattr(thing, "__dict__"):
        return held_bytes(vars(thing), seen)
    return 8


class TestKeptTablesAreSmall:
    def test_a_200_vm_shape_on_the_paper_tree_holds_under_200_kb(self):
        manager = NetworkManager(build_datacenter(PAPER_SPEC), epsilon=0.05)
        rng = random.Random(3)
        for _ in range(150):  # no two racks alike, so no two rack tables shared
            rate = rng.choice([100.0, 200.0, 300.0])
            manager.request(
                HomogeneousSVC(n_vms=rng.randint(2, 40), mean=rate, std=rng.random() * rate)
            )
        allocator = SVCHomogeneousAllocator()
        shape = HomogeneousSVC(n_vms=200, mean=100.0, std=40.0)
        assert allocator.allocate(manager.state, shape, 10_000) is not None
        kept = allocator._store[_request_shape(shape)]
        racks = len(manager.state.tree.nodes_at_level(1))
        assert len(kept.vertex_cache) > racks // 2  # the entry is a full one
        entry = {k: v for k, v in vars(kept).items() if k != "state"}
        assert held_bytes(entry) < 200_000
