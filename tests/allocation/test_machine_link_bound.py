"""The machine-link bound: a reject proved before any table is built.

``_chain_pieces`` over the elementwise-min machine band is a lower bound on
``Opt[0, N]`` of every switch — bit-wise ``<=`` the seed DP's own value, not
approximately — so ``inf`` there *is* the seed's reject.  Checked on random
ragged trees and loaded states (machines hung off a pod, dead machine links,
full machines, ``sigma = 0``, requests below and above a machine's slots),
and once on the paper tree, where the proved reject must build nothing.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abstractions import HeterogeneousSVC, HomogeneousSVC
from repro.allocation import svc_het_heuristic
from repro.allocation.kernels import _chain_pieces, level_snapshot
from repro.allocation.svc_het_heuristic import SVCHeterogeneousAllocator
from repro.network import NetworkState
from repro.stochastic import Normal
from repro.topology import PAPER_SPEC, build_datacenter
from repro.topology.tree import Tree
from tests.allocation.test_het_fast_equivalence import _search_both
from tests.allocation.test_het_occupancy_fixes import _zero_capacity_link_state
from tests.reference import SeedSubstringHeuristic, SeedTreeSearch

#: Few distinct costs, so minima tie and ``inf`` pieces are common.
COSTS = (0.0, 0.25, 0.5, 0.5, 0.75, np.inf, np.inf)


@st.composite
def piece_bands(draw):
    """``best[d, s]`` for pieces of up to ``width - 1`` VMs of ``[0, n)``
    (``width = 1``: no piece fits anywhere)."""
    n = draw(st.integers(1, 12))
    width = draw(st.integers(1, n + 1))
    best = np.array(
        draw(st.lists(st.lists(st.sampled_from(COSTS), min_size=n + 1, max_size=n + 1),
                      min_size=width, max_size=width))
    )
    best[0] = 0.0
    best[np.add.outer(np.arange(width), np.arange(n + 1)) > n] = np.inf  # the band invariant
    return best


class TestChainPieces:
    @settings(max_examples=200, deadline=None)
    @given(best=piece_bands())
    def test_equals_the_recurrence_written_out(self, best):
        width, height = best.shape
        want = [0.0]
        for e in range(1, height):
            want.append(
                min(
                    (max(want[e - d], best[d, e - d]) for d in range(1, min(width - 1, e) + 1)),
                    default=np.inf,
                )
            )
        assert _chain_pieces(best).tolist() == want

    def test_one_piece_nobody_takes_cuts_the_chain(self):
        # Pieces of one or two VMs; the VM at 2 fits nowhere, alone or paired.
        best = np.array([
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.1, 0.2, np.inf, 0.4, np.inf],
            [0.3, np.inf, np.inf, np.inf, np.inf],
        ])
        assert _chain_pieces(best).tolist() == [0.0, 0.1, 0.2, np.inf, np.inf]


def ragged_tree(pods, slots, capacities=(300.0,)):
    """Pods of unequal racks, machines hung off the pods themselves, and a
    core above them when there is more than one pod; machine slots and
    machine-link capacities cycle through ``slots`` / ``capacities``."""
    tree = Tree()
    slot, capacity = itertools.cycle(slots), itertools.cycle(capacities)
    core = tree.add_switch("core", level=3) if len(pods) > 1 else None
    for p, (rack_sizes, loose) in enumerate(pods):
        pod = tree.add_switch(f"pod{p}", level=2)
        if core is not None:
            tree.attach(pod, core, 900.0)
        for r, size in enumerate(rack_sizes):
            rack = tree.add_switch(f"rack{p}.{r}", level=1)
            tree.attach(rack, pod, 600.0)
            for m in range(size):
                tree.attach(tree.add_machine(f"m{p}.{r}.{m}", next(slot)), rack, next(capacity))
        for m in range(loose):
            tree.attach(tree.add_machine(f"loose{p}.{m}", next(slot)), pod, next(capacity))
    return tree.freeze()


def loaded_state(tree, preload, saturated, dead):
    """A state with ``preload`` homogeneous tenants committed where Algorithm 1
    puts them (a request of a machine's size fills that machine, a larger one
    loads links), the ``saturated`` picks among the links reserved to the brim
    and the ``dead`` picks drained to capacity 0."""
    state = NetworkState(tree)
    links = sorted(state.links)
    for link_id in {links[pick % len(links)] for pick in saturated}:
        state.links[link_id].add_deterministic(10_000, state.links[link_id].capacity)
    allocator = SeedTreeSearch(optimize=True)
    for request_id, (n, mean, ratio) in enumerate(preload, start=1):
        allocation = allocator.allocate(
            state, HomogeneousSVC(n_vms=n, mean=mean, std=ratio * mean), request_id
        )
        if allocation is not None:
            state.commit(allocation)
    # Last: Algorithm 1's seed divides by the capacity unguarded.
    for link_id in {links[pick % len(links)] for pick in dead}:
        state.links[link_id] = _zero_capacity_link_state(link_id, tree.node(link_id).parent)
    return state


def bound_and_seed_tables(state, request):
    """The bound beside the seed's full table of every node."""
    caches, _host, tables = _search_both(state, request)
    bound = SVCHeterogeneousAllocator()._machine_link_bound(
        state, level_snapshot(state), caches
    )
    return bound, tables


class TestBoundOnRandomTrees:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        pods=st.lists(
            st.tuples(st.lists(st.integers(0, 3), min_size=0, max_size=3), st.integers(0, 2)),
            min_size=1,
            max_size=2,
        ),
        slots=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        capacities=st.lists(st.sampled_from([150.0, 300.0, 300.0]), min_size=1, max_size=4),
        preload=st.lists(
            st.tuples(st.integers(1, 5), st.sampled_from([30.0, 90.0]),
                      st.sampled_from([0.0, 0.5])),
            max_size=4,
        ),
        saturated=st.sets(st.integers(0, 30), max_size=2),
        dead=st.sets(st.integers(0, 30), max_size=2),
        demands=st.lists(  # 1..9 VMs: below and above the 1-3 slots of a machine
            st.tuples(st.sampled_from([20.0, 60.0, 140.0, 260.0]),
                      st.sampled_from([0.0, 0.5, 1.0])),
            min_size=1,
            max_size=9,
        ),
    )
    def test_bound_is_below_every_switch_and_its_inf_is_the_seeds_reject(
        self, pods, slots, capacities, preload, saturated, dead, demands
    ):
        if not sum(sum(rack_sizes) + loose for rack_sizes, loose in pods):
            return
        tree = ragged_tree(pods, slots, capacities)
        state = loaded_state(tree, preload, saturated, dead)
        request = HeterogeneousSVC(
            n_vms=len(demands), demands=tuple(Normal(mean, ratio * mean) for mean, ratio in demands)
        )
        n = request.n_vms
        bound, tables = bound_and_seed_tables(state, request)
        for node in tree.nodes:
            if not node.is_machine:
                assert bound <= float(tables[node.node_id].values[0, n])  # bit-wise: no tolerance
        seed = SeedSubstringHeuristic().allocate(state, request, 99)
        # The walk asks for the bound only once no single machine hosts the request.
        if bound == np.inf and level_snapshot(state).machine_level(n)[0] is None:
            assert seed is None
        fast = SVCHeterogeneousAllocator().allocate(state, request, 99)
        assert (fast is None) == (seed is None)
        if fast is not None:
            assert fast.host_node == seed.host_node
            assert fast.machine_vms == seed.machine_vms
            assert fast.max_occupancy == seed.max_occupancy

    def test_a_single_rack_is_bounded_by_its_own_value_exactly(self):
        # Identical machines under one switch, a machine per VM to spare: the
        # cheapest cut into pieces is a placement, so the bound is the DP's value.
        tree = ragged_tree([([6], 0)], slots=[2])
        request = HeterogeneousSVC(
            n_vms=5, demands=tuple(Normal(40.0 + 10.0 * i, 15.0) for i in range(5))
        )
        bound, tables = bound_and_seed_tables(NetworkState(tree), request)
        assert 0.0 < bound < 1.0
        assert bound == float(tables[tree.root_id].values[0, 5])


class TestPaperTreeRegression:
    def test_a_vm_above_the_nic_is_rejected_with_nothing_built(self, monkeypatch):
        """Fails at the parent commit, which materialized every level first."""
        combines = []
        combine = svc_het_heuristic._combine_bands
        monkeypatch.setattr(
            svc_het_heuristic, "_combine_bands",
            lambda *args: combines.append(1) or combine(*args),
        )
        state = NetworkState(build_datacenter(PAPER_SPEC), epsilon=0.05)
        # Twelve VMs over 4-slot machines; one's effective bandwidth
        # mean + c * std = 700 + 1.64 * 300 is above the 1 Gbps NIC, and so is
        # every piece holding it (the rest of the request outweighs any piece).
        demands = [Normal(300.0, 100.0)] * 11 + [Normal(700.0, 300.0)]
        assert 700.0 + state.risk_c * 300.0 > PAPER_SPEC.machine_link_mbps
        request = HeterogeneousSVC(n_vms=12, demands=tuple(demands))
        assert SVCHeterogeneousAllocator().allocate(state, request, 1) is None
        assert not combines
        assert SeedSubstringHeuristic().allocate(state, request, 1) is None
        # The same request without the outsized VM is placed, above the racks' machines.
        fits = HeterogeneousSVC(n_vms=11, demands=tuple(demands[:11]))
        placed = SVCHeterogeneousAllocator().allocate(state, fits, 2)
        assert placed is not None and not state.tree.node(placed.host_node).is_machine
