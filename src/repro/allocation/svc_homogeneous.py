"""Algorithm 1: homogeneous VM allocation with occupancy optimization.

One bottom-up tree traversal computes, for every vertex ``v``, the allocable
VM set of the subtree ``T_v`` together with ``Opt(T_v, h)`` — the minimum,
over all valid placements of ``h`` VMs inside ``T_v``, of the maximum
bandwidth occupancy ratio of the links in ``T_v`` (Lemma 2 / Eqs. 11-12).
The request is placed in the lowest-level subtree that can host all ``N``
VMs, choosing the placement that minimizes the maximum ``O_L``.

The same tree search with the optimization switched off (feasible sums only,
first-found split recorded) is exactly the paper's *adapted TIVC* baseline:
the TIVC/Oktopus-style search with the validity condition replaced by Eq. (4)
but "no distinction between [multiple valid allocations]" (Section IV-C).
Running that variant on deterministic VC requests gives the Oktopus baseline
used for mean-VC and percentile-VC.

Implementation notes: allocable sets are dense ``float`` arrays of length
``N + 1`` indexed by VM count, holding the ``Opt`` value (``inf`` means "not
allocable").  The per-child combine step is the (min, max) convolution of the
partial array with the child's array.

The recursion runs one tree *level* at a time, on the shared kernels of
:mod:`repro.allocation.kernels` (DESIGN.md §6).  A level's inputs come from
the state's level snapshot, never link by link; its vertices are keyed by
the bytes of their snapshot rows, so vertices in bit-identical states share
one table, and the distinct ones that must be built are built together — one
broadcast ``O_L(N, e)`` block and one
:func:`~repro.allocation.kernels._fold_counts` per child *position*
(:meth:`_level_tables`).  A machine's table is the step function of
``min(free, N)`` and is never materialized.  Tables hold values only: splits
are recovered at backtrack from the prefix rows of the vertices on the
placement path (:meth:`_place_levels`).  On top sits the incremental store
(:class:`_ShapeTables`): a vertex under which nothing was committed or
released since its table was keyed costs one dict probe — a repeated shape
pays for the dirty paths, not the tree.

This is the only implementation in ``src/``.  The recursion as first written
— one vertex and one child at a time, with per-child choice tables — is the
tests' oracle (``tests/reference/seed_homogeneous.py``): every floating-point
operation of the level walk is elementwise-identical to it, so the produced
host / placement / ``max_occupancy`` decisions are bit-for-bit the same, not
merely statistically equivalent, and the equivalence tests and
``scripts/check_incremental_dp.py`` compare the two decision for decision.
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.abstractions.requests import (
    DeterministicVC,
    HomogeneousSVC,
    VirtualClusterRequest,
)
from repro.allocation.base import Allocation, Allocator, add_phase, link_demands_from_counts
from repro.allocation.demand_model import homogeneous_split_moments
from repro.allocation.kernels import (
    CAPACITY,
    DET,
    FREE,
    MEAN,
    VAR,
    _fold_counts,
    _fold_level,
    _LevelBlock,
    _LevelSnapshot,
    _split_counts,
    level_snapshot,
)
from repro.network.link_state import NetworkState
from repro.obs.instruments import (
    PHASE_ALLOC,
    PHASE_BATCH_OCCUPANCY,
    PHASE_COMBINE,
    PHASE_PRUNE,
    PHASE_TABLE_BUILD,
    REASON_NO_FEASIBLE_SUBTREE,
    REASON_NO_FREE_SLOTS,
    admission_instruments,
)
from repro.stochastic.normal import Normal

_FEASIBLE_LIMIT = 1.0  # validity is the strict inequality O_L < 1 (Eq. 4)

#: Request shapes whose tables one allocator keeps (least recently used out).
_STORE_CAPACITY = 8
#: A shape's content-addressed vertex cache is cut back to the tables its
#: vertices currently name once it holds this many per vertex visited.
_MAX_TABLES_PER_VERTEX = 4

_next_serial = itertools.count().__next__


@dataclass
class _ValueRow:
    """A kept table of the level walk: ``Opt(T_v, h)`` over ``h = 0..N``, values only."""

    values: np.ndarray
    #: Never reused, unlike ``id()``: a vertex key naming a table that was
    #: since pruned and freed can therefore never match a later table.
    serial: int = field(default_factory=_next_serial)


def _request_shape(request: VirtualClusterRequest) -> Tuple:
    """The shape class two requests must share for DP tables to be reusable.

    Vertex tables bake in the request's per-split demand moments, so only
    requests with identical ``(kind, N, moments)`` may share them.
    """
    if isinstance(request, DeterministicVC):
        return ("deterministic", request.n_vms, request.bandwidth)
    return ("homogeneous", request.n_vms, request.mean, request.std)


class _ShapeTables:
    """What Algorithm 1 keeps between calls for one request shape on one state.

    The tables are pure functions of their inputs — child tables, uplink
    moments and slot caps, all in the vertex-cache key, plus the shape's
    split moments — so reuse cannot change a decision, only skip work.
    ``signatures`` spares clean vertices even the re-keying: a commit or
    release stamps ``state.changed_at`` on exactly the ancestors of the
    machines it touched, and no input of a vertex lies outside its subtree.
    """

    def __init__(self, state: NetworkState, request: VirtualClusterRequest) -> None:
        self.state = weakref.ref(state)
        self.split_mean, self.split_var = homogeneous_split_moments(request)
        self.vertex_cache: Dict[Tuple, _ValueRow] = {}
        #: node_id -> (state version it was keyed at, its vertex-cache key);
        #: the key still holds iff ``state.changed_at[node_id] <=`` that version.
        self.signatures: Dict[int, Tuple[int, Tuple]] = {}

    def prune(self) -> None:
        """Once the cache has outgrown its bound, keep only what a vertex names."""
        if len(self.vertex_cache) > _MAX_TABLES_PER_VERTEX * len(self.signatures):
            cache = self.vertex_cache
            self.vertex_cache = {key: cache[key] for _, key in self.signatures.values()}


@dataclass
class _Walk:
    """Per-``allocate`` state of the level walk; ``tables`` holds the table of
    every switch visited so far."""

    state: NetworkState
    kept: _ShapeTables
    snapshot: _LevelSnapshot
    n: int
    deterministic: bool
    phases: Optional[Dict[str, float]]
    tables: Dict[int, _ValueRow] = field(default_factory=dict)


class _HomogeneousTreeSearch(Allocator):
    """Shared machinery for Algorithm 1 and the adapted-TIVC baseline.

    ``optimize=True`` records, per reachable VM count, the split minimizing
    the maximum occupancy ratio (Algorithm 1 proper); ``optimize=False``
    keeps only feasibility and the first-found split (adapted TIVC).
    """

    def __init__(self, optimize: bool, localize: bool = True) -> None:
        self._optimize = optimize
        self._localize = localize
        #: shape -> tables kept across calls.  Like the rest of an allocator
        #: this is single-threaded: callers serialize ``allocate``.
        self._store: "OrderedDict[Tuple, _ShapeTables]" = OrderedDict()

    def supports(self, request: VirtualClusterRequest) -> bool:
        return isinstance(request, (HomogeneousSVC, DeterministicVC))

    def _tables_for(self, state: NetworkState, request: VirtualClusterRequest) -> _ShapeTables:
        """The shape's kept tables, started afresh for a state they were not built on."""
        shape = _request_shape(request)
        kept = self._store.get(shape)
        if kept is None or kept.state() is not state:
            kept = self._store[shape] = _ShapeTables(state, request)
            if len(self._store) > _STORE_CAPACITY:
                self._store.popitem(last=False)
        self._store.move_to_end(shape)
        return kept

    def allocate(
        self,
        state: NetworkState,
        request: VirtualClusterRequest,
        request_id: int,
    ) -> Optional[Allocation]:
        if not self.supports(request):
            raise TypeError(f"{self.name} cannot place a {type(request).__name__}")
        # Observability: counters always tick; phase wall-times only
        # accumulate on sampled traces (``phases`` stays None otherwise, so
        # the hot path pays one None check per section).
        obs = admission_instruments()
        trace = obs.start(self.name)
        phases: Optional[Dict[str, float]] = trace.phases if trace is not None else None
        t_start = perf_counter()
        n = request.n_vms
        if n > state.total_free_slots:
            obs.done(
                self.name, perf_counter() - t_start, admitted=False,
                reason=REASON_NO_FREE_SLOTS, trace=trace, n_vms=n,
            )
            return None

        kept = self._tables_for(state, request)
        walk = _Walk(state, kept, level_snapshot(state), n, request.is_deterministic, phases)
        add_phase(phases, PHASE_PRUNE, t_start)
        host = self._search_levels(walk, obs)
        if host is None:
            obs.done(
                self.name, perf_counter() - t_start, admitted=False,
                reason=REASON_NO_FEASIBLE_SUBTREE, trace=trace, n_vms=n,
            )
            return None

        t_alloc = perf_counter()
        machine_counts = self._place_levels(walk, host)
        link_demands = link_demands_from_counts(
            state.tree, host, machine_counts, kept.split_mean, kept.split_var
        )
        allocation = Allocation(
            request=request,
            request_id=request_id,
            host_node=host,
            machine_counts=machine_counts,
            link_demands=link_demands,
            max_occupancy=self._subtree_max_occupancy(state, host, link_demands),
        )
        add_phase(phases, PHASE_ALLOC, t_alloc)
        obs.done(self.name, perf_counter() - t_start, admitted=True, trace=trace, n_vms=n)
        return allocation

    def _is_better_host(self, value: float, host: Optional[int], host_value: float) -> bool:
        """Algorithm 1 takes the level's first minimum, adapted TIVC its first feasible."""
        return value < host_value and (self._optimize or host is None)

    # ------------------------------------------------------------------
    # The level walk
    # ------------------------------------------------------------------

    def _search_levels(self, walk: _Walk, obs) -> Optional[int]:
        """Host search, one level at a time: the lowest level with a feasible
        vertex and on it the first vertex of minimum ``Opt(T_v, N)`` (the first
        feasible one without optimization; the root when not localizing)."""
        n, kept = walk.n, walk.kept
        kept_before = len(kept.vertex_cache)
        since = perf_counter()
        host, machines, steps = walk.snapshot.machine_level(n)
        host_value = np.inf if host is None else 0.0
        add_phase(walk.phases, PHASE_TABLE_BUILD, since)
        for block in walk.snapshot.levels:
            if host is not None and self._localize:
                break  # lowest feasible level found
            self._level_tables(walk, block)
            for node_id in block.node_ids:
                value = float(walk.tables[node_id].values[n])
                if self._is_better_host(value, host, host_value):
                    host, host_value = node_id, value
        root = walk.tables.get(walk.state.tree.root_id)
        if not self._localize and root is not None and np.isfinite(float(root.values[n])):
            host = walk.state.tree.root_id  # locality ablation: Opt(T_root, N), the global min-max
        # Once per request: a lookup is one machine or switch that needed a
        # table, a build one distinct result; a shared one served the rest.
        obs.cache("machine", machines, machines - steps)
        built = len(kept.vertex_cache) - kept_before
        obs.cache("vertex", len(walk.tables), len(walk.tables) - built)
        kept.prune()
        return host

    def _level_tables(self, walk: _Walk, block: _LevelBlock) -> None:
        """``walk.tables`` for every vertex of one level.

        A clean vertex (see :class:`_ShapeTables`) keeps its key untouched.
        The others are keyed by what their table is a function of — the bytes
        of their block rows, which hold every child's uplink state and slot
        cap, plus the serials of their switch children's tables (a machine
        child's table *is* its slot cap) — and the keys no kept table answers
        are built together, one representative each.
        """
        since = perf_counter()
        state, tables = walk.state, walk.tables
        signatures, cache = walk.kept.signatures, walk.kept.vertex_cache
        keyed = None
        pending: Dict[Tuple, int] = {}  # key -> the first block row it names
        for row, node_id in enumerate(block.node_ids):
            memo = signatures.get(node_id)
            if memo is None or state.changed_at[node_id] > memo[0]:
                if keyed is None:  # slot caps are all a DP for N VMs reads of free slots
                    keyed = block.data.copy()
                    np.minimum(keyed[:, :, FREE], walk.n, out=keyed[:, :, FREE])
                key = (
                    keyed[row, : len(block.child_ids[row])].tobytes(),
                    tuple(tables[child].serial for child in block.inner_ids[row]),
                )
                signatures[node_id] = (state.version, key)
                if key not in cache:
                    pending.setdefault(key, row)
        add_phase(walk.phases, PHASE_TABLE_BUILD, since)
        if pending:
            # Most children first: what _fold_level asks of its stack.
            keys = sorted(pending, key=lambda key: -len(block.child_ids[pending[key]]))
            rows = [pending[key] for key in keys]
            since = perf_counter()
            effective = self._effective(walk, block, rows)
            add_phase(walk.phases, PHASE_BATCH_OCCUPANCY, since)
            since = perf_counter()
            values = self._fold_children(effective, block.counts[rows], walk.n + 1)[-1]
            for key, row_values in zip(keys, values):
                cache[key] = _ValueRow(row_values.copy())  # not a view: a pruned row frees
            add_phase(walk.phases, PHASE_COMBINE, since)
        for node_id in block.node_ids:
            tables[node_id] = cache[signatures[node_id][1]]

    def _fold_children(
        self, effective: np.ndarray, counts: np.ndarray, height: int
    ) -> List[np.ndarray]:
        """Eq. (11) for a stack of vertices: their rows over ``0..height-1``
        VMs before each child position and after the last."""
        start = np.full((len(counts), height), np.inf)
        start[:, 0] = 0.0  # T_v[0] = {v}: no links, nothing placed
        return _fold_level(
            start,
            counts,
            lambda rows, position: _fold_counts(
                rows, effective[: len(rows), position, :height], self._optimize
            ),
        )

    @staticmethod
    def _effective(walk: _Walk, block: _LevelBlock, rows: List[int]) -> np.ndarray:
        """``eff[v, i, e] = max(Opt(T_child, e), O_uplink(N, e))`` for every child
        ``i`` of the block rows ``rows``, ``inf`` where the uplink rejects ``e``.

        The allocable-set definition (Definition 1) for a whole stack of
        vertices in one broadcast: split sizes run to the largest slot cap of
        the stack (past a child's own cap its table is ``inf`` anyway), a
        machine child's table is the 0/``inf`` step at its cap (lines 4-7 of
        Algorithm 1: co-located VMs use no links), and the occupancy block is
        ``O_L(N, e)`` of Eq. (6): for a stochastic request the candidate
        moments join the CLT aggregate; for a deterministic one the candidate
        mean joins ``D_L`` and only the existing stochastic aggregate
        contributes variance (Section IV-B).  It applies the oracle's per-link
        ``_uplink_occupancy_vector`` operation for operation, so every entry
        is bit-identical to its ``_child_effective``'s.
        """
        data = block.data[rows]
        caps = np.minimum(data[:, :, FREE, None], walk.n)  # a subtree's slot cap
        width = int(caps.max()) + 1
        child = np.where(np.arange(width) <= caps, 0.0, np.inf)
        inner = [
            walk.tables[child_id].values[:width]
            for row in rows
            for child_id in block.inner_ids[row]
        ]
        if inner:
            child[block.inner[rows]] = inner
        det, mean, var, capacity = (
            data[:, :, column, None] for column in (DET, MEAN, VAR, CAPACITY)
        )
        risk_c = walk.state.risk_c
        split_mean = walk.kept.split_mean[:width]
        if walk.deterministic:
            reserved = det + split_mean
            effective = mean + risk_c * np.sqrt(np.maximum(var, 0.0))
        else:
            reserved = det
            variance = var + walk.kept.split_var[:width]
            effective = (mean + split_mean) + risk_c * np.sqrt(np.maximum(variance, 0.0))
        occupancy = (reserved + effective) / capacity
        child = np.maximum(child, occupancy)
        child[occupancy >= _FEASIBLE_LIMIT] = np.inf
        return child

    def _place_levels(self, walk: _Walk, host: int) -> Dict[int, int]:
        """The ``Alloc()`` backtrack, level by level, without choice tables.

        Algorithm 1's ``D_v[i, remaining]`` is the first ``e`` minimizing
        ``max(eff_i[e], partial_i[remaining - e])`` (the first feasible one
        without optimization).  The prefix rows ``partial_i`` of every vertex
        on the placement path are refolded, stacked as in the build but only
        as far as the largest count placed, and :func:`_split_counts` takes
        exactly that split.
        """
        if host not in walk.tables:
            return {host: walk.n}  # a machine hosts the request whole
        machine_counts: Dict[int, int] = {}
        todo = {host: walk.n}
        for block in reversed(walk.snapshot.levels):
            rows = sorted(
                (block.row_of[node_id] for node_id in todo if node_id in block.row_of),
                key=lambda row: -len(block.child_ids[row]),
            )
            if not rows:
                continue
            remaining = np.array([todo.pop(block.node_ids[row]) for row in rows])
            height = int(remaining.max()) + 1
            effective = self._effective(walk, block, rows)[:, :, :height]
            counts = block.counts[rows]
            prefixes = self._fold_children(effective, counts, height)
            for position in range(len(prefixes) - 2, -1, -1):
                live = int(np.count_nonzero(counts > position))
                split = _split_counts(
                    prefixes[position][:live], effective[:live, position],
                    remaining[:live], self._optimize,
                )
                for index in np.flatnonzero(split).tolist():
                    child_id = block.child_ids[rows[index]][position]
                    target = machine_counts if block.machines[rows[index], position] else todo
                    target[child_id] = int(split[index])
                remaining[:live] -= split
            if remaining.any():
                stuck = block.node_ids[rows[int(np.argmax(remaining != 0))]]
                raise RuntimeError(f"backtracking hit an infeasible entry at node {stuck}")
        return machine_counts

    # ------------------------------------------------------------------
    # Elastic resize support
    # ------------------------------------------------------------------

    def resize_link_demands(
        self,
        state: NetworkState,
        new_request: VirtualClusterRequest,
        host_node: int,
        machine_counts,
        machine_vms=None,
    ):
        """Occupancy-delta query: the resized footprint on a fixed placement.

        Homogeneous VMs are interchangeable, so the new per-link demand is
        just the Lemma-1 split moments of the *new* request looked up at the
        placement's unchanged per-link VM counts.
        """
        if not self.supports(new_request):
            raise TypeError(f"{self.name} cannot resize a {type(new_request).__name__}")
        split_mean, split_var = homogeneous_split_moments(new_request)
        return link_demands_from_counts(
            state.tree, host_node, machine_counts, split_mean, split_var
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @staticmethod
    def _subtree_max_occupancy(
        state: NetworkState, host: int, link_demands: Dict[int, Normal]
    ) -> float:
        """Post-allocation ``max O_L`` over the hosting subtree's links."""
        worst = 0.0
        for link in state.tree.links_under(host):
            link_state = state.links[link.link_id]
            demand = link_demands.get(link.link_id)
            if demand is None:
                occ = link_state.occupancy(state.risk_c)
            else:
                # extra mean and extra deterministic reservation enter Eq. (6)
                # identically, so one call covers both request kinds.
                occ = link_state.occupancy_with(
                    state.risk_c, extra_mean=demand.mean, extra_var=demand.variance
                )
            if occ > worst:
                worst = occ
        return worst


class SVCHomogeneousAllocator(_HomogeneousTreeSearch):
    """Algorithm 1: lowest-level subtree + min-max occupancy placement."""

    name = "svc-dp"

    def __init__(self) -> None:
        super().__init__(optimize=True)


class GlobalMinMaxAllocator(_HomogeneousTreeSearch):
    """Locality ablation: min-max occupancy over the *whole* tree.

    Drops the lowest-level-subtree bias of Algorithm 1 and places at the
    global optimum of ``max_L O_L``.  Not part of the paper's system — it
    exists to quantify what the locality heuristic buys (upper-level links
    conserved, future requests accommodated; see
    ``experiments/ablation_locality.py``).
    """

    name = "svc-global"

    def __init__(self) -> None:
        super().__init__(optimize=True, localize=False)


class AdaptedTIVCAllocator(_HomogeneousTreeSearch):
    """The adapted-TIVC baseline: Eq. (4) validity, no occupancy optimization."""

    name = "tivc"

    def __init__(self) -> None:
        super().__init__(optimize=False)


class OktopusAllocator(AdaptedTIVCAllocator):
    """The Oktopus virtual-cluster allocator (deterministic requests only)."""

    name = "oktopus"

    def supports(self, request: VirtualClusterRequest) -> bool:
        return isinstance(request, DeterministicVC)
