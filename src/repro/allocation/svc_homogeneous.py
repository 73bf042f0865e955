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
partial array with the child's array — done with one vectorized pass per
feasible child count.

Two implementations of the tree DP coexist:

* the **seed** path (``fast=False``) — the original straight-line
  implementation, kept verbatim as the reference the fast path is proven
  against (placement-equivalence tests compare the two decision for
  decision);
* the **fast** path (``fast=True``, the default) — numerically identical,
  but (a) caps every split size at the child subtree's *free-slot total*
  (maintained incrementally by :class:`~repro.network.link_state.NetworkState`)
  instead of iterating to ``N``, (b) computes the uplink occupancy of all
  children of a vertex in one broadcast batch, (c) shares one table across
  all machines with the same free-slot count (and one table across vertices
  whose children are in bit-identical states), (d) replaces the
  per-``e`` Python loop of the combine step with a single index-gather
  (min, max)-convolution, and (e) is incremental: the tables of the last
  few request shapes are kept across calls (:class:`_ShapeTables`), and a
  vertex under which nothing was committed or released since its table was
  keyed (``NetworkState.changed_at``) is neither re-keyed nor rebuilt — a
  repeated shape costs the dirty paths, not the tree.

Every floating-point operation of the fast path is elementwise-identical to
the seed path, so the produced host / placement / ``max_occupancy`` decisions
are bit-for-bit the same — not merely statistically equivalent.
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
from repro.allocation.base import Allocation, Allocator, link_demands_from_counts
from repro.allocation.demand_model import homogeneous_split_moments
from repro.network.link_state import LinkState, NetworkState
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
class _VertexTable:
    """DP state of one vertex: values over VM counts + per-child split choices."""

    values: np.ndarray  # Opt(T_v, h) over h = 0..N; inf = not allocable
    choices: List[np.ndarray]  # choices[i][s] = VMs given to child i when T_v[i] holds s
    #: Never reused, unlike ``id()``: a cache key naming a table that was
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


def _convolution_context(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-shape scratch for ``_combine_fast``.

    ``idx_full[e, s] = s - e``; gathering a partial table through its
    first ``cap + 1`` rows yields the shifted matrix ``partial[s - e]``
    in one C call.  Negative entries wrap into the permanent ``inf``
    tail of ``scratch``, encoding the ``s < e`` infeasible corner.
    """
    s_index = np.arange(n + 1)
    idx_full = s_index[None, :] - s_index[:, None]
    scratch = np.empty(2 * n + 1)
    scratch[n + 1 :] = np.inf
    return s_index, idx_full, scratch


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
        self.conv = _convolution_context(request.n_vms)
        self.machine_cache: Dict[int, _VertexTable] = {}
        self.vertex_cache: Dict[Tuple, _VertexTable] = {}
        #: node_id -> (state version it was keyed at, its vertex-cache key);
        #: the key still holds iff ``state.changed_at[node_id] <=`` that version.
        self.signatures: Dict[int, Tuple[int, Tuple]] = {}

    def prune(self) -> None:
        """Once the cache has outgrown its bound, keep only what a vertex names."""
        if len(self.vertex_cache) > _MAX_TABLES_PER_VERTEX * len(self.signatures):
            cache = self.vertex_cache
            self.vertex_cache = {key: cache[key] for _, key in self.signatures.values()}


def _uplink_occupancy_vector(
    link_state: LinkState,
    risk_c: float,
    split_mean: np.ndarray,
    split_var: np.ndarray,
    deterministic: bool,
) -> np.ndarray:
    """``O_L(N, e)`` for every split size ``e`` of the candidate request.

    For a stochastic request the candidate moments join the CLT aggregate;
    for a deterministic request the candidate mean joins ``D_L`` and only the
    existing stochastic aggregate contributes variance (Section IV-B).
    """
    if deterministic:
        stoch_mean = link_state.mean_total
        variance = np.full_like(split_mean, max(link_state.var_total, 0.0))
        reserved = link_state.deterministic_total + split_mean
    else:
        stoch_mean = link_state.mean_total + split_mean
        variance = link_state.var_total + split_var
        reserved = np.full_like(split_mean, link_state.deterministic_total)
    effective = stoch_mean + risk_c * np.sqrt(np.maximum(variance, 0.0))
    return (reserved + effective) / link_state.capacity


class _HomogeneousTreeSearch(Allocator):
    """Shared machinery for Algorithm 1 and the adapted-TIVC baseline.

    ``optimize=True`` records, per reachable VM count, the split minimizing
    the maximum occupancy ratio (Algorithm 1 proper); ``optimize=False``
    keeps only feasibility and the first-found split (adapted TIVC).
    """

    def __init__(self, optimize: bool, localize: bool = True, fast: bool = True) -> None:
        self._optimize = optimize
        self._localize = localize
        self._fast = fast
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

        deterministic = request.is_deterministic
        tree = state.tree

        tables: Dict[int, _VertexTable] = {}
        host: Optional[int] = None
        host_value = np.inf
        if self._fast:
            kept = self._tables_for(state, request)
            split_mean, split_var = kept.split_mean, kept.split_var
            machine_cache = kept.machine_cache
            machine_pre = len(machine_cache)
            vertex_pre = len(kept.vertex_cache)
        else:
            split_mean, split_var = homogeneous_split_moments(request)
        machine_lookups = 0
        vertex_lookups = 0
        if phases is not None:
            phases[PHASE_PRUNE] = perf_counter() - t_start
        for _level, node_ids in tree.bottom_up_levels():
            if self._fast and _level == 0:
                # Machine level, unrolled: the table is the shared 0/inf step
                # function per free-slot count, and a machine hosts the whole
                # request iff its free slots cover N — in which case its
                # Opt value is 0.0 and (for both the optimizing and the
                # first-feasible variant) the first such machine in node
                # order wins, exactly as the generic loop below decides.
                t_phase = perf_counter() if phases is not None else 0.0
                free_slots = state.free_slots
                for node_id in node_ids:
                    free = free_slots(node_id)
                    tables[node_id] = self._machine_table(
                        min(free, n), n, machine_cache
                    )
                    if host is None and free >= n:
                        host, host_value = node_id, 0.0
                machine_lookups = len(node_ids)
                if phases is not None:
                    phases[PHASE_TABLE_BUILD] = (
                        phases.get(PHASE_TABLE_BUILD, 0.0) + perf_counter() - t_phase
                    )
                if host is not None and self._localize:
                    break
                continue
            for node_id in node_ids:
                if self._fast:
                    vertex_lookups += 1
                    table = self._build_vertex_fast(
                        state, node_id, n, deterministic, tables, kept, phases
                    )
                else:
                    t_phase = perf_counter() if phases is not None else 0.0
                    table = self._build_vertex(
                        state, node_id, n, split_mean, split_var, deterministic, tables
                    )
                    if phases is not None:
                        phases[PHASE_TABLE_BUILD] = (
                            phases.get(PHASE_TABLE_BUILD, 0.0)
                            + perf_counter() - t_phase
                        )
                tables[node_id] = table
                value = float(table.values[n])
                if not np.isfinite(value):
                    continue
                if self._optimize:
                    if value < host_value:
                        host, host_value = node_id, value
                elif host is None:
                    host, host_value = node_id, value
            if host is not None and self._localize:
                break  # lowest feasible level found
        if not self._localize and np.isfinite(float(tables[tree.root_id].values[n])):
            # Locality ablation: ignore the lowest-subtree bias and take the
            # global min-max placement, Opt(T_root, N).
            host = tree.root_id
            host_value = float(tables[tree.root_id].values[n])
        if self._fast:
            # Hit/miss bookkeeping is derived once per request: every probe
            # that did not insert a new table was served by a shared one.
            # Counting inserts relative to the pre-call size keeps the math
            # right when tables are carried in from earlier calls.
            obs.cache(
                "machine",
                machine_lookups,
                machine_lookups - (len(machine_cache) - machine_pre),
            )
            obs.cache(
                "vertex",
                vertex_lookups,
                vertex_lookups - (len(kept.vertex_cache) - vertex_pre),
            )
            kept.prune()
        if host is None:
            obs.done(
                self.name, perf_counter() - t_start, admitted=False,
                reason=REASON_NO_FEASIBLE_SUBTREE, trace=trace, n_vms=n,
            )
            return None

        t_alloc = perf_counter() if phases is not None else 0.0
        machine_counts: Dict[int, int] = {}
        self._backtrack(tree, tables, host, n, machine_counts)
        link_demands = link_demands_from_counts(
            tree, host, machine_counts, split_mean, split_var
        )
        allocation = Allocation(
            request=request,
            request_id=request_id,
            host_node=host,
            machine_counts=machine_counts,
            link_demands=link_demands,
            max_occupancy=self._subtree_max_occupancy(state, host, link_demands),
        )
        if phases is not None:
            phases[PHASE_ALLOC] = perf_counter() - t_alloc
        obs.done(self.name, perf_counter() - t_start, admitted=True, trace=trace, n_vms=n)
        return allocation

    # ------------------------------------------------------------------
    # DP construction
    # ------------------------------------------------------------------

    def _build_vertex(
        self,
        state: NetworkState,
        node_id: int,
        n: int,
        split_mean: np.ndarray,
        split_var: np.ndarray,
        deterministic: bool,
        tables: Dict[int, _VertexTable],
    ) -> _VertexTable:
        tree = state.tree
        node = tree.node(node_id)
        if node.is_machine:
            # Lines 4-7 of Algorithm 1: a machine can absorb up to its free
            # slots, and VMs co-located on one machine use no links.
            values = np.full(n + 1, np.inf)
            limit = min(state.free_slots(node_id), n)
            values[: limit + 1] = 0.0
            return _VertexTable(values=values, choices=[])

        partial = np.full(n + 1, np.inf)
        partial[0] = 0.0  # T_v[0] = {v}: no links, nothing placed
        choices: List[np.ndarray] = []
        for child_id in node.children:
            child_eff = self._child_effective(
                state, child_id, n, split_mean, split_var, deterministic, tables
            )
            partial, choice = self._combine(partial, child_eff, n)
            choices.append(choice)
        return _VertexTable(values=partial, choices=choices)

    def _child_effective(
        self,
        state: NetworkState,
        child_id: int,
        n: int,
        split_mean: np.ndarray,
        split_var: np.ndarray,
        deterministic: bool,
        tables: Dict[int, _VertexTable],
    ) -> np.ndarray:
        """max(Opt(T_child, e), O_uplink(N, e)) with infeasible e set to inf.

        The uplink filter implements the allocable-set definition
        (Definition 1): the bandwidth constraint of every link inside the
        child subtree *and* of its uplink.
        """
        child_values = tables[child_id].values
        occ = _uplink_occupancy_vector(
            state.links[child_id], state.risk_c, split_mean, split_var, deterministic
        )
        effective = np.maximum(child_values, occ)
        effective[occ >= _FEASIBLE_LIMIT] = np.inf
        return effective

    def _combine(
        self, partial: np.ndarray, child_eff: np.ndarray, n: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(min, max)-convolve the running table with one child's table.

        Implements Eq. (11): ``Opt(T_v[i], s) = min over e+h=s of
        max(Opt(T_v[i-1], h), effective_child(e))``, recording the minimizing
        ``e`` (the ``D_v[i, s]`` table of Algorithm 1).  In the
        feasibility-only variant the first feasible ``e`` is recorded
        instead — TIVC "makes no distinction" between valid splits.
        """
        new_values = np.full(n + 1, np.inf)
        choice = np.full(n + 1, -1, dtype=np.int64)
        feasible_h = np.isfinite(partial)
        if not feasible_h.any():
            return new_values, choice
        max_h = int(np.flatnonzero(feasible_h)[-1])
        for e in np.flatnonzero(np.isfinite(child_eff)):
            e = int(e)
            upper = min(max_h, n - e)
            if upper < 0:
                continue
            segment = partial[: upper + 1]
            # Infeasible h (inf) propagates through the max, so no extra mask.
            candidate = np.maximum(child_eff[e], segment)
            target = new_values[e : e + upper + 1]
            chosen = choice[e : e + upper + 1]
            if self._optimize:
                better = candidate < target
            else:
                better = np.isfinite(candidate) & ~np.isfinite(target)
            target[better] = candidate[better]
            chosen[better] = e
        return new_values, choice

    # ------------------------------------------------------------------
    # Fast DP construction (numerically identical to the seed path above)
    # ------------------------------------------------------------------

    @staticmethod
    def _machine_table(limit: int, n: int, machine_cache: Dict[int, _VertexTable]) -> _VertexTable:
        """Shared per-free-slot-count machine table (lines 4-7 of Algorithm 1).

        Machines with the same number of free slots have identical DP tables,
        so one read-only array serves all of them for the current request.
        """
        table = machine_cache.get(limit)
        if table is None:
            values = np.full(n + 1, np.inf)
            values[: limit + 1] = 0.0
            values.flags.writeable = False
            table = _VertexTable(values=values, choices=[])
            machine_cache[limit] = table
        return table

    def _build_vertex_fast(
        self,
        state: NetworkState,
        node_id: int,
        n: int,
        deterministic: bool,
        tables: Dict[int, _VertexTable],
        kept: _ShapeTables,
        phases: Optional[Dict[str, float]] = None,
    ) -> _VertexTable:
        """Pruned, batched equivalent of :meth:`_build_vertex`.

        Split sizes are capped at ``min(N, free_slots_under(child))`` — every
        entry beyond that cap is ``inf`` in the child's table anyway (a
        subtree cannot absorb more VMs than its free slots), so skipping them
        changes nothing.  The uplink occupancy of *all* children is computed
        in one broadcast batch; the elementwise operations match the seed
        path's exactly, so the resulting floats are bit-identical.

        The vertex DP is a pure function of the children's tables and uplink
        states, so vertices whose children are in bit-identical states (the
        common case: most racks of a datacenter look alike) share one table
        via ``kept.vertex_cache``, keyed by the per-child (table serial, link
        state, slot cap) signature.
        """
        vertex_cache = kept.vertex_cache
        memo = kept.signatures.get(node_id)
        if memo is not None and state.changed_at[node_id] <= memo[0]:
            # Nothing under this vertex moved since it was keyed: its
            # children's tables, uplink moments and slot caps are what they
            # were, so the per-child re-keying can be skipped outright.
            return vertex_cache[memo[1]]

        children = state.tree.node(node_id).children
        if not children:
            partial = np.full(n + 1, np.inf)
            partial[0] = 0.0
            return _VertexTable(values=partial, choices=[])

        # ``phases`` (sampled traces only) splits the work into disjoint
        # wall-time sections: table_build = per-child metadata + signature +
        # cache probe, batch_occupancy = the broadcast O_L(N, e) block,
        # combine = the (min, max)-convolutions.
        t_phase = perf_counter() if phases is not None else 0.0
        num = len(children)
        caps = np.empty(num, dtype=np.int64)
        det = np.empty(num)
        mean = np.empty(num)
        var = np.empty(num)
        capacity = np.empty(num)
        links = state.links
        signature: List[Tuple] = []
        for i, child_id in enumerate(children):
            link_state = links[child_id]
            det[i] = link_state.deterministic_total
            mean[i] = link_state.mean_total
            var[i] = link_state.var_total
            capacity[i] = link_state.capacity
            caps[i] = cap = min(n, state.free_slots_under(child_id))
            # Table identity is safe as a key: machine tables are shared per
            # free-slot count and cached vertex tables are shared per
            # signature, so equal serials imply bit-identical child tables.
            signature.append(
                (tables[child_id].serial, det[i], mean[i], var[i], capacity[i], cap)
            )
        key = tuple(signature)
        cached = vertex_cache.get(key)
        if phases is not None:
            phases[PHASE_TABLE_BUILD] = (
                phases.get(PHASE_TABLE_BUILD, 0.0) + perf_counter() - t_phase
            )
        if cached is not None:
            kept.signatures[node_id] = (state.version, key)
            return cached

        partial = np.full(n + 1, np.inf)
        partial[0] = 0.0  # T_v[0] = {v}: no links, nothing placed
        choices: List[np.ndarray] = []
        t_phase = perf_counter() if phases is not None else 0.0
        width = int(caps.max())
        split_mean, split_var, conv = kept.split_mean, kept.split_var, kept.conv
        sm = split_mean[: width + 1][None, :]
        if deterministic:
            reserved = det[:, None] + sm
            effective = mean[:, None] + state.risk_c * np.sqrt(np.maximum(var[:, None], 0.0))
            occ = (reserved + effective) / capacity[:, None]
        else:
            sv = split_var[: width + 1][None, :]
            stoch_mean = mean[:, None] + sm
            variance = var[:, None] + sv
            effective = stoch_mean + state.risk_c * np.sqrt(np.maximum(variance, 0.0))
            occ = (det[:, None] + effective) / capacity[:, None]
        if phases is not None:
            phases[PHASE_BATCH_OCCUPANCY] = (
                phases.get(PHASE_BATCH_OCCUPANCY, 0.0) + perf_counter() - t_phase
            )
            t_phase = perf_counter()

        for i, child_id in enumerate(children):
            cap = int(caps[i])
            row = occ[i, : cap + 1]
            child_values = tables[child_id].values
            child_eff = np.maximum(child_values[: cap + 1], row)
            child_eff[row >= _FEASIBLE_LIMIT] = np.inf
            partial, choice = self._combine_fast(partial, child_eff, n, conv)
            choices.append(choice)
        if phases is not None:
            phases[PHASE_COMBINE] = (
                phases.get(PHASE_COMBINE, 0.0) + perf_counter() - t_phase
            )
        table = _VertexTable(values=partial, choices=choices)
        vertex_cache[key] = table
        kept.signatures[node_id] = (state.version, key)
        return table

    def _combine_fast(
        self,
        partial: np.ndarray,
        child_eff: np.ndarray,
        n: int,
        conv: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched (min, max)-convolution — no per-``e`` Python loop.

        Produces exactly what :meth:`_combine` produces.  ``cand[e, s]`` is
        the candidate value of giving the child ``e`` VMs out of sum ``s``;
        the seed's ascending-``e`` scalar loop keeps, per ``s``, the *first*
        ``e`` attaining the minimum (optimize) or the first feasible ``e``
        (TIVC) — which is precisely ``argmin`` / ``argmax(isfinite)`` along
        the ``e`` axis, both of which return the first occurrence.  Only
        ``max``/``min``/compare operations touch the floats, so the values
        are bit-identical to the seed's.  ``child_eff`` may be shorter than
        ``n + 1``; missing entries are infeasible.
        """
        s_index, idx_full, scratch = conv
        cap = child_eff.size - 1
        scratch[: n + 1] = partial
        cand = scratch[idx_full[: cap + 1]]
        np.maximum(child_eff[:, None], cand, out=cand)
        if self._optimize:
            choice = np.argmin(cand, axis=0)
        else:
            choice = np.argmax(np.isfinite(cand), axis=0)
        new_values = cand[choice, s_index]
        choice[np.isinf(new_values)] = -1
        return new_values, choice

    # ------------------------------------------------------------------
    # Backtracking (the Alloc() procedure of Algorithm 1)
    # ------------------------------------------------------------------

    def _backtrack(
        self,
        tree,
        tables: Dict[int, _VertexTable],
        node_id: int,
        count: int,
        machine_counts: Dict[int, int],
    ) -> None:
        if count == 0:
            return
        node = tree.node(node_id)
        if node.is_machine:
            machine_counts[node_id] = count
            return
        table = tables[node_id]
        remaining = count
        for index in range(len(node.children) - 1, -1, -1):
            child_count = int(table.choices[index][remaining])
            if child_count < 0:
                raise RuntimeError(
                    f"backtracking hit an infeasible entry at node {node_id}"
                )
            self._backtrack(tree, tables, node.children[index], child_count, machine_counts)
            remaining -= child_count
        if remaining != 0:
            raise RuntimeError(f"backtracking left {remaining} VMs unassigned at {node_id}")

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
    """Algorithm 1: lowest-level subtree + min-max occupancy placement.

    ``fast=False`` runs the seed reference implementation (identical
    decisions, no pruning/batching) — used by the equivalence tests and as
    the baseline of ``benchmarks/bench_admission_path.py``.
    """

    name = "svc-dp"

    def __init__(self, fast: bool = True) -> None:
        super().__init__(optimize=True, fast=fast)
        if not fast:
            self.name = "svc-dp-seed"


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

    def __init__(self, fast: bool = True) -> None:
        super().__init__(optimize=False, fast=fast)


class OktopusAllocator(AdaptedTIVCAllocator):
    """The Oktopus virtual-cluster allocator (deterministic requests only)."""

    name = "oktopus"

    def supports(self, request: VirtualClusterRequest) -> bool:
        return isinstance(request, DeterministicVC)
