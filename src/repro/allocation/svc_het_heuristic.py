"""Substring heuristic allocation for heterogeneous SVC (Section V-B).

VMs are sorted in ascending order of the 95th percentile of their demand;
allocable sets are restricted to *contiguous substrings* of the sorted
sequence ``S_N`` (a first-fit-inspired structure: a sequential greedy pass
always assigns disjoint substrings to sibling subtrees).  Each subtree's
allocable set therefore has ``O(N^2)`` members instead of ``O(2^N)``, giving
overall complexity ``O(|V| * Delta * N^4)`` while keeping the min-max
occupancy optimization of Algorithm 1: ``Opt(T_v[i], <a,b>)`` is minimized
over all split points ``k`` with ``<a,k-1>`` allocable in ``T_v[i-1]`` and
``<k,b>`` allocable in the i-th child.

Segments are half-open ``[s, e)`` with ``0 <= s <= e <= N`` over the sorted
order; ``[s, s)`` is the empty segment.  Tables are dense ``(N+1) x (N+1)``
float arrays with ``inf`` marking "not allocable"; entries below the
diagonal are invalid and stay ``inf`` throughout.

Two semantic rules of ``_child_effective`` (both the paper's objective and
regression-tested):

* an **empty segment costs exactly zero** — placing nothing in a child puts
  no demand on the child's uplink, so the uplink's *existing* occupancy must
  not be charged to (or reject) the skip;
* a **zero-capacity uplink admits nothing** — occupancy is guarded to
  ``inf`` instead of the NaN a raw division would produce (NaN compares
  false everywhere and would silently survive both the feasibility mask and
  the min-update of the combine step).

Two implementations of the tree DP coexist, mirroring Algorithm 1's layout
in ``svc_homogeneous.py``:

* the **reference** path (``fast=False``, name ``svc-het-seed``) — the
  straight-line implementation, kept as the baseline the fast path is proven
  against decision for decision;
* the **fast** path (``fast=True``, the default) — numerically identical,
  but built on the observation that the segment combine
  ``(A ⊗ B)[s, e] = min over k of max(A[s, k], B[k, e])`` is an exactly
  associative (min, max)-matrix product over IEEE floats (``min``/``max``
  select an operand, they never round), so vertex *values* may be computed
  in any grouping.  Concretely it (a) reads the ``O(N^2)`` Lemma-1
  segment-demand table once, in band form, (b) stores every fast-path table
  in **band form** ``band[d, s] = table[s, s + d]`` — a
  ``(cap+1) x (N+1)`` rectangle holding exactly the potentially-finite
  entries, segment start innermost so every kernel slice is a long
  contiguous run (the invariant ``band[d, s] = inf`` whenever
  ``s + d > N`` keeps out-of-range reads harmless), so each kernel does
  work proportional to the feasible band instead of the full ``(N+1)^2``
  matrix, (c) shares one read-only machine table per free-slot count,
  (d) builds the effective child bands of a whole tree level in one
  stacked occupancy pass, one slot per distinct (child table, uplink
  state), and derives from each its **tight cap** — the longest segment
  the child can still absorb once uplink occupancy is masked — which
  bounds every later band, (e) scans a level with **one row-0 fold** over
  its signature-unique vertices stacked into a ``(V, W, N+1)`` tensor (all
  a host check needs is ``Opt[0, N]``; a vertex whose children's tight
  caps sum below ``N`` is ``inf`` without a scan), materializing full
  tables only for levels the search ascends past, (f) materializes those
  tables with a **balanced pair-combine**, each round one kernel call per
  operand shape over the level's distinct pairs (runs of identical
  children — pristine racks — collapse to ``O(log)`` unique combines), and
  (g) recovers per-child split choices from **one DP row**: a backtrack
  enters a vertex with a fixed ``start`` and row ``start`` of the
  sequential DP is closed over itself, so the prefix rows plus one banded
  first-``argmin`` per child are the reference's first-minimizing splits
  — no choice table is ever built.

Where bands of unequal caps share a stack, the narrower reads as ``inf``
past its cap, which the band invariant already makes inert.  Every value
the fast path compares or returns is produced by the same max/min/compare
operations on the same floats as the reference path (bands only ever
exclude provably-``inf`` candidates), so the produced host / placement /
``max_occupancy`` decisions are bit-for-bit the same — not merely
statistically equivalent
(``tests/allocation/test_het_fast_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.abstractions.requests import HeterogeneousSVC, VirtualClusterRequest
from repro.allocation.base import Allocation, Allocator
from repro.allocation.demand_model import SegmentDemandTable, subset_split_demand
from repro.network.link_state import LinkState, NetworkState
from repro.obs.instruments import (
    PHASE_ALLOC,
    PHASE_BATCH_OCCUPANCY,
    PHASE_COMBINE,
    PHASE_TABLE_BUILD,
    REASON_NO_FEASIBLE_SUBTREE,
    REASON_NO_FREE_SLOTS,
    admission_instruments,
)
from repro.stochastic.normal import Normal

_FEASIBLE_LIMIT = 1.0


@dataclass
class _SegmentTable:
    """DP state per vertex: Opt per segment + per-child split points."""

    values: np.ndarray  # (N+1, N+1); values[s, e] = Opt(T_v, [s, e))
    choices: List[np.ndarray]  # choices[i][s, e] = split point k for child i


@dataclass
class _ValueTable:
    """Value-only DP state per vertex (fast path), in band form.

    ``values[d, s]`` is the table entry for segment ``[s, s + d)`` — the
    whole ``(cap+1) x (N+1)`` rectangle of *potentially* finite entries,
    where ``cap`` is the band width: every segment longer than ``cap`` is
    provably ``inf`` (no longer segment is allocable in the subtree), as is
    every entry with ``s + d > N``.  Band form keeps the per-combine work
    proportional to the feasible entries instead of the full ``(N+1)^2``
    matrix.  Split choices are not stored — the backtrack recovers them from
    one DP row per vertex on the placement path.
    """

    values: np.ndarray
    cap: int


def _band_of(matrix: np.ndarray, n: int) -> np.ndarray:
    """Band form ``band[d, s] = matrix[s, s + d]`` of a full segment matrix.

    Read through a strided view of a padded flat copy.  Entries with
    ``s + d > n`` hold padding or a neighboring row — they are never
    *used*: every consumer masks them with a table band that is inf there
    (the band invariant), so only in-bounds reads matter.
    """
    flat = np.full((n + 1) * (n + 2), np.inf)
    flat[: (n + 1) * (n + 1)] = matrix.ravel()
    stride = flat.itemsize
    sheared = np.ndarray((n + 1, n + 1), flat.dtype, flat, 0, (stride, (n + 2) * stride))
    band = sheared.copy()  # contiguous: it is broadcast against every arena slot
    band.flags.writeable = False
    return band


def _fold_rows(rows: np.ndarray, bands: np.ndarray) -> np.ndarray:
    """One child folded into a stack of DP rows.

    ``rows[v, k]`` is ``partial[start, k]`` of vertex ``v`` before the child
    and ``bands[v]`` the child's effective band; the result is the row after
    it, ``new[v, e] = min over k of max(rows[v, k], eff[k, e])`` — a row of
    the sequential DP is closed over the same row of its partials, so a
    host check (``start = 0``) and a split recovery (the backtrack's
    ``start``) cost ``O(children * N * cap)`` per vertex, not a table.  In
    band coordinates the fold is an anti-diagonal min, ``new[e] = min over
    length l of max(row[e - l], band[l, e - l])``: one sheared view over a
    padded max tensor.  Every skipped candidate is outside a feasible
    band and hence provably ``inf``; same floats otherwise.
    """
    count, width, height = bands.shape
    padded = np.full((count, width, height + width - 1), np.inf)
    np.maximum(rows[:, None, :], bands, out=padded[:, :, width - 1 :])
    plane, row, col = padded.strides
    # shifted[v, l, e] = folded[v, l, e - l]  (inf padding where e < l).
    shifted = np.ndarray(
        (count, width, height), padded.dtype, padded,
        (width - 1) * col, (plane, row - col, col),
    )
    return shifted.min(axis=1)


def _combine_bands(left: np.ndarray, right: np.ndarray, n: int) -> np.ndarray:
    """Stacked values-only band combine of ``left[p] ⊗ right[p]`` per pair.

    In band coordinates the segment combine reads
    ``new[d, s] = min over j of max(a[j, s], b[d - j, s + j])`` with ``j``
    the length placed in the left operand.  The *narrower* operand stack is
    enumerated: each iteration fixes one split length and folds a
    rectangular slice of the other with an in-place min, ``O(cap_a * cap_b
    * N)`` contiguous ops per pair and one numpy dispatch per split length
    for the whole stack (walking ``b``'s split lengths reads
    ``b[db, s + d - db]`` — a function of ``s + d`` — through a strided view
    of ``b`` padded with ``inf`` columns).  Every skipped ``j`` is outside a
    feasible band and hence provably ``inf``; min/max are exactly
    associative and commutative over floats, so any fold order gives the
    reference's values bit for bit.  The output keeps the band invariant:
    entries with ``s + d > n`` only ever see ``inf`` candidates (both
    operands hold the invariant) and stay ``inf``.
    """
    count, width_a, height = left.shape
    width_b = right.shape[1]
    width = min(n, width_a + width_b - 2) + 1
    out = np.full((count, width, height), np.inf)
    if width_a <= width_b:
        for da in range(width_a):
            hi = min(da + width_b, width)
            # new[da + t, s] <- max(a[da, s], b[t, s + da])
            target = out[:, da:hi, : height - da]
            np.minimum(
                target,
                np.maximum(left[:, da, None, : height - da], right[:, : hi - da, da:]),
                out=target,
            )
    else:
        padded = np.full((count, width_b, height + width_a - 1), np.inf)
        padded[:, :, :height] = right
        plane, row, col = padded.strides
        for db in range(width_b):
            hi = min(db + width_a, width)
            # shifted[p, t, s] = b[db, s + t]
            shifted = np.ndarray(
                (count, hi - db, height), padded.dtype, padded,
                db * row, (plane, col, col),
            )
            target = out[:, db:hi]
            np.minimum(target, np.maximum(left[:, : hi - db], shifted), out=target)
    return out


@dataclass
class _LevelBands:
    """One tree level's effective child bands, stacked, and what is built on them.

    A vertex DP is a pure function of its children's tables and uplink
    states, so each distinct (child table, uplink state) of the level owns
    one ``arena`` slot and a vertex is its tuple of slots — its
    **signature**: vertices with equal signatures (the common case: most
    racks of a datacenter look alike) share one ``row0`` value and one
    table.  ``bands`` and ``caps`` are indexed by *name*: the arena slots
    first, then every pair combine of the balanced materialization, named
    by ``names[left, right]`` so a pair met twice is combined once.
    """

    arena: np.ndarray  # (slots, W, N+1); arena[slot] = one effective band
    caps: List[int]  # per name: the tight cap (a pair's: the sum, cut at N)
    slots: Dict[int, Tuple[int, ...]]  # vertex -> one slot per child, in order
    bands: List[np.ndarray] = field(default_factory=list)  # filled when materializing
    names: Dict[Tuple[int, int], int] = field(default_factory=dict)
    row0: Dict[Tuple[int, ...], float] = field(default_factory=dict)
    tables: Dict[Tuple[int, ...], _ValueTable] = field(default_factory=dict)


@dataclass
class _FastCaches:
    """Per-``allocate`` state of the fast path (no cross-request state).

    ``machine`` shares one read-only table per free-slot count; ``tables``
    holds the full band table of every node the search has ascended past
    (machines, then each materialized level); ``levels`` maps a scanned
    vertex to its level's :class:`_LevelBands`, which is all the backtrack
    needs to recover splits.  The lookup/build counters feed the obs
    cache-hit counters once per request: a *lookup* is one machine, vertex
    or child that needed a table, value or effective band, a *build* one
    distinct result; every other lookup was served by a shared one
    (``hits = lookups - builds``).
    """

    n: int
    # The request's segment demand moments in band form (see _band_of).
    mean_band: np.ndarray
    var_band: np.ndarray
    machine: Dict[int, _ValueTable] = field(default_factory=dict)
    tables: Dict[int, _ValueTable] = field(default_factory=dict)
    levels: Dict[int, _LevelBands] = field(default_factory=dict)
    machine_lookups: int = 0
    vertex_lookups: int = 0
    vertex_builds: int = 0
    eff_lookups: int = 0
    eff_builds: int = 0


def _add_phase(phases: Optional[Dict[str, float]], phase: str, since: float) -> None:
    if phases is not None:
        phases[phase] = phases.get(phase, 0.0) + perf_counter() - since


def _empty_segments(n: int) -> np.ndarray:
    values = np.full((n + 1, n + 1), np.inf)
    np.fill_diagonal(values, 0.0)
    return values


class SVCHeterogeneousAllocator(Allocator):
    """The paper's polynomial heterogeneous allocator (substring heuristic).

    ``fast=False`` runs the straight-line reference implementation (identical
    decisions, no sharing/banding) — used by the equivalence tests and as the
    ``svc-het-seed`` baseline of ``benchmarks/bench_admission_path.py``.
    """

    name = "svc-het"

    def __init__(self, percentile: float = 95.0, fast: bool = True) -> None:
        self._percentile = percentile
        self._fast = fast
        if not fast:
            self.name = "svc-het-seed"

    def supports(self, request: VirtualClusterRequest) -> bool:
        return isinstance(request, HeterogeneousSVC)

    def resize_link_demands(
        self,
        state: NetworkState,
        new_request: VirtualClusterRequest,
        host_node: int,
        machine_counts,
        machine_vms=None,
    ) -> Dict[int, Normal]:
        """Occupancy-delta query: the resized footprint on a fixed placement.

        Heterogeneous VMs are *not* interchangeable, so the per-link demand
        is the exact Lemma-1 subset demand (Section V-A ground truth) of the
        VM identities each link separates from the rest — computed from the
        placement's ``machine_vms`` accumulated up to the host node.
        """
        if not isinstance(new_request, HeterogeneousSVC):
            raise TypeError(f"{self.name} cannot resize a {type(new_request).__name__}")
        if machine_vms is None:
            raise ValueError("heterogeneous resize needs per-machine VM identities")
        tree = state.tree
        below: Dict[int, List[int]] = {}
        for machine_id, vms in machine_vms.items():
            node_id = machine_id
            while node_id != host_node:
                below.setdefault(node_id, []).extend(vms)
                parent = tree.node(node_id).parent
                if parent is None:
                    raise ValueError(
                        f"machine {machine_id} is not under host node {host_node}"
                    )
                node_id = parent
        n = new_request.n_vms
        demands: Dict[int, Normal] = {}
        for node_id, subset in below.items():
            if 0 < len(subset) < n:
                demands[node_id] = subset_split_demand(new_request, subset)
        return demands

    def allocate(
        self, state: NetworkState, request: VirtualClusterRequest, request_id: int
    ) -> Optional[Allocation]:
        if not isinstance(request, HeterogeneousSVC):
            raise TypeError(f"{self.name} only places heterogeneous SVC requests")
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
        segments = SegmentDemandTable(request, percentile=self._percentile)

        tree = state.tree
        tables: Dict[int, _SegmentTable] = {}
        host: Optional[int] = None
        host_value = np.inf
        caches: Optional[_FastCaches] = None
        if self._fast:
            caches = _FastCaches(
                n, _band_of(segments.demand_mean, n), _band_of(segments.demand_var, n)
            )
            host, host_value = self._search_fast(state, caches, phases)
            obs.cache("het_machine", caches.machine_lookups,
                      caches.machine_lookups - len(caches.machine))
            obs.cache("het_vertex", caches.vertex_lookups,
                      caches.vertex_lookups - caches.vertex_builds)
            obs.cache("het_eff", caches.eff_lookups,
                      caches.eff_lookups - caches.eff_builds)
        else:
            for _level, node_ids in tree.bottom_up_levels():
                for node_id in node_ids:
                    table = self._build_vertex(state, node_id, n, segments, tables)
                    tables[node_id] = table
                    value = float(table.values[0, n])
                    if np.isfinite(value) and value < host_value:
                        host, host_value = node_id, value
                if host is not None:
                    break
        if host is None:
            obs.done(
                self.name, perf_counter() - t_start, admitted=False,
                reason=REASON_NO_FEASIBLE_SUBTREE, trace=trace, n_vms=n,
            )
            return None

        t_alloc = perf_counter() if phases is not None else 0.0
        node_segments: Dict[int, Tuple[int, int]] = {}
        if caches is not None:
            self._backtrack_fast(tree, caches, host, 0, n, node_segments, phases)
        else:
            self._backtrack(tree, tables, host, 0, n, node_segments)

        machine_vms: Dict[int, Tuple[int, ...]] = {}
        link_demands: Dict[int, Normal] = {}
        for node_id, (start, end) in node_segments.items():
            if start == end:
                continue
            if tree.node(node_id).is_machine:
                machine_vms[node_id] = segments.segment_vms(start, end)
            if node_id != host and 0 < end - start < n:
                link_demands[node_id] = segments.segment_demand(start, end)
        machine_counts = {machine: len(vms) for machine, vms in machine_vms.items()}
        allocation = Allocation(
            request=request,
            request_id=request_id,
            host_node=host,
            machine_counts=machine_counts,
            machine_vms=machine_vms,
            link_demands=link_demands,
            max_occupancy=host_value,
        )
        if phases is not None:
            phases[PHASE_ALLOC] = perf_counter() - t_alloc
        obs.done(self.name, perf_counter() - t_start, admitted=True, trace=trace, n_vms=n)
        return allocation

    # ------------------------------------------------------------------
    # DP construction (reference path)
    # ------------------------------------------------------------------

    def _build_vertex(
        self,
        state: NetworkState,
        node_id: int,
        n: int,
        segments: SegmentDemandTable,
        tables: Dict[int, _SegmentTable],
    ) -> _SegmentTable:
        tree = state.tree
        node = tree.node(node_id)
        if node.is_machine:
            # Any substring short enough for the machine's free slots fits;
            # co-located VMs use no links, so the inner objective is 0.
            values = np.full((n + 1, n + 1), np.inf)
            limit = state.free_slots(node_id)
            starts, ends = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
            length = ends - starts
            values[(length >= 0) & (length <= limit)] = 0.0
            return _SegmentTable(values=values, choices=[])

        partial = _empty_segments(n)
        choices: List[np.ndarray] = []
        for child_id in node.children:
            child_eff = self._child_effective(state, child_id, n, segments, tables)
            new_values = np.full((n + 1, n + 1), np.inf)
            choice = np.full((n + 1, n + 1), -1, dtype=np.int64)
            for k in range(n + 1):
                # Segment [s, e) = [s, k) placed so far + [k, e) in this child.
                candidate = np.maximum(partial[:, k : k + 1], child_eff[k : k + 1, :])
                better = candidate < new_values
                new_values[better] = candidate[better]
                choice[better] = k
            partial = new_values
            choices.append(choice)
        return _SegmentTable(values=partial, choices=choices)

    def _child_effective(
        self,
        state: NetworkState,
        child_id: int,
        n: int,
        segments: SegmentDemandTable,
        tables: Dict,
    ) -> np.ndarray:
        """max(Opt(child, seg), O_uplink(seg)), inf where the uplink rejects.

        Shared verbatim by the reference and fast paths (the fast path only
        adds caching around it), so the effective matrices are bit-identical
        by construction.  A zero-capacity uplink admits nothing into the
        subtree; empty segments place nothing in it, cost exactly 0, and are
        always feasible regardless of the uplink's existing occupancy.
        """
        link_state: LinkState = state.links[child_id]
        if link_state.capacity > 0.0:
            variance = link_state.var_total + segments.demand_var
            effective_demand = (
                link_state.mean_total
                + segments.demand_mean
                + state.risk_c * np.sqrt(np.maximum(variance, 0.0))
            )
            occupancy = (
                link_state.deterministic_total + effective_demand
            ) / link_state.capacity
            effective = np.maximum(tables[child_id].values, occupancy)
            effective[occupancy >= _FEASIBLE_LIMIT] = np.inf
        else:
            # Guarded: a raw division would yield inf (or NaN for an all-zero
            # numerator), and NaN slips through every comparison mask.
            effective = np.full((n + 1, n + 1), np.inf)
        np.fill_diagonal(effective, 0.0)
        return effective


    # ------------------------------------------------------------------
    # Fast DP construction (numerically identical to the reference above)
    # ------------------------------------------------------------------

    def _search_fast(
        self,
        state: NetworkState,
        caches: _FastCaches,
        phases: Optional[Dict[str, float]],
    ) -> Tuple[Optional[int], float]:
        """Level-by-level host search: the lowest level with a feasible
        vertex, and on it the first vertex of minimum ``Opt[0, N]``."""
        n = caches.n
        host: Optional[int] = None
        host_value = np.inf
        scanned: Optional[_LevelBands] = None  # the level below, tables not built yet
        for level, node_ids in state.tree.bottom_up_levels():
            since = perf_counter()
            if level == 0:
                # A machine's table is the shared 0/inf band of its free-slot
                # count, and it hosts the whole request iff its free slots
                # cover N — at Opt value 0.0, the first such machine winning.
                free_slots = state.free_slots
                for node_id in node_ids:
                    free = free_slots(node_id)
                    caches.tables[node_id] = self._machine_table(
                        min(free, n), n, caches.machine
                    )
                    if host is None and free >= n:
                        host, host_value = node_id, 0.0
                caches.machine_lookups = len(node_ids)
                _add_phase(phases, PHASE_TABLE_BUILD, since)
            else:
                if scanned is not None:
                    # The search ascends past the level below: its vertices'
                    # full tables are this level's children.
                    self._materialize(scanned, caches)
                    _add_phase(phases, PHASE_COMBINE, since)
                    since = perf_counter()
                scanned = self._level_bands(state, node_ids, caches)
                _add_phase(phases, PHASE_BATCH_OCCUPANCY, since)
                since = perf_counter()
                self._scan_row0(scanned, caches)
                for node_id in node_ids:
                    value = scanned.row0[scanned.slots[node_id]]
                    if value < host_value:
                        host, host_value = node_id, value
                _add_phase(phases, PHASE_TABLE_BUILD, since)
            if host is not None:
                break
        return host, host_value

    @staticmethod
    def _machine_table(
        limit: int, n: int, machine_cache: Dict[int, _ValueTable]
    ) -> _ValueTable:
        """Shared per-free-slot-count machine table, in band form.

        Machines with the same number of free slots have identical DP tables
        (any segment no longer than ``limit`` fits at inner objective 0), so
        one read-only ``(limit+1) x (n+1)`` band serves all of them for the
        current request.
        """
        table = machine_cache.get(limit)
        if table is None:
            values = np.zeros((limit + 1, n + 1))
            over = np.arange(limit + 1)[:, None] + np.arange(n + 1)[None, :] > n
            values[over] = np.inf
            values.flags.writeable = False
            table = _ValueTable(values=values, cap=limit)
            machine_cache[limit] = table
        return table


    def _level_bands(
        self, state: NetworkState, node_ids: Sequence[int], caches: _FastCaches
    ) -> _LevelBands:
        """Effective child bands of every vertex of one level, in one pass.

        Table identity is safe inside a slot key: machine tables are shared
        per free-slot count and vertex tables per signature, so equal ids
        imply bit-identical tables.

        Broadcasting the per-slot uplink scalars over the band views of the
        request's segment demand moments applies the exact per-element float
        operations of :meth:`_child_effective` in the exact same order, so
        every in-band entry is bit-identical to the scalar full-matrix build
        — in ``O(1)`` numpy dispatches per level.  Entries past a child's
        ``s + d > n`` boundary read the demand bands' padding but are forced
        to ``inf`` by the child table band (the band invariant), never by a
        float that could differ.  A zero-capacity uplink admits only the
        zero-cost empty segment (a raw division would yield inf, or NaN for
        an all-zero numerator, and NaN slips through every comparison mask).

        The tight cap — the longest segment whose effective entry is still
        finite — is read off the arena in the same pass; bands cut at it
        exclude only provably-``inf`` candidates.
        """
        n = caches.n
        links = state.links
        children = state.tree.children
        tables = caches.tables
        slot_of: Dict[Tuple, int] = {}
        distinct: Dict[int, _ValueTable] = {}  # id(child table) -> table, in stack order
        slots: Dict[int, Tuple[int, ...]] = {}
        for node_id in node_ids:
            row = []
            for child_id in children(node_id):
                link_state = links[child_id]
                table = tables[child_id]
                key = (
                    id(table),
                    link_state.deterministic_total,
                    link_state.mean_total,
                    link_state.var_total,
                    link_state.capacity,
                )
                slot = slot_of.get(key)
                if slot is None:
                    slot = slot_of[key] = len(slot_of)
                    distinct.setdefault(key[0], table)
                row.append(slot)
            slots[node_id] = tuple(row)
            caches.eff_lookups += len(row)
        caches.eff_builds += len(slot_of)
        if not slot_of:  # a level of childless switches
            arena = np.empty((0, 1, n + 1))
            level = _LevelBands(arena, [], slots)
        else:
            width = max(len(table.values) for table in distinct.values())
            stack = np.full((len(distinct), width, n + 1), np.inf)
            for index, table in enumerate(distinct.values()):
                stack[index, : len(table.values)] = table.values
            row_of = {table_id: index for index, table_id in enumerate(distinct)}
            scalars = np.array([key[1:] for key in slot_of]).T[:, :, None, None]
            det, mean, var, capacity = scalars
            dead = capacity <= 0.0
            # The reference's expression, operation for operation (float
            # addition commutes exactly), accumulated in one buffer.
            occupancy = var + caches.var_band[:width]
            np.maximum(occupancy, 0.0, out=occupancy)
            np.sqrt(occupancy, out=occupancy)
            occupancy *= state.risk_c
            occupancy += mean + caches.mean_band[:width]
            occupancy += det
            occupancy /= np.where(dead, 1.0, capacity)
            arena = np.maximum(stack[[row_of[key[0]] for key in slot_of]], occupancy)
            arena[occupancy >= _FEASIBLE_LIMIT] = np.inf
            arena[dead[:, 0, 0]] = np.inf
            arena[:, 0] = 0.0
            arena.flags.writeable = False
            # Length 0 (empty segments) is always finite (0.0), so the
            # finite-length set is never empty and the tight cap well defined.
            finite = np.isfinite(arena).any(axis=2)
            caps = width - 1 - np.argmax(finite[:, ::-1], axis=1)
            level = _LevelBands(arena, caps.tolist(), slots)
        caches.levels.update(dict.fromkeys(node_ids, level))
        return level

    @staticmethod
    def _scan_row0(level: _LevelBands, caches: _FastCaches) -> None:
        """``Opt[0, N]`` of every signature of the level: one stacked fold.

        Row 0 of each signature-unique vertex (see :func:`_fold_rows`) is
        folded child position by child position, each position one kernel
        call over the ``(V, W, N+1)`` gather of that position's bands.  A
        vertex whose children's tight caps sum below ``N`` (in particular
        one with fewer than ``N`` free slots under it) cannot hold the
        request: its ``Opt[0, N]`` is ``inf``, the DP's verdict, unscanned.
        """
        n = caches.n
        caps = level.caps
        scan: List[Tuple[int, ...]] = []
        for signature in level.slots.values():
            if signature not in level.row0:
                level.row0[signature] = np.inf
                if sum(caps[slot] for slot in signature) >= n:
                    scan.append(signature)
        caches.vertex_lookups += len(level.slots)
        caches.vertex_builds += len(level.row0)
        if not scan:
            return
        # Longest signature first, so the vertices that still have a child
        # at a position are a prefix of the stack.
        scan.sort(key=len, reverse=True)
        grid = np.zeros((len(scan), len(scan[0])), dtype=np.intp)
        for index, signature in enumerate(scan):
            grid[index, : len(signature)] = signature
        arena_caps = np.array(caps)
        rows = np.full((len(scan), n + 1), np.inf)
        rows[:, 0] = 0.0
        for position in range(grid.shape[1]):
            live = sum(len(signature) > position for signature in scan)
            chosen = grid[:live, position]
            width = int(arena_caps[chosen].max()) + 1
            rows[:live] = _fold_rows(rows[:live], level.arena[chosen, :width])
        for signature, value in zip(scan, rows[:, n].tolist()):
            level.row0[signature] = value

    @staticmethod
    def _materialize(level: _LevelBands, caches: _FastCaches) -> None:
        """Full value tables of a level via a stacked balanced combine.

        ``(min, max)`` over floats is exactly associative (both select an
        operand, nothing is rounded), so adjacent children can be combined
        pairwise in a balanced tree: the same candidate partitions are
        enumerated, grouped differently, and the resulting values are
        bit-identical to the sequential reference.  Balancing keeps *both*
        operands' bands small (sequential growth makes the left band reach
        ``N`` after a handful of children), each round's distinct pairs —
        across all of the level's signatures — are one
        :func:`_combine_bands` call per operand shape (equal caps stack
        without padding), and a pair already named is never recombined:
        runs of identical children, e.g. the machines of a pristine rack,
        collapse to ``O(log children)`` unique combines.
        """
        n = caches.n
        caps, bands, names = level.caps, level.bands, level.names
        bands.extend(level.arena)
        signatures = list(dict.fromkeys(level.slots.values()))
        items = [list(signature) for signature in signatures]
        while any(len(seq) > 1 for seq in items):
            pairs = [
                pair
                for pair in dict.fromkeys(
                    (seq[i], seq[i + 1]) for seq in items for i in range(0, len(seq) - 1, 2)
                )
                if pair not in names
            ]
            shapes: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
            for pair in pairs:
                shapes.setdefault((caps[pair[0]], caps[pair[1]]), []).append(pair)
            for (cap_a, cap_b), members in shapes.items():
                combined = _combine_bands(
                    np.stack([bands[a][: cap_a + 1] for a, _ in members]),
                    np.stack([bands[b][: cap_b + 1] for _, b in members]),
                    n,
                )
                combined.flags.writeable = False
                for pair, band in zip(members, combined):
                    names[pair] = len(bands)
                    bands.append(band)
                    caps.append(min(n, cap_a + cap_b))
            items = [
                [names[seq[i], seq[i + 1]] for i in range(0, len(seq) - 1, 2)]
                + seq[len(seq) - len(seq) % 2 :]
                for seq in items
            ]
        for signature, seq in zip(signatures, items):
            if seq:
                cap = caps[seq[0]]
                values = bands[seq[0]][: cap + 1]
            else:
                cap = 0
                values = np.zeros((1, n + 1))  # only empty segments, at cost 0
            level.tables[signature] = _ValueTable(values=values, cap=cap)
        for node_id, signature in level.slots.items():
            caches.tables[node_id] = level.tables[signature]
        caches.vertex_lookups += len(level.slots)
        caches.vertex_builds += len(level.tables)

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------

    def _backtrack(
        self,
        tree,
        tables: Dict[int, _SegmentTable],
        node_id: int,
        start: int,
        end: int,
        node_segments: Dict[int, Tuple[int, int]],
    ) -> None:
        node_segments[node_id] = (start, end)
        if start == end:
            return
        node = tree.node(node_id)
        if node.is_machine:
            return
        table = tables[node_id]
        right = end
        for index in range(len(node.children) - 1, -1, -1):
            split = int(table.choices[index][start, right])
            if split < 0:
                raise RuntimeError(f"backtracking hit an infeasible segment at {node_id}")
            self._backtrack(tree, tables, node.children[index], split, right, node_segments)
            right = split
        if right != start:
            raise RuntimeError(f"backtracking left [{start}, {right}) unassigned at {node_id}")


    def _backtrack_fast(
        self,
        tree,
        caches: _FastCaches,
        node_id: int,
        start: int,
        end: int,
        node_segments: Dict[int, Tuple[int, int]],
        phases: Optional[Dict[str, float]] = None,
    ) -> None:
        """Reference backtrack, its splits recovered from row ``start``.

        The reference reads ``choices[i][start, right]``: the first ``k``
        minimizing ``max(partial_i[start, k], eff_i[k, right])``.  Row
        ``start`` of every prefix partial is one :func:`_fold_rows` chain,
        and every ``k`` outside ``[right - cap_i, right]`` is provably
        ``inf`` — never the minimizer of a feasible segment — so one banded
        first-``argmin`` per child returns exactly that split.
        """
        node_segments[node_id] = (start, end)
        if start == end:
            return
        node = tree.node(node_id)
        if node.is_machine:
            return
        since = perf_counter()
        level = caches.levels[node_id]
        slots = level.slots[node_id]
        row = np.full((1, caches.n + 1), np.inf)
        row[0, start] = 0.0
        prefixes = [row]
        for slot in slots[:-1]:
            band = level.arena[slot, : level.caps[slot] + 1]
            prefixes.append(_fold_rows(prefixes[-1], band[None]))
        _add_phase(phases, PHASE_COMBINE, since)
        right = end
        for index in range(len(slots) - 1, -1, -1):
            slot = slots[index]
            lo = max(start, right - level.caps[slot])
            ks = np.arange(lo, right + 1)
            candidates = np.maximum(
                prefixes[index][0, lo : right + 1], level.arena[slot, right - ks, ks]
            )
            offset = int(np.argmin(candidates))
            if candidates[offset] == np.inf:
                raise RuntimeError(f"backtracking hit an infeasible segment at {node_id}")
            split = lo + offset
            self._backtrack_fast(
                tree, caches, node.children[index], split, right, node_segments, phases
            )
            right = split
        if right != start:
            raise RuntimeError(f"backtracking left [{start}, {right}) unassigned at {node_id}")
