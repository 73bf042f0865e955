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
order; ``[s, s)`` is the empty segment.  A table ``Opt(T_v, [s, e))`` is an
``(N+1) x (N+1)`` float matrix with ``inf`` marking "not allocable" and
everything below the diagonal; only its band of potentially finite entries
is ever stored (below).

Two semantic rules of the effective child tables (:meth:`_effective_bands`;
both the paper's objective and regression-tested):

* an **empty segment costs exactly zero** — placing nothing in a child puts
  no demand on the child's uplink, so the uplink's *existing* occupancy must
  not be charged to (or reject) the skip;
* a **zero-capacity uplink admits nothing** — occupancy is guarded to
  ``inf`` instead of the NaN a raw division would produce (NaN compares
  false everywhere and would silently survive both the feasibility mask and
  the min-update of the combine step).

The recursion runs one tree level at a time, as Algorithm 1's does in
``svc_homogeneous.py``, on the shared kernels of
:mod:`repro.allocation.kernels` (DESIGN.md §6.2).
The segment combine ``(A ⊗ B)[s, e] = min over k of max(A[s, k], B[k, e])``
is an exactly associative (min, max)-matrix product over IEEE floats
(``min`` / ``max`` select an operand, they never round), so vertex
*values* may be computed in any grouping.  Tables are kept in **band
form** ``band[d, s] = table[s, s + d]`` — a ``(cap+1) x (N+1)`` rectangle
of the potentially finite entries, ``inf`` wherever ``s + d > N`` (the
band invariant, which makes out-of-range reads and narrower neighbours in
a stack inert).  Before any level, once no single machine hosts the
request: a lower bound on every switch's value from the machine links
alone, whose ``inf`` is the reject with nothing built
(:meth:`_machine_link_bound`).  Then per tree level, read off the state's
level snapshot:
effective child bands and their tight caps in one stacked pass
(:meth:`_level_bands`), the host check as one row-0 fold per child
position (:meth:`_scan_row0`), full tables — by a balanced pair-combine —
only for levels the search ascends past (:meth:`_materialize`), and the
splits recovered from one DP row per vertex on the placement path
(:meth:`_backtrack_fast`): no choice table is ever built, and a machine's
table (a step at its free slots) never exists outside a level's stack.

This is the only implementation in ``src/``.  The recursion as first written
— a dense ``(N+1) x (N+1)`` table and choice table per vertex and child — is
the tests' oracle (``tests/reference/seed_het_heuristic.py``): every value
the level walk compares or returns is produced by the same max/min/compare
operations on the same floats (bands only ever exclude provably-``inf``
candidates), so the produced host / placement / ``max_occupancy`` decisions
are bit-for-bit the same (``tests/allocation/test_het_fast_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.abstractions.requests import HeterogeneousSVC, VirtualClusterRequest
from repro.allocation.base import Allocation, Allocator, add_phase
from repro.allocation.demand_model import SegmentDemandTable, subset_split_demand
from repro.allocation.kernels import (
    FREE,
    _band_of,
    _chain_pieces,
    _combine_bands,
    _distinct_rows,
    _fold_level,
    _fold_rows,
    _LevelBlock,
    _LevelSnapshot,
    level_snapshot,
)
from repro.network.link_state import NetworkState
from repro.obs.instruments import (
    PHASE_ALLOC,
    PHASE_BATCH_OCCUPANCY,
    PHASE_COMBINE,
    PHASE_PRUNE,
    PHASE_TABLE_BUILD,
    REASON_NO_FEASIBLE_MACHINE_LINK,
    REASON_NO_FEASIBLE_SUBTREE,
    REASON_NO_FREE_SLOTS,
    admission_instruments,
)
from repro.stochastic.normal import Normal

_FEASIBLE_LIMIT = 1.0


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
    tables: Dict[Tuple[int, ...], np.ndarray] = field(default_factory=dict)


@dataclass
class _FastCaches:
    """Per-``allocate`` state of the level walk (no cross-request state).

    ``tables`` holds the full band table of every switch the search has
    ascended past; ``levels`` maps a scanned vertex to its level's
    :class:`_LevelBands`, which is all the backtrack needs to recover
    splits.  The lookup/build counters feed the obs cache-hit counters once
    per request: a *lookup* is one machine, vertex or child that needed a
    table, value or effective band, a *build* one distinct result; every
    other lookup was served by a shared one (``hits = lookups - builds``);
    the machine-link bound's effective bands count like a level's.
    """

    n: int
    # The request's segment demand moments in band form (see _band_of).
    mean_band: np.ndarray
    var_band: np.ndarray
    tables: Dict[int, np.ndarray] = field(default_factory=dict)
    levels: Dict[int, _LevelBands] = field(default_factory=dict)
    machine_lookups: int = 0
    machine_builds: int = 0
    vertex_lookups: int = 0
    vertex_builds: int = 0
    eff_lookups: int = 0
    eff_builds: int = 0
    #: Why the search found no host, when it found none.
    reason: str = REASON_NO_FEASIBLE_SUBTREE


class SVCHeterogeneousAllocator(Allocator):
    """The paper's polynomial heterogeneous allocator (substring heuristic)."""

    name = "svc-het"

    def __init__(self, percentile: float = 95.0) -> None:
        self._percentile = percentile

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
        caches = _FastCaches(
            n, _band_of(segments.demand_mean, n), _band_of(segments.demand_var, n)
        )
        host, host_value = self._search_fast(state, caches, phases)
        obs.cache("het_machine", caches.machine_lookups,
                  caches.machine_lookups - caches.machine_builds)
        obs.cache("het_vertex", caches.vertex_lookups,
                  caches.vertex_lookups - caches.vertex_builds)
        obs.cache("het_eff", caches.eff_lookups,
                  caches.eff_lookups - caches.eff_builds)
        if host is None:
            obs.done(
                self.name, perf_counter() - t_start, admitted=False,
                reason=caches.reason, trace=trace, n_vms=n,
            )
            return None

        # One phase for the whole backtrack, prefix folds included: the
        # phases of a trace are disjoint, so they sum to at most its duration.
        t_alloc = perf_counter()
        node_segments: Dict[int, Tuple[int, int]] = {}
        self._backtrack_fast(tree, caches, host, 0, n, node_segments)

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
        add_phase(phases, PHASE_ALLOC, t_alloc)
        obs.done(self.name, perf_counter() - t_start, admitted=True, trace=trace, n_vms=n)
        return allocation

    # ------------------------------------------------------------------
    # The level walk
    # ------------------------------------------------------------------

    def _search_fast(
        self,
        state: NetworkState,
        caches: _FastCaches,
        phases: Optional[Dict[str, float]],
    ) -> Tuple[Optional[int], float]:
        """Level-by-level host search: the lowest level with a feasible
        vertex, and on it the first vertex of minimum ``Opt[0, N]`` — or no
        host, proved at the machine links where it can be (``caches.reason``)."""
        since = perf_counter()
        snapshot = level_snapshot(state)
        host, caches.machine_lookups, caches.machine_builds = snapshot.machine_level(caches.n)
        host_value = np.inf if host is None else 0.0
        add_phase(phases, PHASE_TABLE_BUILD, since)
        if host is None and snapshot.levels:
            since = perf_counter()
            bound = self._machine_link_bound(state, snapshot, caches)
            add_phase(phases, PHASE_PRUNE, since)
            if bound == np.inf:
                # Every switch's Opt[0, N] is answered, by the one chain.
                caches.vertex_lookups += sum(len(block.node_ids) for block in snapshot.levels)
                caches.vertex_builds += 1
                caches.reason = REASON_NO_FEASIBLE_MACHINE_LINK
                return None, np.inf
        scanned: Optional[_LevelBands] = None  # the level below, tables not built yet
        for block in snapshot.levels:
            if host is not None:
                break
            since = perf_counter()
            if scanned is not None:
                # The search ascends past the level below: its vertices'
                # full tables are this level's children.
                self._materialize(scanned, caches)
                add_phase(phases, PHASE_COMBINE, since)
                since = perf_counter()
            scanned = self._level_bands(state, block, caches)
            add_phase(phases, PHASE_BATCH_OCCUPANCY, since)
            since = perf_counter()
            self._scan_row0(scanned, caches)
            for node_id in block.node_ids:
                value = scanned.row0[scanned.slots[node_id]]
                if value < host_value:
                    host, host_value = node_id, value
            add_phase(phases, PHASE_TABLE_BUILD, since)
        return host, host_value

    def _machine_link_bound(
        self, state: NetworkState, snapshot: _LevelSnapshot, caches: _FastCaches
    ) -> float:
        """A lower bound on ``Opt[0, N]`` of every switch, from the machines alone.

        Any placement under a switch gives each machine it uses one
        consecutive piece ``[s, s + d)``, at an effective entry no smaller
        than the elementwise min over all machines: :func:`_chain_pieces`
        over that band bounds every vertex's value from below, and is
        ``inf`` exactly when the DP would find no host on any level.
        Machines in bit-identical states share one effective band, as one
        arena slot serves them in :meth:`_level_bands`.
        """
        n = caches.n
        keys = snapshot.machine_links(n)
        caches.eff_lookups += len(snapshot.machine_ids)
        caches.eff_builds += len(keys)
        if not len(keys):
            return np.inf  # no machine with a free slot on a live link
        caps = keys[:, 0]
        width = int(caps.max()) + 1
        tables = np.full((len(keys), width, n + 1), np.inf)
        tables[np.arange(width) <= caps[:, None]] = 0.0
        tables[:, np.add.outer(np.arange(width), np.arange(n + 1)) > n] = np.inf
        best = self._effective_bands(tables, keys[:, 1:], caches, state.risk_c).min(axis=0)
        return float(_chain_pieces(best)[n])

    def _level_bands(
        self, state: NetworkState, block: _LevelBlock, caches: _FastCaches
    ) -> _LevelBands:
        """Effective child bands of every vertex of one level, in one pass.

        The level's children are read off the state's level snapshot: a slot
        is one distinct row of (child table, ``D_L``, mean, variance,
        ``C_L``), the table named by a machine's slot cap or by a switch
        table's place among the level's distinct ones (vertex tables are
        shared per signature), so equal names imply bit-identical tables.

        The tight cap — the longest segment whose effective entry is still
        finite — is read off the arena in the same pass.
        """
        n = caches.n
        present = block.children >= 0
        names = np.minimum(block.data[:, :, FREE], n)  # a machine's table is its cap
        switches: List[np.ndarray] = []  # the distinct switch tables: -1, -2, ...
        name_of: Dict[int, float] = {}
        for row, position in zip(*np.nonzero(block.inner)):
            table = caches.tables[block.child_ids[row][position]]
            if id(table) not in name_of:
                switches.append(table)
                name_of[id(table)] = -float(len(switches))
            names[row, position] = name_of[id(table)]
        keys = np.concatenate([names[present][:, None], block.data[present][:, :4]], axis=1)
        keys, slot_of = _distinct_rows(keys)
        slot_of = slot_of.tolist()
        slots: Dict[int, Tuple[int, ...]] = {}
        start = 0
        for node_id, ids in zip(block.node_ids, block.child_ids):
            slots[node_id] = tuple(slot_of[start : start + len(ids)])
            start += len(ids)
        caches.eff_lookups += len(slot_of)
        caches.eff_builds += len(keys)
        if not slot_of:  # a level of childless switches
            arena = np.empty((0, 1, n + 1))
            level = _LevelBands(arena, [], slots)
        else:
            # One band per distinct child table.  A machine's is never kept:
            # any segment no longer than its cap fits, at inner objective 0.
            named, table_of = np.unique(keys[:, 0], return_inverse=True)
            bands = [
                switches[-1 - int(name)] if name < 0 else np.zeros((int(name) + 1, 1))
                for name in named.tolist()
            ]
            width = max(len(band) for band in bands)
            stack = np.full((len(bands), width, n + 1), np.inf)
            for index, band in enumerate(bands):
                stack[index, : len(band)] = band
            stack[:, np.add.outer(np.arange(width), np.arange(n + 1)) > n] = np.inf
            arena = self._effective_bands(stack[table_of], keys[:, 1:], caches, state.risk_c)
            arena.flags.writeable = False
            # Length 0 (empty segments) is always finite (0.0), so the
            # finite-length set is never empty and the tight cap well defined.
            finite = np.isfinite(arena).any(axis=2)
            caps = width - 1 - np.argmax(finite[:, ::-1], axis=1)
            level = _LevelBands(arena, caps.tolist(), slots)
        caches.levels.update(dict.fromkeys(block.node_ids, level))
        return level

    @staticmethod
    def _effective_bands(
        tables: np.ndarray, uplinks: np.ndarray, caches: _FastCaches, risk_c: float
    ) -> np.ndarray:
        """``max(child table, O_uplink)`` per child, ``inf`` where its uplink rejects.

        ``tables[k]`` is child ``k``'s table band (holding the band
        invariant) and ``uplinks[k]`` its ``D_L``, mean, variance and ``C_L``.
        Broadcasting the per-child uplink scalars over the band views of the
        request's segment demand moments applies the per-element float
        operations of the oracle's ``_child_effective`` in the same order, so
        every in-band entry is bit-identical to its full-matrix build.
        Entries past ``s + d > n`` read the demand bands' padding but are
        forced to ``inf`` by the child table band (the band invariant), never
        by a float that could differ.  A zero-capacity uplink admits only the
        zero-cost empty segment (a raw division would yield inf, or NaN for
        an all-zero numerator, and NaN slips through every comparison mask).
        """
        width = tables.shape[1]
        det, mean, var, capacity = uplinks.T[:, :, None, None]
        dead = capacity <= 0.0
        # The oracle's expression, operation for operation (float
        # addition commutes exactly), accumulated in one buffer.
        occupancy = var + caches.var_band[:width]
        np.maximum(occupancy, 0.0, out=occupancy)
        np.sqrt(occupancy, out=occupancy)
        occupancy *= risk_c
        occupancy += mean + caches.mean_band[:width]
        occupancy += det
        occupancy /= np.where(dead, 1.0, capacity)
        arena = np.maximum(tables, occupancy)
        arena[occupancy >= _FEASIBLE_LIMIT] = np.inf
        arena[dead[:, 0, 0]] = np.inf
        arena[:, 0] = 0.0
        return arena

    @staticmethod
    def _scan_row0(level: _LevelBands, caches: _FastCaches) -> None:
        """``Opt[0, N]`` of every signature of the level: one stacked fold.

        Row 0 of each signature-unique vertex is folded child position by
        child position, each one :func:`_fold_rows` call over the
        ``(V, W, N+1)`` gather of that position's bands.  A vertex whose
        children's tight caps sum below ``N`` cannot hold the request: its
        ``Opt[0, N]`` is ``inf``, the DP's verdict, unscanned.
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
        scan.sort(key=len, reverse=True)  # most children first, as _fold_level asks
        grid = np.zeros((len(scan), len(scan[0])), dtype=np.intp)
        for index, signature in enumerate(scan):
            grid[index, : len(signature)] = signature
        arena_caps = np.array(caps)

        def fold(rows: np.ndarray, position: int) -> np.ndarray:
            chosen = grid[: len(rows), position]
            width = int(arena_caps[chosen].max()) + 1
            return _fold_rows(rows, level.arena[chosen, :width])

        rows = np.full((len(scan), n + 1), np.inf)
        rows[:, 0] = 0.0
        rows = _fold_level(rows, np.array([len(signature) for signature in scan]), fold)[-1]
        for signature, value in zip(scan, rows[:, n].tolist()):
            level.row0[signature] = value

    @staticmethod
    def _materialize(level: _LevelBands, caches: _FastCaches) -> None:
        """Full value tables of a level via a stacked balanced combine.

        The (min, max) product is exactly associative, so adjacent children
        are combined pairwise in a balanced tree: the same candidates,
        grouped differently, bit-identical to the sequential fold.
        Balancing keeps *both* operands' bands small (sequential growth makes
        the left band reach ``N`` after a handful of children); each round's
        distinct pairs, across all of the level's signatures, are one
        :func:`_combine_bands` call per operand shape (equal caps stack
        without padding); and a pair already named is never recombined: runs
        of identical children, e.g. the machines of a pristine rack, collapse
        to ``O(log children)`` unique combines.
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
            # A childless switch holds only empty segments, at cost 0.
            level.tables[signature] = (
                bands[seq[0]][: caps[seq[0]] + 1] if seq else np.zeros((1, n + 1))
            )
        for node_id, signature in level.slots.items():
            caches.tables[node_id] = level.tables[signature]
        caches.vertex_lookups += len(level.slots)
        caches.vertex_builds += len(level.tables)

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------

    def _backtrack_fast(
        self,
        tree,
        caches: _FastCaches,
        node_id: int,
        start: int,
        end: int,
        node_segments: Dict[int, Tuple[int, int]],
    ) -> None:
        """The backtrack, its splits recovered from row ``start``.

        The split point of child ``i`` for ``[start, right)`` is the first
        ``k`` minimizing ``max(partial_i[start, k], eff_i[k, right])`` (what
        the oracle reads off a dense ``choices[i][start, right]``).  Row
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
        level = caches.levels[node_id]
        slots = level.slots[node_id]
        row = np.full((1, caches.n + 1), np.inf)
        row[0, start] = 0.0
        prefixes = [row]
        for slot in slots[:-1]:
            band = level.arena[slot, : level.caps[slot] + 1]
            prefixes.append(_fold_rows(prefixes[-1], band[None]))
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
            self._backtrack_fast(tree, caches, node.children[index], split, right, node_segments)
            right = split
        if right != start:
            raise RuntimeError(f"backtracking left [{start}, {right}) unassigned at {node_id}")
