"""Level-stacked (min, max) kernels and the level snapshot both tree DPs read.

Algorithm 1 and the substring heuristic are one recursion: a vertex folds its
children, one after the other, into a running table with
``new = min over splits of max(running, child)``.  ``min`` and ``max`` select
an operand and never round, so any grouping of the same candidates gives the
same floats — which is what lets a whole tree level be folded at once, one
numpy call per child *position* (:func:`_fold_level`) instead of one per
vertex and child:

* :func:`_fold_counts` — identical VMs (Algorithm 1): a table is a row over
  VM counts and a fold is the 1-D (min, max)-convolution with the child's
  effective row; :func:`_split_counts` recovers the split a fold chose.
* :func:`_fold_rows`, :func:`_combine_bands`, :func:`_band_of` — sorted
  heterogeneous VMs: tables are segment matrices in band form;
  :func:`_chain_pieces` bounds every vertex's ``Opt[0, N]`` from the machine
  links alone, before any table exists.

:func:`level_snapshot` is the other shared half: per tree level, what every
vertex's DP reads of the network — its children's uplink aggregates and free
slots — as one array block, kept per live ``NetworkState`` and refreshed only
under the vertices the state stamped as changed.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.network.link_state import NetworkState


def _fold_level(
    rows: np.ndarray, counts: np.ndarray, fold: Callable[[np.ndarray, int], np.ndarray]
) -> List[np.ndarray]:
    """Fold every child of a stack of vertices into ``rows``, position by position.

    ``counts[v]`` is vertex ``v``'s child count, in descending order, so the
    vertices that still have a child at a position are a prefix of the stack:
    ``fold(rows[:live], position)`` returns the live rows after that position.
    Returns the stack before each position and, last, after all of them.
    """
    prefixes = [rows]
    for position in range(int(counts[0])):
        live = int(np.count_nonzero(counts > position))
        folded = fold(rows[:live], position)
        rows = folded if live == len(rows) else np.concatenate([folded, rows[live:]])
        prefixes.append(rows)
    return prefixes


def _fold_counts(rows: np.ndarray, eff: np.ndarray, optimize: bool = True) -> np.ndarray:
    """One child position folded into the rows of a stack of vertices (Eq. 11).

    ``rows[v, h]`` is ``Opt(T_v[i-1], h)`` and ``eff[v, e]`` the effective
    value of giving vertex ``v``'s ``i``-th child ``e`` VMs (``inf`` past the
    child's cap).  Returns ``new[v, s] = min over e of max(eff[v, e],
    rows[v, s - e])``, the candidates read through a strided view of the rows
    padded with ``inf`` where ``s < e`` — no index gather.  With
    ``optimize=False`` the value kept is that of the first *feasible* ``e``
    (adapted TIVC makes no distinction between valid splits).  Only
    max/min/compare touch the floats, so each row equals the one-child-at-a-
    time ``_combine`` of the tests' oracle (``tests/reference``) bit for bit.
    """
    count, height = rows.shape
    width = eff.shape[1]
    padded = np.full((count, width - 1 + height), np.inf)
    padded[:, width - 1 :] = rows
    plane, col = padded.strides
    # shifted[v, e, s] = rows[v, s - e]
    shifted = np.ndarray(
        (count, width, height), padded.dtype, padded, (width - 1) * col, (plane, -col, col)
    )
    candidates = np.maximum(eff[:, :, None], shifted)
    if optimize:
        return candidates.min(axis=1)
    first = np.argmax(np.isfinite(candidates), axis=1)
    return np.take_along_axis(candidates, first[:, None, :], axis=1)[:, 0]


def _split_counts(
    rows: np.ndarray, eff: np.ndarray, totals: np.ndarray, optimize: bool = True
) -> np.ndarray:
    """The ``e`` that :func:`_fold_counts` chose at ``s = totals[v]``, per vertex.

    The first ``e`` attaining the minimum (the oracle's ascending strict-``<``
    scan), or the first feasible one with ``optimize=False`` — the oracle's
    ``choices[i][s]`` without the table (``0`` where it holds ``-1``: callers
    split only totals whose value is finite).  ``eff`` must be no wider than
    ``rows``, so that ``s - e`` never leaves a row.
    """
    behind = totals[:, None] - np.arange(eff.shape[1])
    candidates = np.maximum(eff, rows[np.arange(len(rows))[:, None], behind])
    candidates[behind < 0] = np.inf  # those reads wrapped around
    if optimize:
        return np.argmin(candidates, axis=1)
    return np.argmax(np.isfinite(candidates), axis=1)


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


def _chain_pieces(best: np.ndarray) -> np.ndarray:
    """The cheapest cut of every prefix ``[0, e)`` into consecutive pieces.

    ``best[d, s]`` is what the piece ``[s, s + d)`` costs at least wherever
    it is placed whole (``inf``: nowhere); returns ``g[0] = 0``, ``g[e] = min
    over d >= 1 of max(g[e - d], best[d, e - d])``.  Every placement under a
    switch cuts ``[0, N)`` into such pieces, one per machine used, so with
    ``best`` the elementwise min over the machines' effective bands,
    ``g[N] <= Opt(T_v, [0, N))`` of every switch ``v`` — exactly, in floats:
    both sides are min/max selections over the same effective entries, and
    the DP's value only adds operands to its maxima (the links above the
    machines) and drops candidates from its minima (a machine is used once).
    ``g[N] = inf`` *is* the DP's reject, at every level, with no table built.

    ``g[e]`` needs ``g[e - 1]``, so the chain is sequential in ``e``; pieces
    are no longer than a machine's slots, a handful, so each step is one
    ``min`` over a short list rather than a numpy dispatch.
    """
    width, height = best.shape
    padded = np.full((width, height + width - 1), np.inf)
    padded[:, width - 1 :] = best
    row, col = padded.strides
    # ending[e][j] = best[d, e - d] at d = width - 1 - j: the pieces ending
    # at e, longest first — by ascending start, as the chain's tail holds them.
    ending = np.ndarray(
        (height, width - 1), padded.dtype, padded, (width - 1) * row, (col, col - row)
    ).tolist()
    chain = [np.inf] * (width - 1) + [0.0]  # g[s] at chain[s + width - 1]
    for e in range(1, height):
        chain.append(min(map(max, chain[e:], ending[e]), default=np.inf))
    return np.array(chain[width - 1 :])


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


def _distinct_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)`` by one ``lexsort``.

    The same rows in the same (lexicographic) order; numpy's own compares a
    structured view of the rows field by field — 0.9 ms for the paper tree's
    thousand machine rows, against 0.1 ms.
    """
    if not len(rows):
        return rows, np.empty(0, dtype=np.intp)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)  # the first of each run of equal rows
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


#: Columns of a level block, per child: ``D_L``, mean and variance of the
#: stochastic aggregate, ``C_L`` (all of the child's uplink), free slots under it.
DET, MEAN, VAR, CAPACITY, FREE = range(5)


class _LevelBlock:
    """One tree level of internal vertices with their children side by side.

    ``data[v, i]`` holds the five columns above for child ``i`` of vertex
    ``node_ids[v]`` (tree order); a vertex with fewer children than the
    level's most is padded with idle unit links over no slots, which no fold
    reaches (a vertex is folded over its own ``counts[v]`` positions).
    ``machines`` / ``inner`` mark the positions holding a machine / a switch.
    """

    def __init__(self, tree, node_ids: List[int]) -> None:
        self.node_ids = node_ids
        self.row_of = {node_id: row for row, node_id in enumerate(node_ids)}
        self.child_ids = [tuple(tree.children(node_id)) for node_id in node_ids]
        self.counts = np.array([len(ids) for ids in self.child_ids])
        shape = (len(node_ids), max(1, int(self.counts.max())))
        self.children = np.full(shape, -1)
        for row, ids in enumerate(self.child_ids):
            self.children[row, : len(ids)] = ids
        self.inner_ids = [
            tuple(child for child in ids if not tree.node(child).is_machine)
            for ids in self.child_ids
        ]
        self.inner = np.isin(self.children, [c for ids in self.inner_ids for c in ids])
        self.machines = (self.children >= 0) & ~self.inner
        self.data = np.empty(shape + (5,))
        self.data[:] = (0.0, 0.0, 0.0, 1.0, 0.0)


class _LevelSnapshot:
    """Every internal level's block for one state, current as of ``version``."""

    def __init__(self, state: NetworkState) -> None:
        tree = state.tree
        self.levels = [
            _LevelBlock(tree, list(node_ids))
            for level, node_ids in tree.bottom_up_levels()
            if level > 0 and node_ids
        ]
        #: Where the machines sit: (block, flat child positions) of every
        #: block that holds any, so a gather is one ``take`` per such block.
        self._machine_slots = [
            (block, np.flatnonzero(block.machines))
            for block in self.levels
            if block.machines.any()
        ]
        # A tree with no switch is one bare machine, which no block holds.
        self.machine_ids = np.concatenate(
            [block.children.ravel()[at] for block, at in self._machine_slots]
            or [[tree.root_id]]
        )
        #: Per machine, in ``machine_ids`` order: the five columns of its row.
        self.machine_rows = np.empty((len(self.machine_ids), 5))
        self.version = -1  # before any state version: the first refresh gathers all

    def refresh(self, state: NetworkState) -> None:
        """Re-gather the children of every vertex stamped since the last refresh.

        A commit or release stamps ``changed_at`` on every ancestor of the
        machines it touched, and each link it loads hangs under one of them,
        so an unstamped vertex's rows are still what the state holds.
        """
        if state.version == self.version:
            return
        links, free_under, changed_at = state.links, state.free_slots_under, state.changed_at
        for block in self.levels:
            for row, node_id in enumerate(block.node_ids):
                if changed_at[node_id] > self.version and block.child_ids[row]:
                    block.data[row, : block.counts[row]] = [
                        (
                            links[child].deterministic_total,
                            links[child].mean_total,
                            links[child].var_total,
                            links[child].capacity,
                            free_under(child),
                        )
                        for child in block.child_ids[row]
                    ]
        if self._machine_slots:
            self.machine_rows = np.concatenate(
                [block.data.reshape(-1, 5).take(at, axis=0) for block, at in self._machine_slots]
            )
        elif not self.levels:  # the bare machine hangs under no link: an idle unit one
            self.machine_rows[0] = (0.0, 0.0, 0.0, 1.0, state.free_slots(state.tree.root_id))
        self.version = state.version

    def machine_level(self, n: int) -> Tuple[Optional[int], int, int]:
        """Lines 4-7 of Algorithm 1 for every machine at once.

        A machine's table is the 0/``inf`` step at ``min(free, n)`` and is
        never built: returns the first machine, in node order, whose free
        slots cover ``n`` (it hosts the request whole at ``Opt`` 0.0; else
        None), the number of machines and the number of distinct steps.
        """
        free = self.machine_rows[:, FREE]
        fits = self.machine_ids[free >= n]
        host = int(fits.min()) if fits.size else None
        return host, free.size, np.unique(np.minimum(free, n)).size

    def machine_links(self, n: int) -> np.ndarray:
        """The distinct ``(min(free, n), D_L, mean, variance, C_L)`` rows of the
        machines that can take a VM at all: a free slot under a live uplink.

        All machines of the tree, whatever level their parent is on.
        """
        rows = self.machine_rows
        rows = rows[(rows[:, FREE] >= 1.0) & (rows[:, CAPACITY] > 0.0)]
        keys = np.column_stack([np.minimum(rows[:, FREE], n), rows[:, :FREE]])
        return _distinct_rows(keys)[0]


_SNAPSHOTS: "weakref.WeakKeyDictionary[NetworkState, _LevelSnapshot]" = (
    weakref.WeakKeyDictionary()
)


def level_snapshot(state: NetworkState) -> _LevelSnapshot:
    """The state's level snapshot, brought up to its current version."""
    snapshot = _SNAPSHOTS.get(state)
    if snapshot is None:
        snapshot = _SNAPSHOTS[state] = _LevelSnapshot(state)
    snapshot.refresh(state)
    return snapshot
