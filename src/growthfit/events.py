"""The graph before any increment of a stream, answered by whole-array queries.

Every edge is numbered by the event that adds it: event 0 is the seed graph
and increment k adds its edges at event k + 1, so "before increment k" means
"at event k or earlier".  A node's degree before an increment, its
neighbourhood then, the common neighbours of two nodes and the triangles at
a node are all functions of those numbers.  ``EdgeEvents`` sorts the edge
ends once by node and event and answers each of these for many (node,
increment) pairs at once, without replaying the graph.

``StreamColumns`` holds the increments as flat arrays, and
``first_rejection`` checks them, each against the graph its predecessors
build, reporting the lowest increment it rejects with its error.  It is the
one rule set for what a graph admits: replay, statistics,
``GrowthStream.final_graph`` and ``graph.apply_increment`` all ask it.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass
from functools import cached_property, wraps
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .errors import GraphError, RejectedIncrementError, UnknownNodeError

if TYPE_CHECKING:
    from .graph import DynamicGraph, Increment

# Wedges the triangle table looks up at once: about ten index arrays of this
# many entries (1.3 MB), where the whole graph's wedges took 14 MB on a
# 100k-edge stream.
_WEDGE_BATCH = 1 << 14


def new_id_error(role: str, node: int, expected: int) -> UnknownNodeError:
    return UnknownNodeError(f"new {role} id {node} does not match next arrival index {expected}")


def unknown_node_error(role: str, node: int, num_nodes: int) -> UnknownNodeError:
    return UnknownNodeError(f"existing-tagged {role} {node} not in graph of {num_nodes} nodes")


def duplicate_edge_error(center: int, target: int, timestamp: int) -> RejectedIncrementError:
    return RejectedIncrementError(f"edge ({center}, {target}) already present at t={timestamp}")


def offsets(sizes) -> np.ndarray:
    """[0, s0, s0 + s1, ...]: the bounds of consecutive segments of the given sizes."""
    return np.concatenate(([0], np.cumsum(sizes)))


def read_only(arrays) -> None:
    """Mark each array non-writeable, so that every holder can share it."""
    for values in arrays:
        values.flags.writeable = False


def _arrays(value) -> Iterator[np.ndarray]:
    """The arrays a value holds: itself, or in its tuple, list or dataclass fields, at any depth."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)) or is_dataclass(value):
        for item in vars(value).values() if is_dataclass(value) else value:
            yield from _arrays(item)


def kept_table(build: Callable) -> cached_property:
    """A ``cached_property`` for a table built on first use and then shared by every reader.

    Every array the table holds is marked read-only as it is built.
    """

    @wraps(build)
    def built(self):
        table = build(self)
        read_only(_arrays(table))
        return table

    return cached_property(built)


def concat_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenation of arange(lo[i], hi[i]) over i."""
    lengths = hi - lo
    return np.repeat(lo - offsets(lengths)[:-1], lengths) + np.arange(int(lengths.sum()))


def batches(sizes: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive index ranges over ``sizes``, each totalling under ``budget`` plus one item."""
    if len(sizes) == 0:
        return []
    span = offsets(sizes)[:-1] // budget
    cuts = np.flatnonzero(np.diff(span)) + 1
    bounds = [0, *cuts.tolist(), len(sizes)]
    return list(zip(bounds[:-1], bounds[1:]))


def segment_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Exact integer sums of consecutive segments of the given sizes."""
    bounds = offsets(sizes)
    running = offsets(values)
    return running[bounds[1:]] - running[bounds[:-1]]


def _pair_keys(u: np.ndarray, v: np.ndarray, num_nodes: int) -> np.ndarray:
    """One int64 key per unordered node pair."""
    return np.minimum(u, v) * num_nodes + np.maximum(u, v)


def graph_ends(graph: DynamicGraph) -> tuple[np.ndarray, np.ndarray]:
    """Both ends of every edge of ``graph`` as (node, neighbour), sorted by node then neighbour."""
    degrees = np.array(graph.degrees, dtype=np.int64)
    nbr = np.fromiter(chain.from_iterable(graph.adj), np.int64, int(degrees.sum()))
    node = np.repeat(np.arange(len(degrees)), degrees)
    order = np.lexsort((nbr, node))
    return node[order], nbr[order]


@dataclass
class StreamColumns:
    """A run of increments as flat arrays, targets laid end to end in increment order."""

    timestamp: np.ndarray  # (I,) int64
    center: np.ndarray  # (I,) int64
    center_new: np.ndarray  # (I,) bool
    gain: np.ndarray  # (I,) int64, targets per increment
    node_offsets: np.ndarray  # (I + 1,) int64, graph size before each increment, then after all
    target: np.ndarray  # (T,) int64
    target_new: np.ndarray  # (T,) bool
    target_inc: np.ndarray  # (T,) int64, owning increment

    @staticmethod
    def build(timestamp, center, center_new, gain, target, target_new, first_nodes):
        """Columns of increments applied one after another to a graph of ``first_nodes`` nodes.

        Increment k owns the k-th run of ``gain[k]`` entries of ``target``.
        """
        num_inc = len(center)
        target_inc = np.repeat(np.arange(num_inc), gain)
        new_nodes = center_new + np.bincount(target_inc[target_new], minlength=num_inc)
        node_offsets = first_nodes + offsets(new_nodes)
        return StreamColumns(
            timestamp, center, center_new, gain, node_offsets, target, target_new, target_inc
        )

    @staticmethod
    def of(increments: Sequence[Increment], first_nodes: int) -> StreamColumns:
        """Flatten ``increments``, applied one after another to a graph of ``first_nodes`` nodes."""
        num_inc = len(increments)
        gain = np.fromiter((len(inc.targets) for inc in increments), np.int64, num_inc)
        total = int(gain.sum())

        def column(name, dtype, flat=False):
            values = map(attrgetter(name), increments)
            if flat:
                return np.fromiter(chain.from_iterable(values), dtype, total)
            return np.fromiter(values, dtype, num_inc)

        return StreamColumns.build(
            column("timestamp", np.int64),
            column("center", np.int64),
            column("center_is_new", bool),
            gain,
            column("targets", np.int64, flat=True),
            column("targets_new", bool, flat=True),
            first_nodes,
        )

    def head(self, count: int) -> StreamColumns:
        """The first ``count`` increments."""
        t = int(self.gain[:count].sum())
        return StreamColumns(
            *(a[:count] for a in (self.timestamp, self.center, self.center_new, self.gain)),
            self.node_offsets[: count + 1],
            *(a[:t] for a in (self.target, self.target_new, self.target_inc)),
        )

    @property
    def num_increments(self) -> int:
        return len(self.center)

    @property
    def num_nodes(self) -> np.ndarray:
        """(I,) graph size before each increment."""
        return self.node_offsets[:-1]

    @property
    def final_nodes(self) -> int:
        return int(self.node_offsets[-1])


def first_rejection(
    cols: StreamColumns, seed_node: np.ndarray, seed_nbr: np.ndarray
) -> tuple[int, GraphError] | None:
    """The lowest increment the graph cannot take, with its error, or None.

    ``seed_node``/``seed_nbr`` are the seed graph's edge ends.  Every
    increment is checked against the graph its predecessors build, which is
    only meaningful up to the first rejection, so only that one is reported.
    Within an increment the center is checked first, then each target in
    list order.  A new center or target must carry the next arrival index
    (``UnknownNodeError``); an existing one must be a node of the graph
    (``UnknownNodeError``), and an existing target of an existing center
    must not repeat an edge (``RejectedIncrementError``).
    """
    num_nodes = cols.num_nodes
    tinc = cols.target_inc
    center, target = cols.center, cols.target
    center_bad = np.where(
        cols.center_new, center != num_nodes, (center < 0) | (center >= num_nodes)
    )
    # A new target must carry the next arrival index: after the graph, the
    # new center, and the new targets listed before it.
    new_before = offsets(cols.target_new.astype(np.int64))
    first_target = offsets(cols.gain)[:-1]
    expected = (
        num_nodes[tinc] + cols.center_new[tinc] + new_before[:-1] - new_before[first_target[tinc]]
    )
    new_bad = cols.target_new & (target != expected)
    out_of_range = ~cols.target_new & ((target < 0) | (target >= num_nodes[tinc]))
    internal = ~cols.target_new & ~cols.center_new[tinc] & ~out_of_range & ~center_bad[tinc]
    duplicate = np.zeros(len(target), dtype=bool)
    if internal.any():
        # Only edges before the first rejection are real; out-of-range ids
        # are clipped so that later ones cannot break the key arithmetic.
        n = max(cols.final_nodes, 1)
        keys = np.concatenate(
            (
                _pair_keys(seed_node, seed_nbr, n),
                _pair_keys(np.clip(center[tinc], 0, n - 1), np.clip(target, 0, n - 1), n),
            )
        )
        events = np.concatenate((np.zeros(len(seed_node), dtype=np.int64), tinc + 1))
        # Events are in time order, so a stable sort puts each pair's first event first.
        order = np.argsort(keys, kind="stable")
        asked = len(seed_node) + np.flatnonzero(internal)
        first = order[np.searchsorted(keys[order], keys[asked])]
        duplicate[internal] = events[first] < events[asked]
    bad_targets = np.flatnonzero(new_bad | out_of_range | duplicate)
    bad_centers = np.flatnonzero(center_bad)
    candidates = [*bad_centers[:1].tolist(), *tinc[bad_targets[:1]].tolist()]
    if not candidates:
        return None
    k = min(candidates)
    n_k = int(num_nodes[k])
    if center_bad[k]:
        error = new_id_error if cols.center_new[k] else unknown_node_error
        return k, error("center", int(center[k]), n_k)
    j = bad_targets[0]
    t = int(target[j])
    if new_bad[j]:
        return k, new_id_error("target", t, int(expected[j]))
    if out_of_range[j]:
        return k, unknown_node_error("target", t, n_k)
    return k, duplicate_edge_error(int(center[k]), t, int(cols.timestamp[k]))


class EdgeEvents:
    """The edge ends of a seed graph and a valid run of increments, by node and event.

    A node's ends are sorted by event, and ends of one event keep the order
    in which their edges were added (seed ends by neighbour), so the
    neighbourhood of a node before increment k is a prefix of its row.
    """

    def __init__(self, seed_node: np.ndarray, seed_nbr: np.ndarray, cols: StreamColumns):
        self.num_nodes = cols.final_nodes
        # Keys node * span + event order the ends; events run from 0 to I.
        self.span = cols.num_increments + 1
        centers = cols.center[cols.target_inc]
        events = cols.target_inc + 1
        once = seed_node < seed_nbr
        self.edge_u = np.concatenate((seed_node[once], centers))
        self.edge_v = np.concatenate((seed_nbr[once], cols.target))
        self.edge_event = np.concatenate((np.zeros(int(once.sum()), dtype=np.int64), events))
        node = np.concatenate((seed_node, centers, cols.target))
        nbr = np.concatenate((seed_nbr, cols.target, centers))
        seed_events = np.zeros(len(seed_node), dtype=np.int64)
        key = node * self.span + np.concatenate((seed_events, events, events))
        order = np.argsort(key, kind="stable")
        self.key = key[order]
        self.nbr = nbr[order]
        self.start = offsets(np.bincount(node, minlength=self.num_nodes))
        # (m, keys): the triangle table of the first m edges (``_triangles_of``)
        self._triangles = (0, np.zeros(0, dtype=np.int64))
        read_only([self._triangles[1]])

    def degree_before(self, nodes: np.ndarray, incs: np.ndarray) -> np.ndarray:
        """Degree of each node before the paired increment."""
        return np.searchsorted(self.key, nodes * self.span + incs + 1) - self.start[nodes]

    def neighbours_before(
        self, nodes: np.ndarray, incs: np.ndarray, degrees: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(query, neighbour) for every neighbour of each node before the paired increment.

        ``degrees`` may pass ``degree_before(nodes, incs)`` when it is known.
        Neighbours come query after query, each in arrival order.
        """
        if degrees is None:
            degrees = self.degree_before(nodes, incs)
        lo = self.start[nodes]
        return np.repeat(np.arange(len(nodes)), degrees), self.nbr[concat_ranges(lo, lo + degrees)]

    @kept_table
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted pair keys of all edges and the event of each."""
        keys = _pair_keys(self.edge_u, self.edge_v, self.num_nodes)
        order = np.argsort(keys)
        keys = keys[order]  # frees the unsorted keys before the events are gathered
        return keys, self.edge_event[order]

    def event_of(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Event that adds edge (u, v), or ``span`` (never) if the edge is absent."""
        keys, events = self._pairs
        wanted = _pair_keys(u, v, self.num_nodes)
        if len(keys) == 0:
            return np.full(len(wanted), self.span, dtype=np.int64)
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where(keys[at] == wanted, events[at], self.span)

    def common_before(
        self,
        a: np.ndarray,
        b: np.ndarray,
        incs: np.ndarray,
        deg_a: np.ndarray,
        deg_b: np.ndarray,
    ) -> np.ndarray:
        """Common neighbours of each pair before the paired increment.

        ``deg_a``/``deg_b`` are the nodes' degrees then.  Walks the smaller
        of the two neighbourhoods and looks each node up as an edge of the
        other.
        """
        swap = deg_b < deg_a
        query, w = self.neighbours_before(
            np.where(swap, b, a), incs, np.minimum(deg_a, deg_b)
        )
        hit = self.event_of(np.where(swap, a, b)[query], w) <= incs[query]
        return np.bincount(query[hit], minlength=len(a))

    def neighbour_degree_sums(
        self, nodes: np.ndarray, incs: np.ndarray, degrees: np.ndarray
    ) -> np.ndarray:
        """Sum of the degrees of each node's neighbours, all before the paired increment.

        ``degrees`` holds the nodes' own degrees then.
        """
        query, w = self.neighbours_before(nodes, incs, degrees)
        # Hubs are the common anchors, so the lookups repeat a few rows of
        # ``key``: searching them in sorted order keeps those rows in cache.
        wanted = w * self.span + incs[query] + 1
        order = np.argsort(wanted)
        ends = np.empty_like(wanted)
        ends[order] = np.searchsorted(self.key, wanted[order])
        return segment_sums(ends - self.start[w], degrees)

    def _oriented_edges(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, event) of the first m edges, each from its end of lower (degree, id) rank.

        Sorted by lo, then hi.
        """
        n = self.num_nodes
        u, v = self.edge_u[:m], self.edge_v[:m]
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort((np.arange(n), np.diff(self.start)))] = np.arange(n)
        up = rank[u] < rank[v]
        lo = np.where(up, u, v)
        hi = np.where(up, v, u)
        order = np.lexsort((hi, lo))
        return lo[order], hi[order], self.edge_event[:m][order]

    def _triangles_of(self, m: int) -> np.ndarray:
        """Sorted keys node * span + event, one per triangle corner, at the event closing it.

        The triangles are those of the first m edges.  Each is found once:
        edges are oriented (``_oriented_edges``), and every pair of edges out
        of one node is a wedge whose closing edge is looked up among all
        edges and kept if it is one of the m, for a run of edges heading
        about ``_WEDGE_BATCH`` wedges at a time.
        """
        # Edges are numbered in event order: the first m are those up to the m-th's event.
        horizon = self.edge_event[m - 1]
        lo, hi, event = self._oriented_edges(m)
        out_end = offsets(np.bincount(lo, minlength=self.num_nodes))[lo + 1]
        keys = [np.zeros(0, dtype=np.int64)]
        # an edge heads a wedge with each later edge out of its node
        for a, b in batches(out_end - np.arange(len(lo)) - 1, _WEDGE_BATCH):
            edge = np.arange(a, b)
            first = np.repeat(edge, out_end[a:b] - edge - 1)
            second = concat_ranges(edge + 1, out_end[a:b])
            third = self.event_of(hi[first], hi[second])
            closed = third <= horizon
            first, second = first[closed], second[closed]
            when = np.maximum(np.maximum(event[first], event[second]), third[closed])
            corners = np.concatenate((lo[first], hi[first], hi[second]))
            keys.append(corners * self.span + np.tile(when, 3))
        return np.sort(np.concatenate(keys))

    def triangles_before(self, nodes: np.ndarray, incs: np.ndarray) -> np.ndarray:
        """Triangles at each node whose three edges all exist before the paired increment.

        They are counted among the edges the call can see, those of events
        up to its latest increment, in a table that is kept: it answers any
        later call that sees no more edges, and a call that sees more builds
        a new one.  A caller with several calls makes the one that sees the
        most first.
        """
        if len(nodes) == 0:
            return np.zeros(0, dtype=np.int64)
        # Edges are numbered in event order, so those a call sees are a prefix.
        m = int(np.searchsorted(self.edge_event, incs.max(), side="right"))
        if m > self._triangles[0]:
            keys = self._triangles_of(m)
            read_only([keys])
            self._triangles = (m, keys)
        keys = self._triangles[1]
        base = nodes * self.span
        return np.searchsorted(keys, base + incs + 1) - np.searchsorted(keys, base)
