"""Evolving simple undirected graph grown by star-shaped increments.

Nodes are dense integer indices assigned in arrival order, so the arrival
rank of node ``i`` is ``i + 1``.  Mapping between dataset string ids and
dense indices happens at the ingestion boundary (see ``stream``), never
here.  Nodes and edges are permanent: there is no removal API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import RejectedIncrementError, StreamError, UnknownNodeError
from .events import StreamColumns, first_rejection, graph_ends, offsets, read_only

if TYPE_CHECKING:
    from .likelihood import DPTrace


@dataclass(frozen=True)
class Increment:
    """One star-shaped growth event.

    ``center``/``targets`` are dense node indices.  References tagged new
    carry the index the node will occupy once applied (center first, then
    new targets in list order), which keeps replays deterministic.
    """

    timestamp: int
    center: int
    center_is_new: bool
    targets: tuple[int, ...]
    targets_new: tuple[bool, ...]

    def __post_init__(self):
        if len(self.targets) != len(self.targets_new):
            raise StreamError(
                f"increment at t={self.timestamp} has {len(self.targets)} targets "
                f"but {len(self.targets_new)} new-target tags"
            )
        if len(set(self.targets)) != len(self.targets):
            raise RejectedIncrementError(f"duplicate targets in increment at t={self.timestamp}")
        if self.center in self.targets:
            raise RejectedIncrementError(f"self-loop in increment at t={self.timestamp}")

    @property
    def num_choices(self) -> int:
        """Object-model choices in this event: existing center plus existing targets."""
        m = 0 if self.center_is_new else 1
        return m + sum(1 for new in self.targets_new if not new)

    @property
    def existing_targets(self) -> tuple[int, ...]:
        return tuple(t for t, new in zip(self.targets, self.targets_new) if not new)

    @property
    def new_nodes(self) -> tuple[int, ...]:
        head = (self.center,) if self.center_is_new else ()
        return head + tuple(t for t, new in zip(self.targets, self.targets_new) if new)


class DynamicGraph:
    """Simple undirected graph with per-node degree and neighbor sets.

    Neighbor sets give O(min(d_i, d_j)) common-neighbor counting, which
    dominates triangle-closure evaluation.  Mutation is single-writer; any
    number of readers may share the instance while nothing mutates it.
    """

    __slots__ = ("adj", "degrees", "edge_count")

    def __init__(self):
        self.adj: list[set[int]] = []
        self.degrees: list[int] = []
        self.edge_count: int = 0

    @property
    def num_nodes(self) -> int:
        return len(self.degrees)

    def add_node(self) -> int:
        self.adj.append(set())
        self.degrees.append(0)
        return len(self.degrees) - 1

    def add_edge(self, u: int, v: int) -> None:
        n = len(self.degrees)
        if not (0 <= u < n and 0 <= v < n):
            raise UnknownNodeError(f"edge ({u}, {v}) references an unknown node")
        if u == v:
            raise RejectedIncrementError(f"self-loop at node {u}")
        if v in self.adj[u]:
            raise RejectedIncrementError(f"duplicate edge ({u}, {v})")
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.degrees[u] += 1
        self.degrees[v] += 1
        self.edge_count += 1

    def neighbors(self, u: int) -> set[int]:
        return self.adj[u]

    def common_neighbor_count(self, u: int, v: int) -> int:
        a, b = self.adj[u], self.adj[v]
        if len(b) < len(a):
            a, b = b, a
        return sum(1 for w in a if w in b)

    def edges(self):
        """Yield each undirected edge once as (u, v) with u < v."""
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def check_invariants(self) -> None:
        """Assert handshake symmetry and the degree sum identity (test hook)."""
        total = 0
        for u, nbrs in enumerate(self.adj):
            assert self.degrees[u] == len(nbrs)
            total += len(nbrs)
            for v in nbrs:
                assert v != u and u in self.adj[v]
        assert total == 2 * self.edge_count


def _columns(increments: list[Increment], first_nodes: int) -> StreamColumns:
    """``StreamColumns.of``, refusing values outside int64 with ``StreamError``."""
    try:
        return StreamColumns.of(increments, first_nodes)
    except OverflowError:
        raise StreamError("a timestamp or node id is outside the 64-bit range") from None


def apply_increment(graph: DynamicGraph, inc: Increment) -> DynamicGraph:
    """Apply one star increment in place and return the graph.

    New-tagged references must carry the indices they will receive (center
    first, then new targets in list order); existing-tagged references must
    resolve to current nodes and must not duplicate an edge.  An increment
    the graph cannot take raises what ``events.first_rejection`` reports for
    it, and leaves the graph unchanged.
    """
    n = graph.num_nodes
    cols = _columns([inc], n)
    # Only the center's edges can repeat one of the star's.
    nbrs = graph.adj[inc.center] if 0 <= inc.center < n else ()
    ends = np.full(len(nbrs), inc.center, dtype=np.int64), np.fromiter(nbrs, np.int64, len(nbrs))
    rejection = first_rejection(cols, *ends)
    if rejection is not None:
        raise rejection[1]
    for _ in inc.new_nodes:
        graph.add_node()
    for t in inc.targets:
        graph.add_edge(inc.center, t)
    return graph


def graph_from_edges(edges, num_nodes: int | None = None) -> DynamicGraph:
    """Build a graph from (u, v) pairs over dense indices (test/seed helper).

    Nodes 0..max_index are created in index order; ``num_nodes`` may pad
    trailing isolated nodes.
    """
    g = DynamicGraph()
    edges = list(edges)
    for _ in range(max(seed_nodes(edges), num_nodes or 0)):
        g.add_node()
    for u, v in edges:
        g.add_edge(u, v)
    return g


def clique_graph(n: int) -> DynamicGraph:
    """Complete graph on n nodes, the default generator seed."""
    return graph_from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])


def seed_nodes(seed_edges) -> int:
    """Node count of the seed graph of ``seed_edges``: one past the largest node id."""
    return max((max(u, v) for u, v in seed_edges), default=-1) + 1


class GrowthStream:
    """A seed graph plus the increment sequence observed after it; read-only.

    The increments are kept once, as the read-only arrays of ``columns``
    (``events.StreamColumns``); ``increments`` builds them as ``Increment``
    objects on demand, a new list on every access, and ``seed_edges`` is
    likewise a new list of the kept seed edges.  ``labels`` maps dense node
    index to the original dataset id; synthetic streams leave it None and
    print indices directly.  The stream also keeps each replay built from it
    (``likelihood.build_dp_trace``), one per set of replay options, so every
    scorer given the stream reads one replay and the replays go with it.
    """

    def __init__(self, seed_edges=(), increments=(), labels: list[str] | None = None):
        seed_edges = tuple(seed_edges)
        self._hold(seed_edges, _columns(list(increments), seed_nodes(seed_edges)), labels)

    @classmethod
    def from_columns(cls, seed_edges, columns: StreamColumns, labels) -> GrowthStream:
        """The stream of ``columns``, whose graph sizes start at ``seed_nodes(seed_edges)``."""
        stream = cls.__new__(cls)
        stream._hold(seed_edges, columns, labels)
        return stream

    def _hold(self, seed_edges, columns: StreamColumns, labels) -> None:
        read_only(vars(columns).values())
        self._seed_edges = tuple((u, v) for u, v in seed_edges)
        self.columns, self.labels = columns, labels
        self._traces: dict[tuple[int, int, int], DPTrace] = {}

    @property
    def seed_edges(self) -> list[tuple[int, int]]:
        return list(self._seed_edges)

    @property
    def increments(self) -> list[Increment]:
        cols = self.columns
        bounds = offsets(cols.gain).tolist()
        targets, new = cols.target.tolist(), cols.target_new.tolist()
        rows = zip(cols.timestamp.tolist(), cols.center.tolist(), cols.center_new.tolist())
        return [
            Increment(t, c, c_new, tuple(targets[a:b]), tuple(new[a:b]))
            for (t, c, c_new), a, b in zip(rows, bounds, bounds[1:])
        ]

    def seed_graph(self) -> DynamicGraph:
        return graph_from_edges(self._seed_edges)

    def label(self, node: int) -> str:
        return self.labels[node] if self.labels is not None else str(node)

    def final_graph(self) -> DynamicGraph:
        """The graph after every increment.

        An invalid stream raises what ``events.first_rejection`` reports for
        its first increment that the graph before it cannot take.
        """
        g = self.seed_graph()
        cols = self.columns
        rejection = first_rejection(cols, *graph_ends(g))
        if rejection is not None:
            raise rejection[1]
        # A valid stream's edges are new and join existing nodes: no checks left.
        adj = g.adj
        adj.extend(set() for _ in range(cols.final_nodes - g.num_nodes))
        for u, v in zip(cols.center[cols.target_inc].tolist(), cols.target.tolist()):
            adj[u].add(v)
            adj[v].add(u)
        g.degrees = list(map(len, adj))
        g.edge_count += len(cols.target)
        return g
