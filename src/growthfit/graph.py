"""Evolving simple undirected graph grown by star-shaped increments.

Nodes are dense integer indices assigned in arrival order, so the arrival
rank of node ``i`` is ``i + 1``.  Mapping between dataset string ids and
dense indices happens at the ingestion boundary (see ``stream``), never
here.  Nodes and edges are permanent: there is no removal API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import RejectedIncrementError, UnknownNodeError


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
            raise ValueError("targets and targets_new lengths differ")
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

    def degree(self, u: int) -> int:
        return self.degrees[u]

    def neighbors(self, u: int) -> set[int]:
        return self.adj[u]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < len(self.adj) and v in self.adj[u]

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

    def copy(self) -> "DynamicGraph":
        g = DynamicGraph()
        g.adj = [set(s) for s in self.adj]
        g.degrees = list(self.degrees)
        g.edge_count = self.edge_count
        return g

    def check_invariants(self) -> None:
        """Assert handshake symmetry and the degree sum identity (test hook)."""
        total = 0
        for u, nbrs in enumerate(self.adj):
            assert self.degrees[u] == len(nbrs)
            total += len(nbrs)
            for v in nbrs:
                assert v != u and u in self.adj[v]
        assert total == 2 * self.edge_count


def check_increment(graph: DynamicGraph, inc: Increment) -> int:
    """Raise unless ``inc`` applies to ``graph``; return the node count after it.

    New-tagged references must carry the indices they will receive (center
    first, then new targets in list order); existing-tagged references must
    resolve to current nodes and must not duplicate an edge.
    """
    n = graph.num_nodes
    next_id = n
    if inc.center_is_new:
        if inc.center != next_id:
            raise UnknownNodeError(
                f"new center id {inc.center} does not match next arrival index {next_id}"
            )
        next_id += 1
    elif not 0 <= inc.center < n:
        raise UnknownNodeError(f"existing-tagged center {inc.center} not in graph of {n} nodes")
    for t, new in zip(inc.targets, inc.targets_new):
        if new:
            if t != next_id:
                raise UnknownNodeError(
                    f"new target id {t} does not match next arrival index {next_id}"
                )
            next_id += 1
        else:
            if not 0 <= t < n:
                raise UnknownNodeError(f"existing-tagged target {t} not in graph of {n} nodes")
            if not inc.center_is_new and graph.has_edge(inc.center, t):
                raise RejectedIncrementError(
                    f"edge ({inc.center}, {t}) already present at t={inc.timestamp}"
                )
    return next_id


def apply_increment(graph: DynamicGraph, inc: Increment) -> DynamicGraph:
    """Apply one star increment in place and return the graph (see ``check_increment``)."""
    for _ in range(check_increment(graph, inc) - graph.num_nodes):
        graph.add_node()
    for t in inc.targets:
        graph.add_edge(inc.center, t)
    return graph


def snapshot_degrees(graph: DynamicGraph) -> list[int]:
    """Degree sequence indexed by arrival order (read-only copy)."""
    return list(graph.degrees)


def graph_from_edges(edges, num_nodes: int | None = None) -> DynamicGraph:
    """Build a graph from (u, v) pairs over dense indices (test/seed helper).

    Nodes 0..max_index are created in index order; ``num_nodes`` may pad
    trailing isolated nodes.
    """
    g = DynamicGraph()
    edges = list(edges)
    top = max((max(u, v) for u, v in edges), default=-1) + 1
    for _ in range(max(top, num_nodes or 0)):
        g.add_node()
    for u, v in edges:
        g.add_edge(u, v)
    return g


def clique_graph(n: int) -> DynamicGraph:
    """Complete graph on n nodes, the default generator seed."""
    return graph_from_edges([(i, j) for i in range(n) for j in range(i + 1, n)])


@dataclass
class GrowthStream:
    """A seed graph plus the increment sequence observed after it.

    ``labels`` maps dense node index to the original dataset id; synthetic
    streams leave it None and print indices directly.
    """

    seed_edges: list[tuple[int, int]] = field(default_factory=list)
    increments: list[Increment] = field(default_factory=list)
    labels: list[str] | None = None

    def seed_graph(self) -> DynamicGraph:
        return graph_from_edges(self.seed_edges)

    def label(self, node: int) -> str:
        return self.labels[node] if self.labels is not None else str(node)

    def final_graph(self) -> DynamicGraph:
        g = self.seed_graph()
        for inc in self.increments:
            apply_increment(g, inc)
        return g
