"""Structural statistics of a growing graph, sampled along the replay.

Per-node triangle counts are maintained incrementally: adding edge (u, v)
creates one triangle at u, one at v, and one at each common neighbor, so an
O(min-degree) update per edge keeps average clustering cheap at any number
of checkpoints.  Degree assortativity is the Pearson correlation of end
degrees over both orientations of every edge; on a degree-regular graph the
variance is zero and the value is reported as undefined (None) rather than
NaN.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from .graph import DynamicGraph, GrowthStream

STAT_FIELDS = (
    "increments",
    "timestamp",
    "nodes",
    "edges",
    "mean_degree",
    "mean_sq_degree",
    "max_degree",
    "triangles",
    "clustering",
    "assortativity",
)


@dataclass
class StatRow:
    """One checkpoint of the growth statistics series."""

    increments: int
    timestamp: int | None
    nodes: int
    edges: int
    mean_degree: float
    mean_sq_degree: float
    max_degree: int
    triangles: int
    clustering: float
    assortativity: float | None

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in STAT_FIELDS}


class _TriangleTracker:
    """Graph replay wrapper that keeps per-node triangle counts current."""

    def __init__(self):
        self.graph = DynamicGraph()
        self.tri: list[int] = []
        # Both ends of every edge, in insertion order: (u0, v0, u1, v1, ...).
        self.ends: list[int] = []

    def add_node(self) -> int:
        self.tri.append(0)
        return self.graph.add_node()

    def add_edge(self, u: int, v: int) -> None:
        g = self.graph
        a, b = g.adj[u], g.adj[v]
        if len(b) < len(a):
            a, b = b, a
        common = [w for w in a if w in b]
        g.add_edge(u, v)
        self.tri[u] += len(common)
        self.tri[v] += len(common)
        for w in common:
            self.tri[w] += 1
        self.ends += (u, v)


def _assortativity(degs: np.ndarray, ends: list[int]) -> float | None:
    if not ends:
        return None
    # Each edge in both orientations: xs holds the end degrees pair by pair,
    # ys the same pairs swapped.
    xs = degs[np.asarray(ends)]
    ys = xs.reshape(-1, 2)[:, ::-1].ravel()
    vx = xs.var()
    if vx <= 0.0:
        return None
    return float(((xs - xs.mean()) * (ys - ys.mean())).mean() / vx)


def _snapshot(tracker: _TriangleTracker, increments: int, timestamp: int | None) -> StatRow:
    g = tracker.graph
    degs = np.asarray(g.degrees, dtype=np.float64)
    n = g.num_nodes
    local = [
        2.0 * t / (k * (k - 1.0)) if k >= 2 else 0.0
        for t, k in zip(tracker.tri, g.degrees)
    ]
    return StatRow(
        increments=increments,
        timestamp=timestamp,
        nodes=n,
        edges=g.edge_count,
        mean_degree=float(degs.mean()) if n else 0.0,
        mean_sq_degree=float((degs**2).mean()) if n else 0.0,
        max_degree=int(degs.max()) if n else 0,
        triangles=sum(tracker.tri) // 3,
        clustering=float(np.mean(local)) if n else 0.0,
        assortativity=_assortativity(degs, tracker.ends),
    )


def default_checkpoints(total: int, count: int = 10) -> list[int]:
    """Evenly spaced increment counts, always ending at the full stream."""
    if total <= 0:
        return [0]
    count = max(1, min(count, total))
    marks = sorted({round(total * k / count) for k in range(1, count + 1)})
    return [m for m in marks if m > 0]


def stats_series(stream: GrowthStream, checkpoints: list[int] | None = None) -> list[StatRow]:
    """Replay a stream and snapshot statistics at the given increment counts."""
    if checkpoints is None:
        checkpoints = default_checkpoints(len(stream.increments))
    wanted = sorted(set(checkpoints))
    tracker = _TriangleTracker()
    seed = stream.seed_graph()
    for _ in range(seed.num_nodes):
        tracker.add_node()
    for u, v in seed.edges():
        tracker.add_edge(u, v)
    rows: list[StatRow] = []
    if wanted and wanted[0] == 0:
        rows.append(_snapshot(tracker, 0, None))
        wanted = wanted[1:]
    pos = 0
    for index, inc in enumerate(stream.increments):
        for _ in inc.new_nodes:
            tracker.add_node()
        for t in inc.targets:
            tracker.add_edge(inc.center, t)
        if pos < len(wanted) and index + 1 == wanted[pos]:
            rows.append(_snapshot(tracker, index + 1, inc.timestamp))
            pos += 1
    return rows


def graph_stats(graph: DynamicGraph) -> StatRow:
    """Statistics of a static graph (replays its edge list once)."""
    tracker = _TriangleTracker()
    for _ in range(graph.num_nodes):
        tracker.add_node()
    for u, v in graph.edges():
        tracker.add_edge(u, v)
    return _snapshot(tracker, 0, None)


def write_stats_csv(path, rows: list[StatRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=STAT_FIELDS)
        writer.writeheader()
        for row in rows:
            record = row.to_dict()
            if record["assortativity"] is None:
                record["assortativity"] = "undefined"
            if record["timestamp"] is None:
                record["timestamp"] = ""
            writer.writerow(record)


@dataclass
class AggregateCell:
    """Mean and symmetric 95% confidence half-width across runs."""

    mean: float | None
    half_width: float | None
    runs: int


def aggregate_series(
    runs: list[list[StatRow]], fields: tuple[str, ...] = ("clustering", "assortativity")
) -> list[dict[str, AggregateCell]]:
    """Combine per-run series checkpoint by checkpoint (t-based 95% CI).

    Undefined values are dropped per cell; a cell with no defined values
    aggregates to an undefined mean.
    """
    if not runs:
        return []
    length = min(len(series) for series in runs)
    out: list[dict[str, AggregateCell]] = []
    for i in range(length):
        cell: dict[str, AggregateCell] = {}
        for name in fields:
            values = [
                getattr(series[i], name)
                for series in runs
                if getattr(series[i], name) is not None
            ]
            if not values:
                cell[name] = AggregateCell(None, None, 0)
                continue
            arr = np.asarray(values, dtype=np.float64)
            mean = float(arr.mean())
            if len(arr) < 2:
                cell[name] = AggregateCell(mean, None, len(arr))
                continue
            sem = float(arr.std(ddof=1) / math.sqrt(len(arr)))
            tcrit = float(sps.t.ppf(0.975, len(arr) - 1))
            cell[name] = AggregateCell(mean, tcrit * sem, len(arr))
        out.append(cell)
    return out
