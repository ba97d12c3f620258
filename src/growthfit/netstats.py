"""Structural statistics of a growing graph at chosen increment counts.

Statistics are read from the stream's edge-event table (``events``), not
from a replay: at checkpoint c a node's degree and triangles are those
before increment c, and the edges are those of events 0..c.  Clustering is
the mean local clustering, counting nodes of degree < 2 as 0.  Degree
assortativity is the Pearson correlation of end degrees over both
orientations of every edge; on a degree-regular graph the variance is zero
and the value is reported as undefined (None) rather than NaN.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CheckpointError
from .events import EdgeEvents, StreamColumns, first_rejection, graph_ends
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


def _assortativity(degs: np.ndarray, ends: np.ndarray) -> float | None:
    if not len(ends):
        return None
    # Each edge in both orientations: xs holds the end degrees pair by pair,
    # ys the same pairs swapped.
    xs = degs[ends]
    ys = xs.reshape(-1, 2)[:, ::-1].ravel()
    vx = xs.var()
    if vx <= 0.0:
        return None
    return float(((xs - xs.mean()) * (ys - ys.mean())).mean() / vx)


def _stats_rows(graph: DynamicGraph, cols: StreamColumns, checkpoints: list[int]) -> list[StatRow]:
    """Statistics after each (ascending) count of the increments ``cols`` applied to ``graph``.

    The lowest increment the graph cannot take raises its ``first_rejection`` error.
    """
    seed_node, seed_nbr = graph_ends(graph)
    rejection = first_rejection(cols, seed_node, seed_nbr)
    if rejection is not None:
        raise rejection[1]
    events = EdgeEvents(seed_node, seed_nbr, cols)
    rows: list[StatRow] = []
    # The last checkpoint sees the most edges: asked first, it builds the
    # one triangle table that every earlier checkpoint reads.
    for c in reversed(checkpoints):
        n = int(cols.node_offsets[c])
        nodes, at = np.arange(n), np.full(n, c)
        degree = events.degree_before(nodes, at)
        triangles = events.triangles_before(nodes, at)
        degs = degree.astype(np.float64)
        local = np.divide(2.0 * triangles, degs * (degs - 1.0), out=np.zeros(n), where=degree >= 2)
        # Edges are numbered in event order, so those present at c are a prefix.
        m = int(np.searchsorted(events.edge_event, c, side="right"))
        ends = np.column_stack((events.edge_u[:m], events.edge_v[:m])).ravel()
        rows.append(
            StatRow(
                increments=c,
                timestamp=int(cols.timestamp[c - 1]) if c else None,
                nodes=n,
                edges=m,
                mean_degree=float(degs.mean()) if n else 0.0,
                mean_sq_degree=float((degs**2).mean()) if n else 0.0,
                max_degree=int(degree.max()) if n else 0,
                triangles=int(triangles.sum()) // 3,
                clustering=float(local.mean()) if n else 0.0,
                assortativity=_assortativity(degs, ends),
            )
        )
    return rows[::-1]


def default_checkpoints(total: int, count: int = 10) -> list[int]:
    """Evenly spaced increment counts, always ending at the full stream."""
    if total <= 0:
        return [0]
    count = max(1, min(count, total))
    marks = sorted({round(total * k / count) for k in range(1, count + 1)})
    return [m for m in marks if m > 0]


def stats_series(stream: GrowthStream, checkpoints: list[int] | None = None) -> list[StatRow]:
    """Statistics of the graph after each given number of increments, in ascending order.

    Checkpoint 0 is the seed graph; every checkpoint must lie in
    [0, the stream's increment count].  An invalid stream raises the error
    that ``score_stream`` raises on it.
    """
    total = stream.columns.num_increments
    if checkpoints is None:
        checkpoints = default_checkpoints(total)
    for c in checkpoints:
        if not 0 <= c <= total:
            raise CheckpointError(
                f"checkpoint {c} is outside [0, {total}] for a stream of {total} increments"
            )
    wanted = sorted({int(c) for c in checkpoints})
    return _stats_rows(stream.seed_graph(), stream.columns, wanted)


def graph_stats(graph: DynamicGraph) -> StatRow:
    """Statistics of a static graph."""
    return _stats_rows(graph, StreamColumns.of([], graph.num_nodes), [0])[0]


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


def _t_central(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with df degrees of freedom and t >= 0.

    Abramowitz & Stegun 26.7.3-4, with θ = atan(t/√df) and c = cos²θ:

    - odd df: (2/π)·(θ + sinθ·cosθ·Σ_{j<(df−1)/2} b_j·c^j),
      b_0 = 1, b_j = b_{j−1}·2j/(2j+1); for df = 1 this is (2/π)·θ;
    - even df: sinθ·Σ_{j<df/2} a_j·c^j, a_0 = 1, a_j = a_{j−1}·(2j−1)/(2j).
    """
    cos2 = df / (df + t * t)
    sin = t / math.sqrt(df + t * t)
    total = term = 1.0
    if df % 2 == 0:
        for j in range(1, df // 2):
            term *= cos2 * (2 * j - 1) / (2 * j)
            total += term
        return sin * total
    for j in range(1, (df - 1) // 2):
        term *= cos2 * (2 * j) / (2 * j + 1)
        total += term
    theta = math.atan(t / math.sqrt(df))
    if df == 1:
        return 2.0 / math.pi * theta
    return 2.0 / math.pi * (theta + sin * math.sqrt(cos2) * total)


@lru_cache(maxsize=None)
def t_quantile(prob: float, df: int) -> float:
    """Upper quantile (0.5 < prob < 1) of Student's t with integer df >= 1.

    Bisects the closed-form CDF (``_t_central``, A&S 26.7.3-4) down to two
    adjacent doubles and returns the upper one.  Each CDF evaluation costs
    O(df); results are cached per (prob, df).
    """
    if not 0.5 < prob < 1.0 or df < 1:
        raise ValueError(f"need 0.5 < prob < 1 and df >= 1, got prob {prob}, df {df}")
    target = 2.0 * prob - 1.0
    lo, hi = 0.0, 1.0
    while _t_central(hi, df) < target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if _t_central(mid, df) < target:
            lo = mid
        else:
            hi = mid


def _check_aligned(runs: list[list[StatRow]]) -> None:
    """Raise unless every run has the checkpoints of the first, in order."""
    first = [row.increments for row in runs[0]]
    for r, series in enumerate(runs[1:], start=1):
        for i, (row, increments) in enumerate(zip(series, first)):
            if row.increments != increments:
                raise CheckpointError(
                    f"run {r} is at {row.increments} increments at position {i}, "
                    f"run 0 at {increments}; runs must share their checkpoints"
                )
        if len(series) != len(first):
            raise CheckpointError(
                f"run {r} has {len(series)} checkpoints and run 0 has {len(first)}; "
                f"they differ from position {min(len(series), len(first))} on"
            )


def aggregate_series(
    runs: list[list[StatRow]], fields: tuple[str, ...] = ("clustering", "assortativity")
) -> list[dict[str, AggregateCell]]:
    """Combine per-run series checkpoint by checkpoint (t-based 95% CI).

    Every run must have the same checkpoints (``increments``) in the same
    order; otherwise ``CheckpointError`` names the first position where they
    differ.  Undefined values are dropped per cell; a cell with no defined
    values aggregates to an undefined mean.
    """
    if not runs:
        return []
    _check_aligned(runs)
    out: list[dict[str, AggregateCell]] = []
    for i in range(len(runs[0])):
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
            tcrit = t_quantile(0.975, len(arr) - 1)
            cell[name] = AggregateCell(mean, tcrit * sem, len(arr))
        out.append(cell)
    return out
