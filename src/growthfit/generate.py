"""Growing synthetic networks from a time-varying attachment mixture.

Each increment draws its component first (by mixture weight) and then a
node from that component's normalized distribution over the eligible set,
which is exactly equivalent to drawing from the mixed distribution.  Node
draws use per-component strategies:

* uniform and linear-degree draws use O(1) rejection sampling (the latter
  from a maintained edge-endpoint list), retrying while the draw hits an
  excluded node, with an exact full-vector fallback after a retry cap;
* general degree-power and rank draws share one inverse-CDF sampler over
  a per-node weight vector (grown by doubling its capacity) with excluded
  entries zeroed;
* triangle-closure draws pick among the anchor's wedge endpoints, each
  second neighbor once per common neighbor (cost proportional to the
  anchor's neighborhood volume), and fall back to uniform when the anchor
  closes no wedge, mirroring the scorer's uniform fallback.

After each increment is applied to the graph, every sampler catches up by
reading the graph: the endpoint list appends the new edges, and the weight
vector grows to the new node count and recomputes the weights of the
center and the targets, the only nodes that are new or changed degree.

All randomness flows through one ``numpy.random.Generator`` (PCG64) created
from the caller's seed, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from .errors import GrowthStallError, ModelError
from .graph import DynamicGraph, GrowthStream, Increment, apply_increment, clique_graph
from .models import (
    BoundaryMode,
    Component,
    DegreePower,
    MixtureInterval,
    ModelSchedule,
    Random,
    RankPreference,
    TriangleClosure,
    degree_power_weight,
)
from .modelspec import parse_model_spec
from .stream import OperationSchedule

REJECT_CAP = 64
STALL_CAP = 1000


class _NodeSampler:
    """Draws nodes for one component kind over a (possibly growing) graph.

    The base class draws uniformly, which is the random component's sampler.
    """

    def __init__(self, graph: DynamicGraph, rng: np.random.Generator):
        self.graph = graph
        self.rng = rng

    def on_applied(self, inc: Increment) -> None:
        """Catch up with ``inc``, which the graph has just applied."""

    def _uniform(self, excluded: set[int]) -> int:
        n = self.graph.num_nodes
        if n - len(excluded) <= 0:
            raise GrowthStallError("no eligible node to draw")
        for _ in range(REJECT_CAP):
            x = int(self.rng.integers(n))
            if x not in excluded:
                return x
        eligible = [x for x in range(n) if x not in excluded]
        return int(eligible[self.rng.integers(len(eligible))])

    def _weighted(self, weights: np.ndarray, excluded: set[int]) -> int:
        """Inverse-CDF draw with excluded entries zeroed; uniform if their total is 0."""
        if excluded:
            weights = weights.copy()
            weights[list(excluded)] = 0.0
        cs = np.cumsum(weights)
        total = cs[-1] if len(cs) else 0.0
        if total <= 0.0:
            return self._uniform(excluded)
        return int(np.searchsorted(cs, self.rng.random() * total, side="right"))

    def sample(self, excluded: set[int], anchor: int | None, center_role: bool) -> int:
        return self._uniform(excluded)


class _EndpointListSampler(_NodeSampler):
    """Linear preferential attachment via the edge-endpoint multiset."""

    def __init__(self, graph, rng):
        super().__init__(graph, rng)
        self.endpoints = [x for edge in graph.edges() for x in edge]

    def on_applied(self, inc):
        for t in inc.targets:
            self.endpoints += (inc.center, t)

    def sample(self, excluded, anchor, center_role):
        if not self.endpoints:
            return self._uniform(excluded)
        for _ in range(REJECT_CAP):
            x = self.endpoints[int(self.rng.integers(len(self.endpoints)))]
            if x not in excluded:
                return x
        return self._weighted(np.asarray(self.graph.degrees, dtype=np.float64), excluded)


class _VectorSampler(_NodeSampler):
    """Per-node weight (degree power, rank) kept in a vector, inverse-CDF draws."""

    def __init__(self, graph, rng, weight: Callable[[int], float]):
        super().__init__(graph, rng)
        self.weight = weight
        # Weights of the graph's nodes first; the rest is spare capacity.
        self.weights = np.array([weight(v) for v in range(graph.num_nodes)], dtype=np.float64)

    def on_applied(self, inc):
        n = self.graph.num_nodes
        if n > len(self.weights):
            grown = np.empty(max(2 * n, 16))
            grown[: len(self.weights)] = self.weights
            self.weights = grown
        # Only the center and the targets changed degree or are new.
        for v in (inc.center, *inc.targets):
            self.weights[v] = self.weight(v)

    def sample(self, excluded, anchor, center_role):
        return self._weighted(self.weights[: self.graph.num_nodes], excluded)


class _WedgeSampler(_NodeSampler):
    """Triangle closure: weight = common-neighbor count with the anchor."""

    # Above this many excluded nodes, one sorted-set test beats a pass per node.
    ISIN_EXCLUDED = 8

    def sample(self, excluded, anchor, center_role):
        if center_role or anchor is None:
            # Uniform center pick / anchorless first leaf.
            return self._uniform(excluded)
        adj = self.graph.adj
        # Each 2-hop endpoint once per wedge: the count-weighted draw is a
        # uniform pick among them, made as the k-th smallest for the same
        # uniform that an inverse CDF over the sorted nodes would use.
        ends = np.fromiter(chain.from_iterable(adj[u] for u in adj[anchor]), dtype=np.int64)
        keep = ends != anchor
        if len(excluded) > self.ISIN_EXCLUDED:
            keep &= ~np.isin(ends, np.fromiter(excluded, dtype=np.int64, count=len(excluded)))
        else:
            for x in excluded:
                keep &= ends != x
        ends = ends[keep]
        if len(ends) == 0:
            return self._uniform(excluded)
        k = int(self.rng.random() * len(ends))
        return int(np.partition(ends, k)[k])


def _make_sampler(comp: Component, graph: DynamicGraph, rng) -> _NodeSampler:
    if isinstance(comp, Random):
        return _NodeSampler(graph, rng)
    if isinstance(comp, DegreePower):
        if comp.alpha == 1.0:
            return _EndpointListSampler(graph, rng)
        return _VectorSampler(
            graph, rng, lambda v: degree_power_weight(graph.degrees[v], comp.alpha)
        )
    if isinstance(comp, RankPreference):
        return _VectorSampler(graph, rng, lambda v: float(v + 1) ** -comp.alpha)
    if isinstance(comp, TriangleClosure):
        return _WedgeSampler(graph, rng)
    raise ModelError(f"no sampler for {comp!r}")


class MixtureSampler:
    """Component-first node draws for a whole schedule over a growing graph."""

    def __init__(self, graph: DynamicGraph, schedule: ModelSchedule, rng: np.random.Generator):
        self.graph = graph
        self.schedule = schedule
        self.rng = rng
        unique = dict.fromkeys(c for interval in schedule.intervals for c in interval.components)
        self._samplers = {comp: _make_sampler(comp, graph, rng) for comp in unique}

    def on_applied(self, inc: Increment) -> None:
        """Catch every component's sampler up with ``inc``, just applied to the graph."""
        for s in self._samplers.values():
            s.on_applied(inc)

    def draw(
        self,
        interval: MixtureInterval,
        excluded: set[int],
        anchor: int | None,
        center_role: bool = False,
    ) -> int:
        weights = interval.weights
        u = self.rng.random()
        acc = 0.0
        comp = interval.components[-1]
        for w, c in zip(weights, interval.components):
            acc += w
            if u < acc:
                comp = c
                break
        return self._samplers[comp].sample(excluded, anchor, center_role)


@dataclass
class GrowthRecipe:
    """Declarative description of a growth run.

    ``intervals`` maps mixture specs to inclusive upper boundaries (the last
    boundary must be None).  Timestamps equal increment indices, so index
    and timestamp boundaries coincide.  Each increment is an internal star
    (existing center) with probability ``internal_prob``, else an external
    star bringing one new node that connects to ``new_targets`` existing
    nodes.
    """

    intervals: list[tuple[str, float | None]]
    increments: int = 1000
    new_targets: int = 3
    internal_prob: float = 0.0
    internal_targets: int = 2
    seed_clique: int = 0  # 0 means new_targets + 1
    boundary_mode: str = "index"

    def schedule(self) -> ModelSchedule:
        mixtures = tuple(parse_model_spec(spec) for spec, _ in self.intervals)
        bounds = [b for _, b in self.intervals]
        if bounds[-1] is not None or any(b is None for b in bounds[:-1]):
            raise ModelError("every interval except the last needs an upper boundary")
        mode = BoundaryMode.INDEX if self.boundary_mode == "index" else BoundaryMode.TIMESTAMP
        return ModelSchedule(mixtures, tuple(float(b) for b in bounds[:-1]), mode)

    def seed_size(self) -> int:
        return self.seed_clique if self.seed_clique > 0 else self.new_targets + 1

    def to_json(self) -> str:
        return json.dumps(
            {
                "intervals": [{"model": m, "until": b} for m, b in self.intervals],
                "increments": self.increments,
                "new_targets": self.new_targets,
                "internal_prob": self.internal_prob,
                "internal_targets": self.internal_targets,
                "seed_clique": self.seed_clique,
                "boundary_mode": self.boundary_mode,
            },
            indent=2,
        )

    @staticmethod
    def from_json(text: str) -> "GrowthRecipe":
        raw = json.loads(text)
        return GrowthRecipe(
            intervals=[(iv["model"], iv.get("until")) for iv in raw["intervals"]],
            increments=int(raw.get("increments", 1000)),
            new_targets=int(raw.get("new_targets", 3)),
            internal_prob=float(raw.get("internal_prob", 0.0)),
            internal_targets=int(raw.get("internal_targets", 2)),
            seed_clique=int(raw.get("seed_clique", 0)),
            boundary_mode=raw.get("boundary_mode", "index"),
        )

    @staticmethod
    def constant(model_spec: str, **kwargs) -> "GrowthRecipe":
        return GrowthRecipe(intervals=[(model_spec, None)], **kwargs)

    @staticmethod
    def two_phase(spec_pre: str, spec_post: str, switch: float, **kwargs) -> "GrowthRecipe":
        return GrowthRecipe(intervals=[(spec_pre, switch), (spec_post, None)], **kwargs)


def _draw_targets(
    sampler: MixtureSampler,
    interval: MixtureInterval,
    count: int,
    base_excluded: set[int],
    anchor: int | None,
) -> list[int]:
    """Without-replacement target draws; anchor locks to the first draw if unset."""
    chosen: list[int] = []
    excluded = set(base_excluded)
    for _ in range(count):
        x = sampler.draw(interval, excluded, anchor)
        chosen.append(x)
        excluded.add(x)
        if anchor is None:
            anchor = x
    return chosen


def _internal_star_feasible(graph: DynamicGraph, n_existing: int) -> bool:
    """True if at least one node has ``n_existing`` non-neighbors to link."""
    n = graph.num_nodes
    return any(n - 1 - k >= n_existing for k in graph.degrees)


def grow(
    recipe: GrowthRecipe,
    seed: int = 0,
    op_schedule: OperationSchedule | None = None,
) -> GrowthStream:
    """Run a growth recipe and return the resulting star stream.

    With ``op_schedule`` the star shapes and timestamps replay the given
    schedule (recipe shape fields are ignored); the attachment mechanism
    still comes from the recipe.  An internal star that no node can host
    (for instance while the graph is still the seed clique) becomes an
    external star; a feasible one re-draws its center up to a cap and then
    raises.  Replayed schedules keep their exact shapes and may raise.
    """
    rng = np.random.default_rng(seed)
    schedule = recipe.schedule()
    graph = clique_graph(recipe.seed_size())
    seed_edges = list(graph.edges())
    sampler = MixtureSampler(graph, schedule, rng)
    increments: list[Increment] = []

    if op_schedule is not None:
        shapes = [
            (row.timestamp, row.center_new, row.new_targets, row.existing_targets)
            for row in op_schedule.rows
        ]
    else:
        shapes = None

    count = recipe.increments if shapes is None else len(shapes)
    for index in range(count):
        if shapes is None:
            timestamp = index
            internal = (
                recipe.internal_prob > 0.0 and rng.random() < recipe.internal_prob
            )
            if internal and not _internal_star_feasible(graph, recipe.internal_targets):
                # No node has enough non-neighbors (e.g. the graph is still
                # the seed clique), so fall back to an external star rather
                # than stalling on center redraws that can never succeed.
                internal = False
            center_new = not internal
            n_new_targets = 0
            n_existing = recipe.internal_targets if internal else recipe.new_targets
        else:
            timestamp, center_new, n_new_targets, n_existing = shapes[index]
        interval = schedule.interval_at(timestamp, index)
        n = graph.num_nodes

        if center_new:
            if n_existing > n:
                raise GrowthStallError(
                    f"star wants {n_existing} existing targets, graph has {n} nodes"
                )
            center = n
            existing = _draw_targets(sampler, interval, n_existing, set(), None)
        else:
            center = None
            for _ in range(STALL_CAP):
                cand = sampler.draw(interval, set(), None, center_role=True)
                if n - 1 - graph.degrees[cand] >= n_existing:
                    center = cand
                    break
            if center is None:
                raise GrowthStallError(
                    f"no center with {n_existing} eligible targets after {STALL_CAP} draws"
                )
            base = {center, *graph.neighbors(center)}
            existing = _draw_targets(sampler, interval, n_existing, base, center)

        next_id = n + (1 if center_new else 0)
        new_targets = list(range(next_id, next_id + n_new_targets))
        targets = tuple(existing) + tuple(new_targets)
        targets_new = (False,) * len(existing) + (True,) * len(new_targets)
        inc = Increment(timestamp, center, center_new, targets, targets_new)
        apply_increment(graph, inc)
        sampler.on_applied(inc)
        increments.append(inc)

    return GrowthStream(seed_edges=seed_edges, increments=increments, labels=None)


def sample_choice_frequencies(
    graph: DynamicGraph,
    model,
    draws: int,
    seed: int = 0,
    anchor: int | None = None,
    center_role: bool = False,
    excluded: set[int] | None = None,
) -> np.ndarray:
    """Empirical counts of repeated single-node draws on a frozen graph.

    Exercises the same sampling machinery as growth, so comparing against
    the model's probability vector is an end-to-end check of the sampler.
    """
    interval = model if isinstance(model, MixtureInterval) else MixtureInterval.single(model)
    schedule = ModelSchedule.constant(interval)
    rng = np.random.default_rng(seed)
    sampler = MixtureSampler(graph, schedule, rng)
    excluded = excluded or set()
    counts = np.zeros(graph.num_nodes, dtype=np.int64)
    for _ in range(draws):
        counts[sampler.draw(interval, excluded, anchor, center_role)] += 1
    return counts
