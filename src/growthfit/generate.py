"""Growing synthetic networks from a time-varying attachment mixture.

Each increment draws its component first (by mixture weight) and then a
node from that component's normalized distribution over the eligible set,
which is exactly equivalent to drawing from the mixed distribution.  Node
draws use per-component strategies:

* uniform and linear-degree draws use O(1) rejection sampling (the latter
  from a maintained edge-endpoint list), retrying while the draw hits an
  excluded node, with an exact full-vector fallback after a retry cap;
* general degree-power and rank draws use inverse-CDF sampling over a
  maintained weight vector with excluded entries zeroed;
* triangle-closure draws enumerate second-neighbor counts of the anchor in
  sorted order (cost proportional to the anchor's neighborhood volume) and
  fall back to uniform when the anchor closes no wedge, mirroring the
  scorer's uniform fallback.

All randomness flows through one ``numpy.random.Generator`` (PCG64) created
from the caller's seed, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
)
from .modelspec import parse_model_spec
from .stream import OperationSchedule

REJECT_CAP = 64
STALL_CAP = 1000


class _NodeSampler:
    """Draws nodes for one component kind over a (possibly growing) graph."""

    def __init__(self, graph: DynamicGraph, rng: np.random.Generator):
        self.graph = graph
        self.rng = rng

    def on_node_added(self) -> None:
        pass

    def on_edge_added(self, u: int, v: int, ku_before: int, kv_before: int) -> None:
        pass

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

    def _weighted_vector(self, weights: np.ndarray, excluded: set[int]) -> int | None:
        """Inverse-CDF draw with excluded entries zeroed; None if total is 0."""
        if excluded:
            weights = weights.copy()
            weights[list(excluded)] = 0.0
        cs = np.cumsum(weights)
        total = cs[-1] if len(cs) else 0.0
        if total <= 0.0:
            return None
        return int(np.searchsorted(cs, self.rng.random() * total, side="right"))

    def sample(self, excluded: set[int], anchor: int | None, center_role: bool) -> int:
        raise NotImplementedError


class _UniformSampler(_NodeSampler):
    def sample(self, excluded, anchor, center_role):
        return self._uniform(excluded)


class _EndpointListSampler(_NodeSampler):
    """Linear preferential attachment via the edge-endpoint multiset."""

    def __init__(self, graph, rng):
        super().__init__(graph, rng)
        self.endpoints: list[int] = []
        for u, v in graph.edges():
            self.endpoints.append(u)
            self.endpoints.append(v)

    def on_edge_added(self, u, v, ku_before, kv_before):
        self.endpoints.append(u)
        self.endpoints.append(v)

    def sample(self, excluded, anchor, center_role):
        if not self.endpoints:
            return self._uniform(excluded)
        for _ in range(REJECT_CAP):
            x = self.endpoints[int(self.rng.integers(len(self.endpoints)))]
            if x not in excluded:
                return x
        degs = np.asarray(self.graph.degrees, dtype=np.float64)
        x = self._weighted_vector(degs, excluded)
        return self._uniform(excluded) if x is None else x


class _PowerVectorSampler(_NodeSampler):
    """General degree power: maintained k^alpha vector, inverse-CDF draws."""

    def __init__(self, graph, rng, alpha: float):
        super().__init__(graph, rng)
        self.alpha = alpha
        self._table: list[float] = [1.0 if alpha == 0.0 else 0.0, 1.0]
        self.weights = np.array(
            [self._w(k) for k in graph.degrees], dtype=np.float64
        )

    def _w(self, k: int) -> float:
        while k >= len(self._table):
            self._table.append(float(len(self._table)) ** self.alpha)
        return self._table[k]

    def on_node_added(self):
        self.weights = np.append(self.weights, self._w(0))

    def on_edge_added(self, u, v, ku_before, kv_before):
        self.weights[u] = self._w(ku_before + 1)
        self.weights[v] = self._w(kv_before + 1)

    def sample(self, excluded, anchor, center_role):
        x = self._weighted_vector(self.weights[: self.graph.num_nodes], excluded)
        return self._uniform(excluded) if x is None else x


class _RankVectorSampler(_NodeSampler):
    def __init__(self, graph, rng, alpha: float):
        super().__init__(graph, rng)
        self.alpha = alpha
        self.weights = (np.arange(graph.num_nodes, dtype=np.float64) + 1.0) ** -alpha

    def on_node_added(self):
        self.weights = np.append(self.weights, float(len(self.weights) + 1) ** -self.alpha)

    def sample(self, excluded, anchor, center_role):
        x = self._weighted_vector(self.weights, excluded)
        return self._uniform(excluded) if x is None else x


class _WedgeSampler(_NodeSampler):
    """Triangle closure: weight = common-neighbor count with the anchor."""

    def sample(self, excluded, anchor, center_role):
        if center_role or anchor is None:
            # Uniform center pick / anchorless first leaf.
            return self._uniform(excluded)
        counts: dict[int, int] = {}
        g = self.graph
        for u in g.neighbors(anchor):
            for x in g.neighbors(u):
                if x != anchor and x not in excluded:
                    counts[x] = counts.get(x, 0) + 1
        if not counts:
            return self._uniform(excluded)
        nodes = sorted(counts)
        cs = np.cumsum([counts[x] for x in nodes])
        return int(nodes[np.searchsorted(cs, self.rng.random() * cs[-1], side="right")])


def _make_sampler(comp: Component, graph: DynamicGraph, rng) -> _NodeSampler:
    if isinstance(comp, Random):
        return _UniformSampler(graph, rng)
    if isinstance(comp, DegreePower):
        if comp.alpha == 1.0:
            return _EndpointListSampler(graph, rng)
        return _PowerVectorSampler(graph, rng, comp.alpha)
    if isinstance(comp, RankPreference):
        return _RankVectorSampler(graph, rng, comp.alpha)
    if isinstance(comp, TriangleClosure):
        return _WedgeSampler(graph, rng)
    raise ModelError(f"no sampler for {comp!r}")


class MixtureSampler:
    """Component-first node draws for a whole schedule over a growing graph."""

    def __init__(self, graph: DynamicGraph, schedule: ModelSchedule, rng: np.random.Generator):
        self.graph = graph
        self.schedule = schedule
        self.rng = rng
        unique: list[Component] = []
        for interval in schedule.intervals:
            for comp in interval.components:
                if comp not in unique:
                    unique.append(comp)
        self._samplers = {comp: _make_sampler(comp, graph, rng) for comp in unique}

    def notify_applied(self, inc: Increment, pre_degrees: dict[int, int]) -> None:
        for _ in inc.new_nodes:
            for s in self._samplers.values():
                s.on_node_added()
        kc = pre_degrees[inc.center]
        for t in inc.targets:
            for s in self._samplers.values():
                s.on_edge_added(inc.center, t, kc, pre_degrees[t])
            kc += 1

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
        pre = {center: 0 if center_new else graph.degrees[center]}
        for t, is_new in zip(targets, targets_new):
            pre[t] = 0 if is_new else graph.degrees[t]
        apply_increment(graph, inc)
        sampler.notify_applied(inc, pre)
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
