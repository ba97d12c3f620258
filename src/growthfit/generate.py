"""Growing synthetic networks from a time-varying attachment mixture.

Each increment draws its component first (by mixture weight) and then a
node from that component's normalized distribution over the eligible set,
which is exactly equivalent to drawing from the mixed distribution.  Node
draws use per-component strategies:

* uniform and linear-degree draws use O(1) rejection sampling (the latter
  from a maintained edge-endpoint list), retrying while the draw hits an
  excluded node, with an exact full-vector fallback after a retry cap;
* general degree-power and rank draws share one sampler over a Fenwick tree
  of per-node weights: a draw descends the tree in O(log n), subtracting
  the excluded nodes' mass on its way, and falls back to uniform when no
  eligible node has positive weight;
* triangle-closure draws pick among the anchor's wedge endpoints, each
  second neighbor once per common neighbor, gathered with one numpy index
  over per-node neighbour blocks (so the Python cost does not grow with
  the anchor's neighborhood volume), and fall back to uniform when the
  anchor closes no wedge, mirroring the scorer's uniform fallback.

A run keeps one graph state, the degrees and those blocks, and writes each
edge end into it once.  ``grow`` does not validate the increments it builds
again; input from outside is validated where it enters (ingest, the replay,
``GrowthStream.final_graph``).  The run logs its increments in typed
arrays, and a component's sampler reads the ones it has not seen from that
log right before its next draw: the endpoint list appends the new edges,
and the weight tree grows to the new node count and updates the weights of
the centers and the targets, the only nodes that are new or changed
degree.  A component that the current interval does not draw from
pays nothing per increment.

All randomness flows through one ``numpy.random.Generator`` (PCG64) created
from the caller's seed, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass, fields
from itertools import chain
from typing import Callable, Iterable

import numpy as np

from .errors import (
    GrowthStallError,
    ModelError,
    UnknownNodeError,
    json_fields,
    json_int,
    json_number,
    json_object_fields,
    json_string,
)
from .events import StreamColumns
from .graph import DynamicGraph, GrowthStream, seed_nodes
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


# Above this many nodes, a star's fixed exclusion base is sorted once per
# star in numpy (see ``_Excluded``); smaller ones are handled per draw in Python.
SORTED_BASE = 8


class _Excluded(set):
    """A star's excluded nodes when its fixed base is large: the base plus ``chosen``.

    The base does not change during the star, so samplers prepare it once
    and add only the few chosen targets on each draw.  Smaller exclusions
    are plain sets.
    """

    __slots__ = ("chosen", "_sorted_base")

    def __init__(self, base: Iterable[int], chosen: list[int]):
        super().__init__(base)
        self.chosen = chosen
        self._sorted_base: np.ndarray | None = None

    def sorted_base(self) -> np.ndarray:
        """The base, every excluded node not chosen, as a sorted int64 array."""
        if self._sorted_base is None:
            base = np.fromiter(self, dtype=np.int64, count=len(self))
            for x in self.chosen:
                base = base[base != x]
            base.sort()
            self._sorted_base = base
        return self._sorted_base


class _GraphState:
    """The one graph a growth run updates: degrees and pooled neighbour blocks.

    Each node's neighbours fill an append-only block of one int64 pool that
    begins at ``start``; a full block moves to the pool's end with twice the
    room.  ``size`` mirrors the degrees as an array for the wedge gathers.
    The applied increments are logged in typed arrays: each increment's
    center and then its targets in ``ends``, their new-node flags in
    ``ends_new``, and the start of increment k's entries in ``bounds[k]``.
    The samplers catch up from this log, and ``stream`` turns it into the
    grown stream's columns.
    """

    def __init__(self, num_nodes: int, edges: Iterable[tuple[int, int]]):
        self.seed_edges = list(edges)
        self.timestamp = array("q")
        self.ends = array("q")
        self.ends_new = array("b")
        self.bounds = array("q", [0])
        self.degrees: list[int] = []
        self.room: list[int] = []
        self.pool = np.empty(64, dtype=np.int64)
        self.used = 0
        self.start = np.zeros(16, dtype=np.int64)
        self.size = np.zeros(16, dtype=np.int64)
        self._add_nodes(num_nodes)
        for u, v in self.seed_edges:
            self._extend(u, (v,))
            self._extend(v, (u,))

    @property
    def num_nodes(self) -> int:
        return len(self.degrees)

    @property
    def num_increments(self) -> int:
        return len(self.timestamp)

    def stream(self) -> GrowthStream:
        """The seed edges and every applied increment, as a stream."""
        # Views of the log: only the copies that indexing makes outlive this call.
        ends = np.frombuffer(self.ends, dtype=np.int64)
        new = np.frombuffer(self.ends_new, dtype=bool)
        bounds = np.frombuffer(self.bounds, dtype=np.int64)
        centers = bounds[:-1]
        targets = np.ones(len(ends), dtype=bool)
        targets[centers] = False
        columns = StreamColumns.build(
            np.array(self.timestamp, dtype=np.int64),
            ends[centers],
            new[centers],
            np.diff(bounds) - 1,
            ends[targets],
            new[targets],
            seed_nodes(self.seed_edges),
        )
        return GrowthStream.from_columns(self.seed_edges, columns, None)

    def neighbors(self, v: int) -> list[int]:
        lo = self.start[v]
        return self.pool[lo : lo + self.degrees[v]].tolist()

    def apply(self, timestamp, center, center_new, targets, targets_new) -> None:
        """Write each edge end of an increment, unchecked, into its node's block and log it.

        The arguments are the fields of ``Increment``, in its order.
        """
        self._add_nodes(len(self.degrees) + center_new + sum(targets_new))
        self._extend(center, targets)
        for t in targets:
            self._extend(t, (center,))
        self.timestamp.append(timestamp)
        self.ends.append(center)
        self.ends.extend(targets)
        self.ends_new.append(center_new)
        self.ends_new.extend(targets_new)
        self.bounds.append(len(self.ends))

    def _add_nodes(self, n: int) -> None:
        if n > len(self.size):
            spare = np.zeros(n, dtype=np.int64)
            self.start = np.concatenate((self.start, spare))
            self.size = np.concatenate((self.size, spare))
        for column in (self.degrees, self.room):
            column.extend([0] * (n - len(column)))

    def _extend(self, v: int, new: tuple[int, ...]) -> None:
        k, m = self.degrees[v], len(new)
        if k + m > self.room[v]:
            room = max(2 * (k + m), 4)
            if self.used + room > len(self.pool):
                grown = np.empty(2 * (self.used + room), dtype=np.int64)
                grown[: self.used] = self.pool[: self.used]
                self.pool = grown
            lo = self.start[v]
            self.pool[self.used : self.used + k] = self.pool[lo : lo + k]
            self.start[v] = self.used
            self.room[v] = room
            self.used += room
        lo = self.start[v] + k
        if m == 1:
            self.pool[lo] = new[0]
        else:
            self.pool[lo : lo + m] = new
        self.degrees[v] = self.size[v] = k + m


class _NodeSampler:
    """Draws nodes for one component kind over a growing ``_GraphState``.

    The base class draws uniformly, which is the random component's sampler.
    A sampler is built before the state's first ``apply``.
    """

    def __init__(self, state: _GraphState, rng: np.random.Generator):
        self.state = state
        self.rng = rng
        # How many of the state's logged increments this one has read.
        self.seen = 0

    def catch_up(self) -> None:
        """Read the increments the state applied since the last catch-up."""
        self.seen = self.state.num_increments

    def _uniform(self, excluded: set[int]) -> int:
        n = self.state.num_nodes
        if n - len(excluded) <= 0:
            raise GrowthStallError("no eligible node to draw")
        for _ in range(REJECT_CAP):
            x = int(self.rng.integers(n))
            if x not in excluded:
                return x
        eligible = [x for x in range(n) if x not in excluded]
        return int(eligible[self.rng.integers(len(eligible))])

    def sample(self, excluded: set[int], anchor: int | None, center_role: bool) -> int:
        return self._uniform(excluded)


class _EndpointListSampler(_NodeSampler):
    """Linear preferential attachment via the edge-endpoint multiset."""

    def __init__(self, state, rng):
        super().__init__(state, rng)
        self.endpoints = [x for edge in state.seed_edges for x in edge]

    def catch_up(self):
        state = self.state
        ends, bounds = state.ends, state.bounds
        for k in range(self.seen, state.num_increments):
            center = ends[bounds[k]]
            for t in ends[bounds[k] + 1 : bounds[k + 1]]:
                self.endpoints += (center, t)
        super().catch_up()

    def sample(self, excluded, anchor, center_role):
        if not self.endpoints:
            return self._uniform(excluded)
        for _ in range(REJECT_CAP):
            x = self.endpoints[int(self.rng.integers(len(self.endpoints)))]
            if x not in excluded:
                return x
        return self._weighted(np.asarray(self.state.degrees, dtype=np.float64), excluded)

    def _weighted(self, weights: np.ndarray, excluded: set[int]) -> int:
        """Inverse-CDF draw with excluded entries zeroed; uniform if their total is 0."""
        if excluded:
            weights[list(excluded)] = 0.0
        cs = np.cumsum(weights)
        total = cs[-1] if len(cs) else 0.0
        if total <= 0.0:
            return self._uniform(excluded)
        return int(np.searchsorted(cs, self.rng.random() * total, side="right"))


_NO_EXCLUSION = ((), [0.0], 0)


class _VectorSampler(_NodeSampler):
    """Per-node weight (degree power, rank) in a Fenwick tree: O(log n) updates and draws.

    ``tree[i]`` (1-based) holds the weight sum of nodes ``i - lowbit(i)`` to
    ``i - 1``.  The tree is rebuilt from the weights whenever the node count
    passes its power-of-two capacity, so rounding left by point updates
    never outlives a doubling.  A draw descends from ``u * (total - excluded
    mass)`` and subtracts, at each tree node on its path, the excluded mass
    in that node's range, read off the sorted excluded ids and their prefix
    weights; nothing is zeroed and restored.
    """

    def __init__(self, state, rng, weight: Callable[[int], float]):
        super().__init__(state, rng)
        self.weight = weight
        self.capacity = 16
        while self.capacity < state.num_nodes:
            self.capacity *= 2
        # Weights of the graph's nodes first; the rest is spare capacity.
        self.weights = np.zeros(self.capacity)
        self.weights[: state.num_nodes] = [weight(v) for v in range(state.num_nodes)]
        # An exact count, so the uniform fallback never rests on a rounded total.
        self.positive = int(np.count_nonzero(self.weights))
        self._build()
        self._base = (None, _NO_EXCLUSION)

    def _build(self) -> None:
        cap = self.capacity
        tree = np.zeros(cap + 1)
        tree[1:] = self.weights
        # Each node adds its finished sum into its parent i + lowbit(i), one
        # level at a time, up to the capacity rather than the node count so
        # that the upper nodes hold their whole ranges.
        step = 1
        while step < cap:
            tree[2 * step :: 2 * step] += tree[step : cap + 1 - step : 2 * step]
            step *= 2
        self.tree = tree.tolist()

    def catch_up(self):
        state = self.state
        cap = self.capacity
        while self.capacity < state.num_nodes:
            self.capacity *= 2
        if self.capacity > cap:
            self.weights = np.concatenate((self.weights, np.zeros(self.capacity - cap)))
        weights, weight = self.weights, self.weight
        # Only the centers and the targets are new or changed degree.  A node
        # touched by several increments changes once: after that its weight
        # is current.
        deltas = []
        for v in state.ends[state.bounds[self.seen] :]:
            w, old = weight(v), float(weights[v])
            if w != old:
                weights[v] = w
                self.positive += (w > 0.0) - (old > 0.0)
                deltas.append((v + 1, w - old))
        super().catch_up()
        self._base = (None, _NO_EXCLUSION)
        if self.capacity > cap:
            self._build()
            return
        tree = self.tree
        for i, delta in deltas:
            while i <= cap:
                tree[i] += delta
                i += i & -i

    def _exclusion(self, ids: list[int]) -> tuple:
        """Sorted ``ids``, the prefix sums of their weights and their count of positive weights."""
        if not ids:
            return _NO_EXCLUSION
        prefix = [0.0]
        positive = 0
        for w in self.weights[ids].tolist():
            prefix.append(prefix[-1] + w)
            positive += w > 0.0
        return ids, prefix, positive

    def _base_exclusion(self, excluded: _Excluded) -> tuple:
        """``_exclusion`` of a star's base in numpy, once per star and tree state."""
        if self._base[0] is not excluded:
            ids = excluded.sorted_base()
            w = self.weights[ids]
            prefix = np.concatenate(([0.0], np.cumsum(w)))
            self._base = (excluded, (ids, prefix, int(np.count_nonzero(w))))
        return self._base[1]

    def sample(self, excluded, anchor, center_role):
        if isinstance(excluded, _Excluded):
            base = self._base_exclusion(excluded)
            chosen = self._exclusion(sorted(excluded.chosen))
        else:
            base, chosen = _NO_EXCLUSION, self._exclusion(sorted(excluded))
        if self.positive == base[2] + chosen[2]:
            return self._uniform(excluded)
        rest = self.rng.random() * (self.tree[self.capacity] - base[1][-1] - chosen[1][-1])
        if base is _NO_EXCLUSION:
            pos = self._descend(rest, chosen)
        else:
            pos = self._descend_two(rest, base, chosen)
        n, weights = self.state.num_nodes, self.weights
        if pos < n and weights[pos] > 0.0 and pos not in excluded:
            return pos
        # Rounding left a sliver of mass where the exact sum has none: take
        # the next eligible node, or the last one before it.
        return next(
            v
            for v in chain(range(pos + 1, n), range(min(pos, n) - 1, -1, -1))
            if weights[v] > 0.0 and v not in excluded
        )

    def _descend(self, rest: float, exclusion: tuple) -> int:
        """The node where the running sum, less excluded mass, first exceeds ``rest``.

        Moves right past every tree range whose eligible mass is <= what is
        left; ``lo`` counts the excluded ids below ``pos``.
        """
        ids, prefix, _ = exclusion
        tree = self.tree
        pos = lo = 0
        step = self.capacity >> 1
        while step:
            top = pos + step
            hi = bisect_left(ids, top, lo)
            mass = tree[top] - (prefix[hi] - prefix[lo])
            if mass <= rest:
                pos, rest, lo = top, rest - mass, hi
            step >>= 1
        return pos

    def _descend_two(self, rest: float, first: tuple, second: tuple) -> int:
        """``_descend`` with the excluded ids split over two sorted lists.

        Only stars with a large base take this loop; most draws exclude a
        few chosen targets at most, and an empty second list would cost two
        more lookups at every level of theirs.
        """
        ids_a, pre_a, _ = first
        ids_b, pre_b, _ = second
        tree = self.tree
        pos = la = lb = 0
        step = self.capacity >> 1
        while step:
            top = pos + step
            ha = bisect_left(ids_a, top, la)
            hb = bisect_left(ids_b, top, lb)
            mass = tree[top] - (pre_a[ha] - pre_a[la]) - (pre_b[hb] - pre_b[lb])
            if mass <= rest:
                pos, rest, la, lb = top, rest - mass, ha, hb
            step >>= 1
        return pos


class _WedgeSampler(_NodeSampler):
    """Triangle closure: weight = common-neighbor count with the anchor.

    A draw gathers the anchor's 2-hop endpoints with one index over its
    neighbours' blocks in the graph state, so its Python cost does not grow
    with the degrees.
    """

    def sample(self, excluded, anchor, center_role):
        if center_role or anchor is None:
            # Uniform center pick / anchorless first leaf.
            return self._uniform(excluded)
        pool, start, size = self.state.pool, self.state.start, self.state.size
        lo = start[anchor]
        nbrs = pool[lo : lo + size[anchor]]
        if len(nbrs) == 0:
            return self._uniform(excluded)
        # Each 2-hop endpoint once per wedge: the count-weighted draw is a
        # uniform pick among them, made as the k-th smallest for the same
        # uniform that an inverse CDF over the sorted nodes would use.
        sizes = size[nbrs]
        stops = sizes.cumsum()
        ends = pool[np.arange(stops[-1]) + (start[nbrs] - stops + sizes).repeat(sizes)]
        keep = ends != anchor
        rest = excluded
        if isinstance(excluded, _Excluded):
            base = excluded.sorted_base()
            keep &= base[np.minimum(np.searchsorted(base, ends), len(base) - 1)] != ends
            rest = excluded.chosen
        for x in rest:
            keep &= ends != x
        ends = ends[keep]
        if len(ends) == 0:
            return self._uniform(excluded)
        k = int(self.rng.random() * len(ends))
        ends.partition(k)
        return int(ends[k])


def _make_sampler(comp: Component, state: _GraphState, rng) -> _NodeSampler:
    if isinstance(comp, Random):
        return _NodeSampler(state, rng)
    if isinstance(comp, DegreePower):
        if comp.alpha == 1.0:
            return _EndpointListSampler(state, rng)
        return _VectorSampler(
            state, rng, lambda v: degree_power_weight(state.degrees[v], comp.alpha)
        )
    if isinstance(comp, RankPreference):
        return _VectorSampler(state, rng, lambda v: float(v + 1) ** -comp.alpha)
    if isinstance(comp, TriangleClosure):
        return _WedgeSampler(state, rng)
    raise ModelError(f"no sampler for {comp!r}")


class MixtureSampler:
    """Component-first node draws for a whole schedule over a growing graph state.

    A component's sampler reads the state's logged increments that it has
    not seen right before its next draw, so a component that the current
    interval does not draw from costs nothing per increment.
    """

    def __init__(self, state: _GraphState, schedule: ModelSchedule, rng: np.random.Generator):
        self.state = state
        self.rng = rng
        unique = dict.fromkeys(c for interval in schedule.intervals for c in interval.components)
        self._samplers = {comp: _make_sampler(comp, state, rng) for comp in unique}

    def catch_up(self) -> None:
        """Bring every component's sampler up to the state, as a draw does for its own."""
        for sampler in self._samplers.values():
            sampler.catch_up()

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
        sampler = self._samplers[comp]
        if sampler.seen < self.state.num_increments:
            sampler.catch_up()
        return sampler.sample(excluded, anchor, center_role)


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

    def __post_init__(self):
        modes = [m.value for m in BoundaryMode]
        if self.boundary_mode not in modes:
            raise ModelError(f"boundary_mode must be one of {modes}, got {self.boundary_mode!r}")
        for name in ("increments", "new_targets", "internal_targets", "seed_clique"):
            if getattr(self, name) < 0:
                raise ModelError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.internal_prob <= 1.0:
            raise ModelError(f"internal_prob must be in [0, 1], got {self.internal_prob}")

    def schedule(self) -> ModelSchedule:
        mixtures = tuple(parse_model_spec(spec) for spec, _ in self.intervals)
        bounds = [b for _, b in self.intervals]
        if bounds[-1] is not None or any(b is None for b in bounds[:-1]):
            raise ModelError("every interval except the last needs an upper boundary")
        mode = BoundaryMode(self.boundary_mode)
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
        """The recipe ``to_json`` writes; a malformed one raises ModelError naming the field."""
        strict = {int: json_int, float: json_number}
        readers = {
            f.name: (strict.get(type(f.default), type(f.default)), f.default)
            for f in fields(GrowthRecipe)
        }
        readers["intervals"] = (_recipe_intervals, ...)
        return GrowthRecipe(**json_fields(text, ModelError, readers))

    @staticmethod
    def constant(model_spec: str, **kwargs) -> "GrowthRecipe":
        return GrowthRecipe(intervals=[(model_spec, None)], **kwargs)

    @staticmethod
    def two_phase(spec_pre: str, spec_post: str, switch: float, **kwargs) -> "GrowthRecipe":
        return GrowthRecipe(intervals=[(spec_pre, switch), (spec_post, None)], **kwargs)


def _recipe_intervals(value) -> list[tuple[str, float | None]]:
    """(model, until) pairs of a recipe's JSON intervals: a model string, a number or null until."""
    if not isinstance(value, list) or not value:
        raise ValueError("a recipe needs a list of intervals")
    readers = {"model": (json_string, ...), "until": (_until, None)}
    return [
        tuple(json_object_fields(iv, ValueError, readers, f"interval {k}: ").values())
        for k, iv in enumerate(value)
    ]


def _until(value) -> float | None:
    """An interval's JSON upper boundary: a number, or null for the last interval."""
    return None if value is None else json_number(value)


def _draw_targets(
    sampler: MixtureSampler,
    interval: MixtureInterval,
    count: int,
    base: set[int],
    anchor: int | None,
) -> list[int]:
    """Without-replacement target draws; anchor locks to the first draw if unset."""
    chosen: list[int] = []
    excluded = _Excluded(base, chosen) if len(base) > SORTED_BASE else set(base)
    for _ in range(count):
        x = sampler.draw(interval, excluded, anchor)
        chosen.append(x)
        excluded.add(x)
        if anchor is None:
            anchor = x
    return chosen


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
    if op_schedule is None and recipe.increments:
        # a star without targets has no star-stream row
        for name, used in (("new_targets", True), ("internal_targets", recipe.internal_prob)):
            if used and not getattr(recipe, name):
                raise ModelError(f"{name} must be >= 1 for a star to have a target, got 0")
    rng = np.random.default_rng(seed)
    schedule = recipe.schedule()
    clique = recipe.seed_size()
    state = _GraphState(clique, [(i, j) for i in range(clique) for j in range(i + 1, clique)])
    sampler = MixtureSampler(state, schedule, rng)

    if op_schedule is not None:
        shapes = [
            (row.timestamp, row.center_new, row.new_targets, row.existing_targets)
            for row in op_schedule.rows
        ]
    else:
        shapes = None

    count = recipe.increments if shapes is None else len(shapes)
    for index in range(count):
        n = state.num_nodes
        if shapes is None:
            timestamp = index
            internal = (
                recipe.internal_prob > 0.0 and rng.random() < recipe.internal_prob
            )
            if internal and all(n - 1 - k < recipe.internal_targets for k in state.degrees):
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
                if n - 1 - state.degrees[cand] >= n_existing:
                    center = cand
                    break
            if center is None:
                raise GrowthStallError(
                    f"no center with {n_existing} eligible targets after {STALL_CAP} draws"
                )
            base = {center, *state.neighbors(center)}
            existing = _draw_targets(sampler, interval, n_existing, base, center)

        next_id = n + (1 if center_new else 0)
        targets = (*existing, *range(next_id, next_id + n_new_targets))
        targets_new = (False,) * len(existing) + (True,) * n_new_targets
        state.apply(timestamp, center, center_new, targets, targets_new)

    return state.stream()


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
    An ``excluded`` node or ``anchor`` outside the graph raises
    ``UnknownNodeError``.
    """
    n = graph.num_nodes
    excluded = set(excluded or ())
    for v in sorted(excluded):
        if not 0 <= v < n:
            raise UnknownNodeError(f"excluded node {v} not in graph of {n} nodes")
    if anchor is not None and not 0 <= anchor < n:
        raise UnknownNodeError(f"anchor {anchor} not in graph of {n} nodes")
    if len(excluded) > SORTED_BASE:
        excluded = _Excluded(excluded, [])
    interval = model if isinstance(model, MixtureInterval) else MixtureInterval.single(model)
    schedule = ModelSchedule.constant(interval)
    rng = np.random.default_rng(seed)
    sampler = MixtureSampler(_GraphState(n, graph.edges()), schedule, rng)
    counts = np.zeros(n, dtype=np.int64)
    for _ in range(draws):
        counts[sampler.draw(interval, excluded, anchor, center_role)] += 1
    return counts
