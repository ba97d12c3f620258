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

A star is the unit of drawing: one loop (``MixtureSampler.draw``) draws a
star's center or its targets, reading the interval's running weight sums
and samplers, the generator's uniform and the logged-increment count once
for the star.  Each sampler reads the star's exclusions, its fixed base (an
internal star's center and the center's neighbours) plus the targets chosen
so far, in a set form made for the star: every sampler tests membership in
one set, and a base of more than ``SORTED_BASE`` nodes is also held, once
per star, as sorted ids with their prefix weights in Python lists for the
Fenwick descent and in a node mask, kept by the wedge sampler from star to
star, for the wedge gather.

A run keeps one graph state, the degrees and those blocks, and writes each
edge end into it once.  ``grow`` does not validate the increments it builds
again; input from outside is validated where it enters (ingest, the replay,
``GrowthStream.final_graph``).  The run logs its increments in typed
arrays, and a component's sampler reads the ones it has not seen from that
log right before its next draw: the endpoint list appends the new edges,
and the weight tree grows to the new node count and updates only the
weights that can have moved.  A rank weight is fixed when its node arrives,
so only the new nodes are weighed.  A degree weight changes with its
node's degree, so the centers and the targets are weighed again, from a
per-degree list of ``degree_power_weight`` values that grows with the
largest degree.  A component that the current interval does not draw from
pays nothing per increment, and draws read their scalars from Python lists
and typed arrays, not from numpy.

All randomness flows through one ``numpy.random.Generator`` (PCG64) created
from the caller's seed, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from itertools import accumulate, chain
from operator import itemgetter
from typing import Collection, Iterable

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
from .events import StreamColumns, concat_ranges
from .events import offsets as _offsets
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
# Edge ends a pool copy moves at once, which bounds its index arrays.
_COPY_ENDS = 1 << 16


# Above this many nodes, a star's fixed exclusion base is prepared once per
# star (see ``_Excluded``); smaller ones are handled per draw.
SORTED_BASE = 8


class _Excluded(set):
    """A star's excluded nodes when its fixed base is large: ``base`` plus ``chosen``.

    The base, a set of nodes, does not change during the star, so the
    samplers prepare the forms they read of it (prefix weights, a node
    mask) from its sorted ids (``sorted_base``) once, and key them on the
    ``base`` object itself: one-target stars drawn over one base
    (``sample_choice_frequencies``) share them.  A draw then adds only the
    few chosen targets.  Smaller exclusions are plain sets.
    """

    __slots__ = ("base", "chosen", "_sorted_base")

    def __init__(self, base: set[int], chosen: list[int]):
        super().__init__(base)
        self.base = base
        self.chosen = chosen
        self._sorted_base: list[int] | None = None

    def sorted_base(self) -> list[int]:
        """The base in increasing order."""
        if self._sorted_base is None:
            self._sorted_base = sorted(self.base)
        return self._sorted_base


class _GraphState:
    """The one graph a growth run updates: degrees and pooled neighbour blocks.

    Each node's neighbours fill an append-only block of one int64 pool (a
    typed array) that begins at ``lo``.  A full block moves to the pool's
    end with twice the room, and a full pool slides its live blocks, each in
    its order, to its front before it grows, so no slot a block left is kept
    past that.  The wedge gathers read the pool and ``lo`` through numpy
    views (``pool_view`` and ``start``), and ``size``, which mirrors the
    degrees as an array.  The applied increments are logged in typed
    arrays: each increment's center and then its targets in ``ends``, their
    new-node flags in ``ends_new``, and the start of increment k's entries
    in ``bounds[k]``.  The samplers catch up from this log, and ``stream``
    turns it into the grown stream's columns.
    """

    def __init__(self, num_nodes: int, edges: Iterable[tuple[int, int]]):
        self.seed_edges = list(edges)
        self.timestamp = array("q")
        self.ends = array("q")
        self.ends_new = array("b")
        self.bounds = array("q", [0])
        self.degrees: list[int] = []
        self.room: list[int] = []
        self.lo = array("q", bytes(8 * 16))
        self.start = np.frombuffer(self.lo, dtype=np.int64)
        self.size = np.zeros(16, dtype=np.int64)
        self.pool = array("q", bytes(8 * 64))
        self.pool_view = np.frombuffer(self.pool, dtype=np.int64)
        self.used = 0
        self._add_nodes(num_nodes)
        for u, v in self.seed_edges:
            self.pool[self._reserve(u, 1)] = v
            self.pool[self._reserve(v, 1)] = u

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
        lo = self.lo[v]
        return self.pool[lo : lo + self.degrees[v]].tolist()

    def apply(self, timestamp, center, center_new, targets, targets_new) -> None:
        """Write each edge end of an increment, unchecked, into its node's block and log it.

        The arguments are the fields of ``Increment``, in its order.
        """
        added = center_new + sum(targets_new)
        if added:
            self._add_nodes(len(self.degrees) + added)
        pool = self.pool
        # the center's block is whole before a target's move can compact the pool
        lo = self._reserve(center, len(targets))
        for t in targets:
            pool[lo] = t
            lo += 1
        for t in targets:
            pool[self._reserve(t, 1)] = center
        self.timestamp.append(timestamp)
        self.ends.append(center)
        self.ends.extend(targets)
        self.ends_new.append(center_new)
        self.ends_new.extend(targets_new)
        self.bounds.append(len(self.ends))

    def _add_nodes(self, n: int) -> None:
        if n > len(self.size):
            # ``lo`` and ``size`` hold room for as many nodes again
            self.start = None
            self.lo.extend([0] * (n + len(self.size) - len(self.lo)))
            self.start = np.frombuffer(self.lo, dtype=np.int64)
            self.size = np.concatenate((self.size, np.zeros(n, dtype=np.int64)))
        new = [0] * (n - len(self.degrees))
        self.degrees += new
        self.room += new

    def _reserve(self, v: int, m: int) -> int:
        """Count m more neighbours of v; the pool slot where the first of them goes.

        The pool grows in place, so ``pool`` read before the call stays valid.
        """
        k = self.degrees[v]
        if k + m > self.room[v]:
            self._move(v, max(2 * (k + m), 4))
        self.degrees[v] = self.size[v] = k + m
        return self.lo[v] + k

    def _move(self, v: int, room: int) -> None:
        """Give node v's block ``room`` slots at the end of the pool.

        A pool too full for that first slides the live blocks to its front
        (``_compact``), and then doubles while it is more than half full, so
        that half a pool of new slots comes before the next compaction.
        """
        if self.used + room > len(self.pool):
            self._compact()
            self.pool_view = None
            while 2 * (self.used + room) > len(self.pool):
                self.pool *= 2
            self.pool_view = np.frombuffer(self.pool, dtype=np.int64)
        lo, k = self.lo[v], self.degrees[v]
        if k:
            self.pool[self.used : self.used + k] = self.pool[lo : lo + k]
        self.lo[v] = self.used
        self.room[v] = room
        self.used += room

    def _compact(self) -> None:
        """Slide every block, with its room, to the front of the pool, keeping the blocks' order.

        Blocks move in the order they lie, each only down and onto slots
        whose blocks have moved already, a run of blocks at a time so that
        the index arrays stay small; a run is read whole before it is written.
        """
        n = len(self.degrees)
        pool = self.pool_view
        old_start, size = self.start[:n], self.size[:n]
        order = np.argsort(old_start, kind="stable")
        bounds = _offsets(np.array(self.room, dtype=np.int64)[order])
        new_start = np.empty(n, dtype=np.int64)
        new_start[order] = bounds[:-1]
        ends = np.cumsum(size[order])
        first = 0
        while first < n:
            stop = ends[first] - size[order[first]] + _COPY_ENDS
            run = order[first : max(int(np.searchsorted(ends, stop, "right")), first + 1)]
            src, dst, k = old_start[run], new_start[run], size[run]
            pool[concat_ranges(dst, dst + k)] = pool[concat_ranges(src, src + k)]
            first += len(run)
        self.start[:n] = new_start
        self.used = int(bounds[-1])


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
        self.seen = len(self.state.timestamp)

    def _uniform(self, excluded: set[int]) -> int:
        n = len(self.state.degrees)
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
        for k in range(self.seen, len(state.timestamp)):
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

    A rank weight, ``(id + 1) ** -alpha``, is fixed when its node arrives,
    so with ``rank`` set a catch-up weighs only the nodes added since the
    last one.  A degree weight changes with its node's degree, so otherwise
    a catch-up weighs every logged center and target again, reading
    ``table``, the ``degree_power_weight(k, alpha)`` values of the degrees
    seen so far.  The weights are a Python list, read one at a time by the
    draws.

    ``tree[i]`` (1-based) holds the weight sum of nodes ``i - lowbit(i)`` to
    ``i - 1``.  The tree is rebuilt from the weights whenever the node count
    passes its power-of-two capacity, so rounding left by point updates
    never outlives a doubling.  A draw descends from ``u * (total - excluded
    mass)`` and subtracts, at each tree node on its path, the excluded mass
    in that node's range, read off the sorted excluded ids and their prefix
    weights, all Python lists; nothing is zeroed and restored.
    """

    def __init__(self, state, rng, alpha: float, rank: bool):
        super().__init__(state, rng)
        self.alpha = alpha
        self.rank = rank
        self.table: list[float] = []
        self.capacity = 16
        while self.capacity < len(state.degrees):
            self.capacity *= 2
        # Weights of the graph's nodes first; the rest is spare capacity.
        self.known = len(state.degrees)
        if rank:
            weights = [float(v + 1) ** -alpha for v in range(self.known)]
        else:
            self._cover(max(state.degrees, default=0))
            weights = [self.table[k] for k in state.degrees]
        self.weights = weights + [0.0] * (self.capacity - self.known)
        # An exact count, so the uniform fallback never rests on a rounded total.
        self.positive = len(self.weights) - self.weights.count(0.0)
        self._build()
        self._base = (None, _NO_EXCLUSION)

    def _cover(self, degree: int) -> None:
        """Extend ``table`` through ``degree``, with the scalar function's own values."""
        table = self.table
        table.extend(degree_power_weight(k, self.alpha) for k in range(len(table), degree + 1))

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
        degrees = state.degrees
        n = len(degrees)
        cap = self.capacity
        weights = self.weights
        if n > cap:
            while self.capacity < n:
                self.capacity *= 2
            weights += [0.0] * (self.capacity - cap)
        # Only the new nodes, and for degree weights the centers and the
        # targets, can have changed.  A rank weight moves only when its node
        # arrives, and the log lists new nodes in id order, so weighing the
        # new nodes alone changes the same weights in the same order as
        # weighing every logged end would.  A node touched by several
        # increments changes once: after that its weight is current.
        rank, table = self.rank, self.table
        if rank:
            nodes = range(self.known, n)
        else:
            nodes = state.ends[state.bounds[self.seen] :]
            top = max(map(degrees.__getitem__, nodes), default=0)
            if top >= len(table):
                self._cover(top)
        self.known = n
        self.seen = len(state.timestamp)
        self._base = (None, _NO_EXCLUSION)
        # Past the capacity the tree is rebuilt from the weights instead.
        tree = None if self.capacity > cap else self.tree
        power = -self.alpha
        positive = self.positive
        for v in nodes:
            w = float(v + 1) ** power if rank else table[degrees[v]]
            old = weights[v]
            if w != old:
                weights[v] = w
                positive += (w > 0.0) - (old > 0.0)
                if tree is not None:
                    i, delta = v + 1, w - old
                    while i <= cap:
                        tree[i] += delta
                        i += i & -i
        self.positive = positive
        if tree is None:
            self._build()

    def _exclusion(self, excluded: Collection[int]) -> tuple:
        """``excluded`` sorted, its weights' prefix sums and its count of positive weights."""
        if not excluded:
            return _NO_EXCLUSION
        ids = sorted(excluded)
        weights = self.weights
        prefix = [0.0]
        positive = 0
        for v in ids:
            w = weights[v]
            prefix.append(prefix[-1] + w)
            positive += w > 0.0
        return ids, prefix, positive

    def _base_exclusion(self, excluded: _Excluded) -> tuple:
        """``_exclusion`` of a star's base, once per base and tree state.

        The prefix sums run in the base's id order, as ``_exclusion`` adds them.
        """
        if self._base[0] is not excluded.base:
            ids = excluded.sorted_base()
            # a large base has several ids, so the getter returns a tuple
            w = itemgetter(*ids)(self.weights)
            prefix = list(accumulate(w, initial=0.0))
            self._base = (excluded.base, (ids, prefix, len(w) - w.count(0.0)))
        return self._base[1]

    def sample(self, excluded, anchor, center_role):
        if isinstance(excluded, _Excluded):
            base = self._base_exclusion(excluded)
            chosen = self._exclusion(excluded.chosen)
        else:
            base, chosen = _NO_EXCLUSION, self._exclusion(excluded)
        if self.positive == base[2] + chosen[2]:
            return self._uniform(excluded)
        rest = self.rng.random() * (self.tree[self.capacity] - base[1][-1] - chosen[1][-1])
        # An empty list's prefix differences are 0.0, which subtracts exactly,
        # so one list descends as two would.
        if not chosen[0]:
            pos = self._descend(rest, base)
        elif not base[0]:
            pos = self._descend(rest, chosen)
        else:
            pos = self._descend_two(rest, base, chosen)
        weights = self.weights
        n = len(self.state.degrees)
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
        left; ``lo`` counts the excluded ids below ``pos``.  With nothing
        excluded the mass is the tree node's own.
        """
        ids, prefix, _ = exclusion
        tree = self.tree
        pos = lo = 0
        step = self.capacity >> 1
        if not ids:
            while step:
                mass = tree[pos + step]
                if mass <= rest:
                    pos += step
                    rest -= mass
                step >>= 1
            return pos
        while step:
            top = pos + step
            hi = bisect_left(ids, top, lo)
            mass = tree[top] - (prefix[hi] - prefix[lo])
            if mass <= rest:
                pos, rest, lo = top, rest - mass, hi
            step >>= 1
        return pos

    def _descend_two(self, rest: float, first: tuple, second: tuple) -> int:
        """``_descend`` with the excluded ids split over two sorted lists, both non-empty.

        Only stars with a large base and a chosen target take this loop;
        most draws exclude a few chosen targets at most.
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
    with the degrees.  A large base drops out of them through a node mask,
    one lookup per endpoint.
    """

    def __init__(self, state, rng):
        super().__init__(state, rng)
        self._outside = np.ones(0, dtype=bool)
        # the base that ``_outside`` is False on, and its sorted ids
        self._masked: tuple = (None, [])

    def _mask(self, excluded: _Excluded) -> np.ndarray:
        """A mask over the graph's nodes that is False exactly on the star's base.

        One mask is kept: a new base sets the last one's nodes back and
        clears its own, so a star costs the size of its base, not of the
        graph.  The mask is made anew, twice the node count, when the graph
        outgrows it.
        """
        key, ids = self._masked
        n = len(self.state.degrees)
        if key is not excluded.base or len(self._outside) < n:
            if len(self._outside) < n:
                self._outside = np.ones(2 * n, dtype=bool)
            else:
                self._outside[ids] = True
            ids = excluded.sorted_base()
            self._outside[ids] = False
            self._masked = (excluded.base, ids)
        return self._outside

    def sample(self, excluded, anchor, center_role):
        if center_role or anchor is None:
            # Uniform center pick / anchorless first leaf.
            return self._uniform(excluded)
        state = self.state
        degree = state.degrees[anchor]
        if not degree:
            return self._uniform(excluded)
        pool, start, size = state.pool_view, state.start, state.size
        lo = state.lo[anchor]
        nbrs = pool[lo : lo + degree]
        # Each 2-hop endpoint once per wedge: the count-weighted draw is a
        # uniform pick among them, made as the k-th smallest for the same
        # uniform that an inverse CDF over the sorted nodes would use.
        sizes = size[nbrs]
        stops = sizes.cumsum()
        ends = pool[np.arange(stops[-1]) + (start[nbrs] - stops + sizes).repeat(sizes)]
        keep = ends != anchor
        rest = excluded
        if isinstance(excluded, _Excluded):
            keep &= self._mask(excluded)[ends]
            rest = excluded.chosen
        for x in rest:
            if x != anchor:
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
        return _VectorSampler(state, rng, comp.alpha, False)
    if isinstance(comp, RankPreference):
        return _VectorSampler(state, rng, comp.alpha, True)
    if isinstance(comp, TriangleClosure):
        return _WedgeSampler(state, rng)
    raise ModelError(f"no sampler for {comp!r}")


class MixtureSampler:
    """Component-first node draws for a whole schedule over a growing graph state.

    A component's sampler reads the state's logged increments that it has
    not seen right before its next draw, so a component that the current
    interval does not draw from costs nothing per increment.  An interval
    is turned into its running weight sums and its samplers when the draws
    come to it.  A star is the unit of drawing (``draw``).
    """

    def __init__(self, state: _GraphState, schedule: ModelSchedule, rng: np.random.Generator):
        self.state = state
        self.rng = rng
        unique = dict.fromkeys(c for interval in schedule.intervals for c in interval.components)
        self._samplers = {comp: _make_sampler(comp, state, rng) for comp in unique}
        self._interval: MixtureInterval | None = None

    def catch_up(self) -> None:
        """Bring every component's sampler up to the state, as a draw does for its own."""
        for sampler in self._samplers.values():
            sampler.catch_up()

    def _table(self, interval: MixtureInterval) -> tuple[list[float], list[_NodeSampler]]:
        """An interval's running weight sums, but the last, and its components' samplers.

        The sums are added in component order, and each is raised to the
        largest before it: the first component whose raised sum exceeds a
        uniform is then the first whose plain sum does.  The table of the
        last interval drawn from is kept.
        """
        if interval is not self._interval:
            sums, acc, top = [], 0.0, -math.inf
            for w in interval.weights[:-1]:
                acc += w
                top = max(top, acc)
                sums.append(top)
            self._interval = interval
            self._draw_table = sums, [self._samplers[c] for c in interval.components]
        return self._draw_table

    def draw(
        self,
        interval: MixtureInterval,
        count: int,
        base: Collection[int],
        anchor: int | None,
        center_role: bool = False,
    ) -> list[int]:
        """One star's ``count`` draws, without replacement and outside ``base``, a set or ``()``.

        An unset ``anchor`` locks to the first node drawn.  The interval's
        table, the generator's uniform and the state's increment count are
        read once for the star, and its exclusions are made once: a plain
        set, or past ``SORTED_BASE`` nodes of base an ``_Excluded``.  Each
        draw picks a component by one uniform and then draws its node.
        """
        sums, samplers = self._table(interval)
        uniform = self.rng.random
        logged = len(self.state.timestamp)
        chosen: list[int] = []
        excluded = _Excluded(base, chosen) if len(base) > SORTED_BASE else set(base)
        for _ in range(count):
            sampler = samplers[bisect_right(sums, uniform())]
            if sampler.seen < logged:
                sampler.catch_up()
            x = sampler.sample(excluded, anchor, center_role)
            chosen.append(x)
            excluded.add(x)
            if anchor is None:
                anchor = x
        return chosen


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
    degrees = state.degrees
    for index in range(count):
        n = len(degrees)
        if shapes is None:
            timestamp = index
            internal = (
                recipe.internal_prob > 0.0 and rng.random() < recipe.internal_prob
            )
            if internal and all(n - 1 - k < recipe.internal_targets for k in degrees):
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
            existing = sampler.draw(interval, n_existing, (), None)
        else:
            center = None
            for _ in range(STALL_CAP):
                (cand,) = sampler.draw(interval, 1, (), None, center_role=True)
                if n - 1 - degrees[cand] >= n_existing:
                    center = cand
                    break
            if center is None:
                raise GrowthStallError(
                    f"no center with {n_existing} eligible targets after {STALL_CAP} draws"
                )
            base = {center, *state.neighbors(center)}
            existing = sampler.draw(interval, n_existing, base, center)

        next_id = n + (1 if center_new else 0)
        targets = (*existing, *range(next_id, next_id + n_new_targets))
        targets_new = (False,) * len(existing) + (True,) * n_new_targets
        state.apply(timestamp, center, center_new, targets, targets_new)

    # Only the log is read from here on: free the samplers' weights and trees first.
    del sampler
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
    interval = model if isinstance(model, MixtureInterval) else MixtureInterval.single(model)
    schedule = ModelSchedule.constant(interval)
    rng = np.random.default_rng(seed)
    sampler = MixtureSampler(_GraphState(n, graph.edges()), schedule, rng)
    counts = np.zeros(n, dtype=np.int64)
    for _ in range(draws):
        # each draw is a one-target star over the one base, so the samplers
        # prepare a large base once (``_Excluded``)
        (x,) = sampler.draw(interval, 1, excluded, anchor, center_role)
        counts[x] += 1
    return counts
