"""Exact and sampled likelihood of an observed star stream under a model.

Every increment is scored against the graph frozen immediately before it.
An existing-tagged center is one choice over all current nodes; the
existing-tagged targets are chosen without replacement, and since the data
only reveal the set, the increment probability sums the product of per-step
probabilities over orderings of that set (center first, then targets).  New
nodes are not choices and contribute factor 1.

With q existing targets there are q! orderings.  When the increment's total
choice count m is at most ``MAX_EXHAUSTIVE_CHOICES`` (7) the sum is
exact and runs over subsets of the targets (below); otherwise it is
estimated from ``ordering_samples`` uniformly drawn orderings (with
replacement), scaled by q!/S, which is unbiased on the probability scale.
Only these sampled stars have orderings.  The per-increment sample RNG is
seeded from (seed, increment index) so every scoring method sees identical
orderings.

Eligibility per target step: all current nodes, minus nodes already chosen
in this star, minus the center and its frozen neighborhood when the center
already existed (those edges would be duplicates).

One replay of the stream (``DPTrace``) records only integers that no model
parameter changes: per increment the graph size, the center and its frozen
neighborhood (ids and degrees), the existing targets (ids and degrees), and
the sampled orderings as positions among those targets, in one compact
table: per number of existing targets, a dense block of one small unsigned
integer per step.  It keeps the edge-event table it replays from, and on
first use by triangle closure derives from it, per anchor, the
common-neighbor counts with the star's targets and the anchor's total over
the eligible set, using the identity

    sum_x |G(a) n G(x)| over all x  =  sum_{u in G(a)} k_u

so each anchored total costs O(k_anchor) instead of O(N).  All of these are
functions of the order in which edges arrive, so the replay does not walk
the graph: it numbers the edge events once (``events.EdgeEvents``) and asks
for degrees, neighborhoods, common neighbors and closed triangles before
each increment with whole-array queries.  The increments are validated the
same way, and the lowest one the graph cannot take raises the error
``events.first_rejection`` reports for it.  The only per-increment Python
work left is one generator call per sampled star and ``math.fsum`` for
baselines of more than two steps.  Scoring expands the sampled stars' steps from the
table one bounded batch of stars at a time, with index arithmetic only, so
its working set does not grow with the orderings times the targets.

A stream keeps each replay built from it (``build_dp_trace``), one per set
of replay options, so scoring it under several models, building its cache
and fitting it share one replay, and with it the trace's exponent-free
tables.  The kept trace is read-only, since every later caller shares it.

Every other component total follows from the trace with whole-array
operations: degree-power totals from the seed degree histogram plus
per-increment histogram deltas, rank totals from prefix sums over arrival
ranks, and each step's eligible total by subtracting the shared exclusions
(the center and its neighborhood) and a running sum, along the ordering,
of the weights already chosen in it.

Every path works in ratios to uniform: a step's ratio is w_i (B - s) / T,
its probability over the uniform 1 / (B - s), or 1 where T <= 0 and the
step falls back to uniform.  T depends only on the *set* of targets
already chosen, and under triangle closure on the anchor: the existing
center, or else the first target.  Every path therefore scores an
exhaustive star by a dynamic program over those sets (Held & Karp 1962):
F(all) = 0 and F(S) = logsumexp over i not in S of [log r(S, i) + F(S + i)],
with r(S, i) the ratio of the step from S to i: q * 2**(q - 1) terms
instead of q * q! ordering steps.  An external star under triangle closure
runs it once per first target, over the other targets.  One parameter
point (``_trace_logp``: the exponent scans, ``score_stream``,
``increment_probability``) mixes each ratio at its increment's weights and
runs the recursion in log space, except that a single component at unit
weight with no step falling back to uniform factors its targets' weights
out and runs it in linear space (``_factored_logp``).  The weight-fitting
cache runs it on polynomials in the weights.  A degree or rank weight that
float64 cannot hold raises ``DegenerateModelError`` on every path.

A uniform-random baseline is computed in the same pass: the eligible set
shrinks by exactly one per step, so the baseline increment probability is
q! * prod 1/(B - s) with B the initial eligible count, exact even when the
model side is sampled.  A model adds the log ratios of the center and of
the ordering sum, less the log of the ordering count (q!, or S sampled).
An increment weighting only RAND and exponent 0 scores the baseline itself,
so c0 = exp((logL - logL_rand) / sum m) is exactly 1 for the uniform model.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateModelError, FitError, ModelError, RejectedIncrementError
from .errors import UndefinedRatioError
from .events import EdgeEvents, StreamColumns, first_rejection, graph_ends, segment_sums
from .events import batches as _batches
from .events import kept_table, read_only
from .events import concat_ranges as _concat_ranges
from .events import offsets as _offsets
from .graph import DynamicGraph, GrowthStream, Increment, _columns
from .models import (
    BoundaryMode,
    Component,
    DegreePower,
    MixtureInterval,
    ModelSchedule,
    Random,
    RankPreference,
    TriangleClosure,
    degree_power_table,
)

# Up to 7 choices the subset DP costs no more than drawing and scoring
# DEFAULT_ORDERING_SAMPLES orderings on every path, for 2 to 4 components
# with or without triangle closure; at 8 the weight-fitting cache of an
# external star under triangle closure, one lattice per anchor, costs up to
# 2.3 times as much exact.
MAX_EXHAUSTIVE_CHOICES = 7
# Increments whose ratio polynomial has degree (existing targets + 1) at most
# this, and every exhaustive one, are cached as coefficients.  A coefficient
# is a sum of fewer than L**12 products of at most 12 step ratios, far inside
# float64 range.
MAX_COLLAPSED_DEGREE = 12
DEFAULT_ORDERING_SAMPLES = 120

_NEG_INF = float("-inf")
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)
# Work that one step of a pass holds at once: a run of triangle anchors, in
# neighbour entries, pair walks and cells; a batch of exhaustive stars, in
# subset totals (_subset_batches); a run of a batch's stars, of sampled
# orderings or of collapsed rows, in polynomial terms; a run of subset-DP
# vacancy values; a run of sampled stars' steps, 2 values per component
# (_ordering_batches); a lattice slab and a row-path batch (_slab_plan).  A
# step holds a few arrays of this many values (512 KB each in float64),
# about a core's L2 cache (2 MB).  On a 100k-edge stream half of it made the
# cache build 30% slower, and twice it raised the anchors' peak by 1.5 MB.
_BUILD_CHUNK_ELEMENTS = 1 << 16
# Weight vectors _range_sums scores at once.
_LATTICE_CHUNK = 256


def _log_factorial(q: int) -> float:
    """log q!, bit-stable across call sites (exact float conversion when small)."""
    if q < 2:
        return 0.0
    if q <= 170:
        return math.log(float(math.factorial(q)))
    return math.lgamma(q + 1.0)


def _sampled_positions(q: int, index: int, seed: int, ordering_samples: int) -> np.ndarray:
    """(S, q) uniformly drawn orderings of increment ``index``, seeded from (seed, index).

    One ``permuted`` call shuffles the rows in order with the generator's
    shuffle, so row r is the r-th of S successive ``permutation(q)`` draws.
    """
    rows = np.empty((ordering_samples, q), dtype=np.int64)
    rows[:] = np.arange(q)
    return np.random.default_rng([seed, index]).permuted(rows, axis=1, out=rows)


@dataclass
class IncrementScore:
    """Scoring outcome for one increment."""

    index: int
    timestamp: int
    logp: float
    logp_rand: float
    num_choices: int
    sampled: bool
    fallback_choices: int
    impossible: bool


@dataclass
class LikelihoodSummary:
    """Stream-level scoring totals."""

    loglik: float
    loglik_rand: float
    total_choices: int
    increments: int
    sampled_increments: int
    fallback_choices: int
    impossible_increments: int

    @property
    def c0(self) -> float:
        """Per-choice likelihood ratio against the uniform-random baseline."""
        return per_choice_ratio(self.loglik, self.loglik_rand, self.total_choices)

    def to_dict(self) -> dict:
        try:
            c0 = self.c0
        except UndefinedRatioError:
            c0 = None
        return {
            "logL": self.loglik,
            "logL_rand": self.loglik_rand,
            "c0": c0,
            "choices": self.total_choices,
            "increments": self.increments,
            "sampled_increments": self.sampled_increments,
            "fallback_choices": self.fallback_choices,
            "impossible_increments": self.impossible_increments,
        }


def per_choice_ratio(loglik: float, loglik_rand: float, total_choices: int) -> float:
    """exp((logL - logL_rand) / total choices); geometric mean of per-choice gain."""
    if total_choices <= 0:
        raise UndefinedRatioError("stream exposes no model choices")
    if loglik == _NEG_INF:
        return 0.0
    return math.exp((loglik - loglik_rand) / total_choices)


@dataclass
class DPTrace:
    """The one replay of a stream: parameter-free integers every likelihood path reads.

    Only sampled stars have orderings.  They are kept once, compactly:
    ``orderings`` holds, per number of existing targets q, a dense
    (stars, S, q) block of positions among each star's targets, stars in
    increment order, in the narrowest unsigned dtype that holds q - 1.
    Every path expands those steps one run of stars at a time, within the
    build budget ``_BUILD_CHUNK_ELEMENTS`` (``_ordering_batches``), so its
    working set does not grow with the orderings times the targets.  Index arrays that no model parameter
    changes are built here once, so scoring a component at any exponent is
    whole-array work.  Triangle closure's anchors are computed on first use
    from the replay's edge events, which the trace keeps: an existing
    center, else each existing target in turn, each with a row of
    common-neighbour counts with its star's existing targets (0 with itself)
    and a total over the initial eligible set.  The subset-DP tables are
    also built on first use and kept with the trace.

    A trace is read-only: every array of its fields, of its orderings, of
    its edge events and of its anchors is non-writeable, because a stream
    hands one kept trace to every scorer (``build_dp_trace``).
    """

    timestamps: np.ndarray  # (I,) int64
    num_choices: np.ndarray  # (I,) int64
    num_nodes: np.ndarray  # (I,) int64, graph size when scored
    center: np.ndarray  # (I,) int64
    center_new: np.ndarray  # (I,) bool
    center_deg: np.ndarray  # (I,) int64, 0 for new centers
    gain: np.ndarray  # (I,) int64, edges the increment adds
    existing_counts: np.ndarray  # (I,) int64, existing targets q
    initial: np.ndarray  # (I,) int64, eligible-set size at the first target step
    sampled: np.ndarray  # (I,) bool
    logp_rand: np.ndarray  # (I,) float64
    h0: np.ndarray  # (K,) float64 seed-graph degree histogram, K past any degree reached
    shared_inc: np.ndarray  # (SD,) owning increment of each excluded center or neighbor
    shared_id: np.ndarray  # (SD,)
    shared_deg: np.ndarray  # (SD,)
    target_inc: np.ndarray  # (Q,) owning increment of each existing target
    target_deg: np.ndarray  # (Q,)
    target_id: np.ndarray  # (Q,) arrival index
    inc_ord_offsets: np.ndarray  # (I + 1,) ordering ranges per increment, empty unless sampled
    orderings: tuple[np.ndarray, ...]  # per q of sampled stars, ascending: (stars, S, q) positions
    events: EdgeEvents = field(repr=False)  # the edge events of the seed graph and the increments

    def __post_init__(self):
        values = [getattr(self, f.name) for f in fields(self)]
        read_only(v for v in values if isinstance(v, np.ndarray))
        read_only(self.orderings)
        read_only(v for v in vars(self.events).values() if isinstance(v, np.ndarray))

    @property
    def num_increments(self) -> int:
        return len(self.timestamps)

    @property
    def total_choices(self) -> int:
        return int(self.num_choices.sum())

    @property
    def sampled_increments(self) -> int:
        return int(self.sampled.sum())

    @property
    def chosen_deg(self) -> np.ndarray:
        """(E,) degree of each sampled step's chosen node, ordering after ordering by increment."""
        entries = _offsets(np.diff(self.inc_ord_offsets) * self.existing_counts)
        out = np.empty(entries[-1], dtype=np.int64)
        for batch in _ordering_batches(self, 1):
            at = _concat_ranges(entries[batch.incs], entries[batch.incs + 1])
            out[at] = self.target_deg[batch.targets].ravel()
        return out

    @kept_table
    def _ordering_count(self) -> np.ndarray:
        """(I,) float64 orderings each increment's targets are summed over: S or q!."""
        counts = np.diff(self.inc_ord_offsets).astype(np.float64)
        q = self.existing_counts[~self.sampled]
        counts[~self.sampled] = np.cumprod(np.maximum(np.arange(q.max(initial=0) + 1), 1.0))[q]
        return counts

    @kept_table
    def _baseline_offset(self) -> np.ndarray:
        """(I,) float64 the baseline less the log of the ordering count, added to model scores."""
        return self.logp_rand - np.log(self._ordering_count)

    @kept_table
    def _float_nodes(self) -> np.ndarray:
        """(I,) float64 graph size when scored: the eligible count of a center."""
        return self.num_nodes.astype(np.float64)

    @kept_table
    def _grown_degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """(I,) each center's degree after its increment, and the float64 count of its new targets.

        The new targets arrive at degree 1.
        """
        return self.center_deg + self.gain, (self.gain - self.existing_counts).astype(np.float64)

    @kept_table
    def _target_start(self) -> np.ndarray:
        """(I,) each increment's first existing target in the target arrays."""
        return _offsets(self.existing_counts)[:-1]

    @kept_table
    def _subset_groups(self) -> list[_SubsetGroup]:
        """Subset-DP tables of the exhaustive increments with existing targets, one per q.

        The vacancy mask is formed one ``_star_chunks`` run of stars at a
        time, into a table allocated at the first vacant subset; its counts
        are small integers, so the runs change no bit.
        """
        exhaustive = ~self.sampled & (self.existing_counts > 0)
        groups = []
        for q in np.unique(self.existing_counts[exhaustive]).tolist():
            incs = np.flatnonzero(exhaustive & (self.existing_counts == q))
            steps = np.arange(q)[:, None]
            targets = self._target_start[incs] + steps
            initial = self.initial[incs].astype(np.float64)
            log_falling = np.log(initial - steps).sum(axis=0)
            subsets = (1 << q) - 1
            vacant = None
            for part in _star_chunks(len(incs), subsets):
                on = (self.target_deg[targets[:, part]] > 0).astype(np.float64)
                gone = _subset_totals(self._occupied_base[incs[part]], on) <= 0.0
                if gone.any():
                    if vacant is None:
                        vacant = np.zeros((subsets, len(incs)), dtype=bool)
                    vacant[:, part] = gone
            groups.append(_SubsetGroup(incs, targets, initial, log_falling, vacant))
        return groups

    @kept_table
    def _anchored_groups(self) -> list[tuple[_SubsetGroup, bool]]:
        """The subset groups split into stars with a plain and with an anchored lattice.

        Under triangle closure an external star is anchored, one lattice
        column per first target; a part left empty is left out.
        """
        parts = []
        for group in self._subset_groups:
            outer = self.center_new[group.incs]
            if outer.all() or not outer.any():
                parts.append((group, bool(outer[0])))
            else:
                parts += [(group.select(~outer), False), (group.select(outer), True)]
        return parts

    @kept_table
    def _occupied_base(self) -> np.ndarray:
        """(I,) nodes of positive degree in each increment's initial eligible set.

        Exact, since a 0/1 degree table sums to small integers.  A degree
        power weighs nothing else, so its eligible total is zero exactly
        where this count is.
        """
        return _degree_totals(self, (np.arange(len(self.h0)) > 0).astype(np.float64))[1]

    @kept_table
    def _largest_degree(self) -> int:
        """The largest degree whose weight enters a score.

        That is a seed degree or one reached before the last increment: a
        degree reached only at the last increment enters no total.
        """
        earlier = self.target_inc < self.num_increments - 1
        return max(
            int(np.flatnonzero(self.h0).max(initial=1)),
            int((self.center_deg + self.gain)[:-1].max(initial=1)),
            int(self.target_deg[earlier].max(initial=0)) + 1,
        )

    @kept_table
    def _anchors(self) -> tuple[np.ndarray, ...]:
        return _triangle_anchors(self)

    @property
    def anchor_offsets(self) -> np.ndarray:
        """(I + 1,) anchor ranges per increment."""
        return self._anchors[0]

    @property
    def anchor_total(self) -> np.ndarray:
        """(A,) int64 total of each anchor over its star's initial eligible set."""
        return self._anchors[1]

    @property
    def anchor_common(self) -> np.ndarray:
        """(sum of q over anchors,) int64 anchor rows."""
        return self._anchors[2]

    @kept_table
    def _anchor_rows(self) -> np.ndarray:
        """(I,) start of each increment's first anchor row in ``anchor_common``."""
        return _offsets(np.diff(self.anchor_offsets) * self.existing_counts)[:-1]


@dataclass
class _SubsetGroup:
    """Exponent-free subset-DP tables of the exhaustive increments with q existing targets."""

    incs: np.ndarray  # (n,) increments
    targets: np.ndarray  # (q, n) existing targets, as positions in the trace's target arrays
    initial: np.ndarray  # (n,) float64 initial eligible count B
    log_falling: np.ndarray  # (n,) sum over steps s < q of log(B - s)
    # (2**q - 1, n) bool, no node of positive degree is left after the subset;
    # None when one is left after every subset
    vacant: np.ndarray | None

    def select(self, which: np.ndarray | slice) -> _SubsetGroup:
        """The group restricted to some of its increments."""
        tables = vars(self).values()
        return _SubsetGroup(*(None if t is None else t[..., which] for t in tables))


@dataclass
class _OrderingBatch:
    """Consecutive sampled stars with q existing targets, their S orderings as dense rows."""

    incs: np.ndarray  # (n,) increments, ascending
    positions: np.ndarray  # (n * S, q) intp, the target of each step among its star's targets
    targets: np.ndarray  # (n * S, q) the same, as positions in the trace's target arrays
    eligible: np.ndarray  # (n * S, q) float64 eligible-set size, initial - step

    @property
    def samples(self) -> int:
        return len(self.positions) // len(self.incs)

    @property
    def rows(self) -> np.ndarray:
        """(n * S,) the increment of each ordering."""
        return np.repeat(self.incs, self.samples)


def _ordering_batches(trace: DPTrace, ncomp: int) -> Iterator[_OrderingBatch]:
    """The sampled stars of a trace, in ``_BUILD_CHUNK_ELEMENTS`` runs of one q.

    A caller mixing ``ncomp`` components holds about 4 * ncomp + 1
    step-length arrays per run (each component's weights, totals, running
    prefix and ratios, and the eligible sizes), so a step counts 2 * ncomp
    values of the budget: a run has at most 2**14 steps at two components,
    about 1 MB.  A run holds at least one star.  Each star's values depend
    only on its own rows, so no result depends on how the stars are batched.
    """
    for block in trace.orderings:
        stars, samples, q = block.shape
        incs = np.flatnonzero(trace.sampled & (trace.existing_counts == q))
        for part in _star_chunks(stars, 2 * ncomp * samples * q):
            rows = np.repeat(incs[part], samples)
            positions = block[part].reshape(-1, q).astype(np.intp)
            yield _OrderingBatch(
                incs[part],
                positions,
                trace._target_start[rows, None] + positions,
                (trace.initial[rows, None] - np.arange(q)).astype(np.float64),
            )


def _exclusive_prefix(values: np.ndarray) -> np.ndarray:
    """Per step of each (ordering) row, the running sum of the row's earlier steps."""
    out = np.zeros_like(values)
    np.cumsum(values[:, :-1], axis=1, out=out[:, 1:])
    return out


def _uniform_baseline(
    num_nodes: np.ndarray, center_new: np.ndarray, initial: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Per increment, the log-probability of the increment under the uniform model.

    The eligible set shrinks by one per step from ``initial``, so the value
    is center + (fsum over steps s of -log(B - s) + log q!), assembled in
    that fixed grouping so every path reads the same baseline bits.  A sum
    of one or two floats is rounded exactly by plain addition, so only
    longer sums call ``math.fsum``.
    """
    step_inc = np.repeat(np.arange(len(q)), q)
    first = _offsets(q)[:-1]
    sizes = initial[step_inc] - (np.arange(len(step_inc)) - first[step_inc])
    centers = num_nodes[~center_new]
    needed = np.unique(np.concatenate((sizes, centers)))
    neg_log = np.array([-math.log(float(m)) for m in needed.tolist()])
    terms = neg_log[np.searchsorted(needed, sizes)]
    steps = np.zeros(len(q))
    one, two = q == 1, q == 2
    # -log(1) is -0.0, which fsum([-0.0]) may turn into 0.0
    steps[one] = np.where(terms[first[one]] == 0.0, math.fsum([-0.0]), terms[first[one]])
    steps[two] = terms[first[two]] + terms[first[two] + 1]
    longer = np.flatnonzero(q > 2)
    if len(longer):
        flat = terms.tolist()
        bounds = zip(first[longer].tolist(), q[longer].tolist())
        steps[longer] = [math.fsum(flat[lo : lo + n]) for lo, n in bounds]
    log_fact = np.array([_log_factorial(k) for k in range(int(q.max(initial=0)) + 1)])
    center = np.zeros(len(q))
    center[~center_new] = neg_log[np.searchsorted(needed, centers)]
    return center + (steps + log_fact[q])


def _triangle_anchors(trace: DPTrace) -> tuple[np.ndarray, ...]:
    """(anchor ranges per increment, anchor totals, anchor rows) of triangle closure.

    The anchors are found one run of consecutive increments at a time and
    written into the preallocated results (``_anchor_run``).  A run's
    neighbour entries, pair walks and cells total under
    ``_BUILD_CHUNK_ELEMENTS`` plus one increment, so the working set does
    not grow with the stream.  Every value is an integer count, the same
    however the increments are run.  The closed triangles at the anchored
    centers are counted first, so that the graph's triangle table is built
    before the results are allocated.
    """
    q = trace.existing_counts
    centers = np.flatnonzero(~trace.center_new & (q > 0))
    triangles = trace.events.triangles_before(trace.center[centers], centers)
    counts = np.where(trace.center_new, q, q > 0)
    anchor_offsets = _offsets(counts)
    shared_sizes = np.bincount(trace.shared_inc, minlength=trace.num_increments)
    # An external star walks each target's neighbours once for its total and
    # at most q - 1 more times for its pairs; an internal one walks them at
    # most once for its pairs, and sums its center's shared degrees.
    runs = _batches(
        q * (segment_sums(trace.target_deg, q) + q) + shared_sizes, _BUILD_CHUNK_ELEMENTS
    )
    # where each run starts among the existing targets, the shared entries,
    # the anchor rows and the anchored centers, and where the last one ends
    bounds = [lo for lo, _ in runs] + [trace.num_increments]
    targets, shared, rows = (_offsets(sizes)[bounds] for sizes in (q, shared_sizes, counts * q))
    inner = np.searchsorted(centers, bounds)
    total = np.empty(anchor_offsets[-1], dtype=np.int64)
    common = np.zeros(rows[-1], dtype=np.int64)
    for r, (lo, hi) in enumerate(runs):
        _anchor_run(
            trace,
            lo,
            hi,
            targets[r] + _offsets(q[lo:hi]),
            shared[r] + _offsets(shared_sizes[lo:hi]),
            triangles[inner[r] : inner[r + 1]],
            total[anchor_offsets[lo] : anchor_offsets[hi]],
            common[rows[r] : rows[r + 1]],
        )
    return anchor_offsets, total, common


def _anchor_run(
    trace: DPTrace,
    lo: int,
    hi: int,
    target_start: np.ndarray,
    shared_start: np.ndarray,
    triangles: np.ndarray,
    total: np.ndarray,
    common: np.ndarray,
) -> None:
    """Write the anchor totals and rows of increments [lo, hi) into ``total`` and ``common``.

    ``target_start`` and ``shared_start`` bound the run's existing targets
    and shared entries in the trace, ``triangles`` counts the closed
    triangles at its anchored centers, and ``common`` must hold zeros.  A
    total over the initial eligible set is the identity's sum of the
    anchor's neighbours' degrees (module docstring) less the anchor's own
    term k_a, and for a center less its neighbours' terms too, twice its
    closed triangles.
    """
    events = trace.events
    q = trace.existing_counts[lo:hi]
    center_new = trace.center_new[lo:hi]
    counts = np.where(center_new, q, q > 0)
    anchor_offsets = _offsets(counts)
    local = np.repeat(np.arange(hi - lo), counts)
    anchor_inc = lo + local
    # An external star's anchor k is its target k; a center is slot 0.
    slot = np.arange(len(local)) - anchor_offsets[local]
    own = target_start[local] + slot
    inner = ~center_new[local]
    anchor_id = np.where(inner, trace.center[anchor_inc], trace.target_id[own])
    anchor_deg = np.where(inner, trace.center_deg[anchor_inc], trace.target_deg[own])
    centers, outer = anchor_inc[inner], ~inner
    # The trace lists each existing center before its neighbours.
    shared_deg = trace.shared_deg[shared_start[0] : shared_start[-1]]
    degree_sums = segment_sums(shared_deg, np.diff(shared_start))
    total[inner] = degree_sums[local[inner]] - 2 * trace.center_deg[centers] - 2 * triangles
    total[outer] = (
        events.neighbour_degree_sums(anchor_id[outer], anchor_inc[outer], anchor_deg[outer])
        - anchor_deg[outer]
    )

    row_start = _offsets(q[local])
    cell_row = np.repeat(np.arange(len(local)), q[local])
    cell_pos = np.arange(len(cell_row)) - row_start[cell_row]
    cell_self = np.where(inner, -1, slot)[cell_row]
    # A target pairs with itself for nothing, and a pair of two targets of
    # an external star is counted once, in the row of the earlier one.
    fresh = np.flatnonzero(cell_pos > cell_self)
    rows = cell_row[fresh]
    targets = target_start[local[rows]] + cell_pos[fresh]
    common[fresh] = events.common_before(
        anchor_id[rows],
        trace.target_id[targets],
        anchor_inc[rows],
        anchor_deg[rows],
        trace.target_deg[targets],
    )
    mirrored = np.flatnonzero(cell_pos < cell_self)
    earlier = cell_row[mirrored] - cell_self[mirrored] + cell_pos[mirrored]
    common[mirrored] = common[row_start[earlier] + cell_self[mirrored]]


def _replay(
    graph: DynamicGraph,
    cols: StreamColumns,
    first_index: int,
    seed: int,
    ordering_samples: int,
    max_exhaustive_choices: int,
) -> DPTrace:
    """The DPTrace of the increments ``cols`` applied one after another to ``graph``.

    The graph is not changed: every count comes from the edge-event table of
    the graph and the increments, which the trace keeps.  ``first_index`` is
    the stream index of the first increment, which seeds its ordering
    sample.  Stars of more than ``max_exhaustive_choices`` choices are
    sampled.  The lowest increment the graph cannot take raises the error
    ``first_rejection`` reports for it, or the eligibility error when it has
    more existing targets than eligible nodes.
    """
    if ordering_samples < 1:
        raise ModelError(f"ordering_samples must be at least 1, got {ordering_samples}")
    seed_node, seed_nbr = graph_ends(graph)
    rejection = first_rejection(cols, seed_node, seed_nbr)
    if rejection is not None:
        # Only the increments before it build a graph; check their eligibility.
        cols = cols.head(rejection[0])
    events = EdgeEvents(seed_node, seed_nbr, cols)
    num_inc = cols.num_increments
    incs = np.arange(num_inc)
    num_nodes, center, center_new = cols.num_nodes, cols.center, cols.center_new
    center_deg = events.degree_before(center, incs)
    existing = ~cols.target_new
    target_inc = cols.target_inc[existing]
    target_id = cols.target[existing]
    existing_counts = np.bincount(target_inc, minlength=num_inc)
    initial = np.where(center_new, num_nodes, num_nodes - 1 - center_deg)
    over = np.flatnonzero(existing_counts > initial)
    if len(over):
        k = int(over[0])
        raise RejectedIncrementError(
            f"increment {first_index + k}: {existing_counts[k]} existing targets but only "
            f"{initial[k]} eligible candidates"
        )
    if rejection is not None:
        raise rejection[1]
    target_deg = events.degree_before(target_id, target_inc)

    # Each existing center is excluded with its neighbourhood: the center
    # first, then its neighbours in the order their edges arrived.
    internal = np.flatnonzero(~center_new)
    owner, nbrs = events.neighbours_before(center[internal], internal, center_deg[internal])
    shared_count = np.where(center_new, 0, center_deg + 1)
    heads = _offsets(shared_count)[:-1][internal]
    rest = np.ones(int(shared_count.sum()), dtype=bool)
    rest[heads] = False
    shared_id = np.empty(len(rest), dtype=np.int64)
    shared_deg = np.empty(len(rest), dtype=np.int64)
    shared_id[heads] = center[internal]
    shared_id[rest] = nbrs
    shared_deg[heads] = center_deg[internal]
    shared_deg[rest] = events.degree_before(nbrs, internal[owner])

    num_choices = existing_counts + ~center_new
    sampled = (existing_counts > 0) & (num_choices > max_exhaustive_choices)
    # Each sampled increment draws its S orderings in one generator call,
    # into the block of the sampled stars with as many existing targets.
    orderings = []
    for q in np.unique(existing_counts[sampled]).tolist():
        stars = np.flatnonzero(sampled & (existing_counts == q))
        block = np.empty((len(stars), ordering_samples, q), dtype=np.min_scalar_type(q - 1))
        for rows, k in zip(block, stars.tolist()):
            rows[:] = _sampled_positions(q, first_index + k, seed, ordering_samples)
        orderings.append(block)

    h0 = np.bincount(np.asarray(graph.degrees, dtype=np.int64), minlength=1)
    kmax = max(
        len(h0) - 1,
        1,
        int((center_deg + cols.gain).max(initial=0)),
        int(target_deg.max(initial=-1)) + 1,
    )
    return DPTrace(
        timestamps=cols.timestamp,
        num_choices=num_choices,
        num_nodes=num_nodes,
        center=center,
        center_new=center_new,
        center_deg=center_deg,
        gain=cols.gain,
        existing_counts=existing_counts,
        initial=initial,
        sampled=sampled,
        logp_rand=_uniform_baseline(num_nodes, center_new, initial, existing_counts),
        h0=np.pad(h0, (0, kmax + 1 - len(h0))).astype(np.float64),
        shared_inc=np.repeat(incs, shared_count),
        shared_id=shared_id,
        shared_deg=shared_deg,
        target_inc=target_inc,
        target_deg=target_deg,
        target_id=target_id,
        inc_ord_offsets=_offsets(np.where(sampled, ordering_samples, 0)),
        orderings=tuple(orderings),
        events=events,
    )


def build_dp_trace(
    stream: GrowthStream, seed: int = 0, ordering_samples: int = DEFAULT_ORDERING_SAMPLES
) -> DPTrace:
    """The one replay of a stream, which every scorer reads: stream, cache, scans and fits.

    Stars of more than ``MAX_EXHAUSTIVE_CHOICES`` choices are scored from
    ``ordering_samples`` orderings drawn from (``seed``, increment index).
    The stream keeps the replay, one per (seed, ordering_samples,
    MAX_EXHAUSTIVE_CHOICES) as they are when called, and returns the kept
    one on every later call with those options.  A replay that raises keeps
    nothing, and ``seed`` and ``ordering_samples`` must be integers, so
    that no other value finds a kept trace the replay would refuse it.
    """
    key = (operator.index(seed), operator.index(ordering_samples), MAX_EXHAUSTIVE_CHOICES)
    trace = stream._traces.get(key)
    if trace is None:
        trace = _replay(stream.seed_graph(), stream.columns, 0, *key)
        stream._traces[key] = trace
    return trace


def _as_trace(source: GrowthStream | DPTrace) -> DPTrace:
    """A DPTrace as given, or the stream's kept replay at the default options."""
    return source if isinstance(source, DPTrace) else build_dp_trace(source)


def _degree_totals(trace: DPTrace, table: np.ndarray) -> tuple[np.ndarray, ...]:
    """(target weights, base totals, center weights, whole-graph totals) of a per-degree table.

    The base total covers an increment's initial eligible set: the whole
    graph minus the center and its neighborhood when the center existed.
    """
    num_inc = trace.num_increments
    center_after, new_targets = trace._grown_degrees
    target_w, center_w = table[trace.target_deg], table[trace.center_deg]
    # Histogram deltas: existing nodes leave their old degree bin; new
    # nodes only appear at their final degree.  Every existing target
    # gains one degree, a step read off the table's differences.
    grown = table[center_after] - np.where(trace.center_new, 0.0, center_w)
    step = np.diff(table)[trace.target_deg]
    grown += np.bincount(trace.target_inc, weights=step, minlength=num_inc)
    grown += new_targets * table[1]
    whole = np.empty(num_inc)
    whole[:1] = 0.0
    np.cumsum(grown[:-1], out=whole[1:])
    whole += float(trace.h0 @ table)
    shared = np.bincount(trace.shared_inc, weights=table[trace.shared_deg], minlength=num_inc)
    return target_w, whole - shared, center_w, whole


def _check_power(family: str, alpha: float, what: str, largest: int, weight: float) -> None:
    """Raise DegenerateModelError unless float64 holds ``weight`` as a normal number.

    ``weight`` is the power of the largest degree or rank that enters a
    score, the extreme of the weights used, since the power is monotone.
    """
    if not _SMALLEST_NORMAL <= weight < math.inf:
        how = "overflows" if weight == math.inf else "underflows"
        raise DegenerateModelError(
            f"{family} exponent {alpha}: the weight of the largest {what}, {largest}, {how} float64"
        )


def _node_weights(
    trace: DPTrace, comp: Component
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Per-target and per-center weights with base and whole-graph totals; None for RAND and TRI.

    Raises ``DegenerateModelError`` where float64 cannot hold the weights
    (``_check_power``), or where a degree-power total overflows.
    """
    if isinstance(comp, (Random, TriangleClosure)):
        return None
    if isinstance(comp, DegreePower):
        with np.errstate(over="ignore"):
            table = degree_power_table(len(trace.h0), comp.alpha)
        largest = trace._largest_degree
        _check_power("degree-power", comp.alpha, "degree", largest, table[largest])
        # only the last increment's dropped total reads these
        table[largest + 1 :] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            node = _degree_totals(trace, table)
        if not np.isfinite(node[3]).all():
            raise DegenerateModelError(
                f"degree-power exponent {comp.alpha}: the total weight of the graph overflows "
                f"float64 (largest degree {largest})"
            )
        return node
    if isinstance(comp, RankPreference):
        largest = int(trace.num_nodes.max(initial=0))
        ranks = np.arange(1, largest + 2, dtype=np.float64) ** -comp.alpha
        _check_power("rank-preference", comp.alpha, "rank", largest, ranks[largest - 1])
        whole = _offsets(ranks)[trace.num_nodes]
        shared = np.bincount(
            trace.shared_inc, weights=ranks[trace.shared_id], minlength=trace.num_increments
        )
        return ranks[trace.target_id], whole - shared, ranks[trace.center], whole
    raise DegenerateModelError(f"no likelihood for {comp!r}")


def _subset_amplification(trace: DPTrace, comp: DegreePower | RankPreference) -> float:
    """The largest factor by which a subset total of ``comp`` magnifies the rounding of its terms.

    A star's base total is the whole-graph total less its center's
    neighbourhood, and each subset total T(S) is the base less the weights
    taken, so T(S) carries an error of about one ulp of the whole-graph
    total: its relative error is up to whole / T(S) ulps.  The smallest
    T(S) of a star is the base less every target but the lightest.  Returns
    the largest whole / min T(S) over the stars with existing targets, inf
    where that total is not positive, and raises as ``_node_weights`` does.
    """
    target_w, base, _, whole = _node_weights(trace, comp)
    incs = np.flatnonzero(trace.existing_counts > 0)
    if len(incs) == 0:
        return 1.0
    taken = np.bincount(trace.target_inc, weights=target_w, minlength=trace.num_increments)
    least = base[incs] - taken[incs] + np.minimum.reduceat(target_w, trace._target_start[incs])
    with np.errstate(divide="ignore"):
        worst = whole[incs] / least
    return float(np.where(least > 0.0, worst, np.inf).max())


def _zero_at_degree_zero(comp: Component) -> bool:
    """Whether exactly the nodes of degree 0 weigh nothing (a nonzero degree exponent)."""
    return isinstance(comp, DegreePower) and comp.alpha != 0.0


def _ratio(w: np.ndarray, eligible: np.ndarray, total: np.ndarray) -> np.ndarray:
    """A choice's probability over the uniform one: w * eligible / total, 1 where total <= 0.

    A total <= 0 means the choice falls back to uniform.  The product is
    formed before the division, so a uniform component cancels to exactly 1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = w * eligible / total
    positive = total > 0.0
    return ratio if positive.all() else np.where(positive, ratio, 1.0)


def _mix(columns: Sequence[np.ndarray], weights: Sequence[np.ndarray]) -> np.ndarray:
    """The sum over components l of columns[l] * weights[l], added in component order."""
    out = columns[0] * weights[0]
    for column, w in zip(columns[1:], weights[1:]):
        out += column * w
    return out


def _center_ratios(
    trace: DPTrace, nodes: list, fallbacks: np.ndarray | None
) -> list[np.ndarray]:
    """Per component of ``_node_weights`` ``nodes``, each center's (I,) ratio over all nodes.

    RAND and triangle closure pick a center uniformly, and a new center is
    no choice: both have ratio 1.  Adds each existing center that falls
    back to uniform to ``fallbacks``, unless that is None.
    """
    whole_graph = trace._float_nodes
    ratios = []
    for l, node in enumerate(nodes):
        w, total = (1.0, whole_graph) if node is None else node[2:]
        if fallbacks is not None:
            fallbacks[l] += ~trace.center_new & (total <= 0.0)
        ratios.append(np.where(trace.center_new, 1.0, _ratio(w, whole_graph, total)))
    return ratios


def _step_weights(
    trace: DPTrace, batch: _OrderingBatch, comp: Component, node: tuple | None
) -> tuple[np.ndarray, np.ndarray]:
    """(weight, total) of one component at every step of a batch of sampled stars.

    ``node`` is the component's ``_node_weights``.  Step totals cover each
    step's eligible set, the base total less the weights chosen earlier in
    its ordering; a total <= 0 means the step falls back to uniform.  A
    degree-power total whose eligible set holds no node of positive degree
    is exactly 0.
    """
    if isinstance(comp, Random):
        return np.ones(batch.eligible.shape), batch.eligible
    rows, q = batch.rows, batch.positions.shape[1]
    if isinstance(comp, TriangleClosure):
        # A center anchors all its orderings; otherwise an ordering anchors on
        # its first target, after a first step with no anchor, a uniform fallback.
        outer = trace.center_new[rows]
        slot = np.where(outer, batch.positions[:, 0], 0)
        anchor_rows = trace._anchor_rows[rows] + slot * q
        common = trace.anchor_common[anchor_rows[:, None] + batch.positions].astype(np.float64)
        base = trace.anchor_total[trace.anchor_offsets[rows] + slot]
        total = base[:, None] - _exclusive_prefix(common)
        common[outer, 0] = total[outer, 0] = 0.0
        return common, total
    chosen = node[0][batch.targets]
    total = node[1][rows, None] - _exclusive_prefix(chosen)
    # Only a star with fewer eligible nodes of positive degree than targets
    # can run out of them.
    if _zero_at_degree_zero(comp) and (trace._occupied_base[batch.incs] < q).any():
        on = (trace.target_deg[batch.targets] > 0).astype(np.float64)
        occupied = trace._occupied_base[rows, None] - _exclusive_prefix(on)
        total[occupied <= 0.0] = 0.0
    return chosen, total


def _batch_ratios(
    trace: DPTrace,
    batch: _OrderingBatch,
    components: Sequence[Component],
    nodes: list,
    fallbacks: np.ndarray | None,
) -> list[np.ndarray]:
    """Per component, the (n * S, q) step ratios to uniform of a batch of sampled stars.

    Adds the uniform steps of each star's first ordering to ``fallbacks``,
    unless that is None.
    """
    ratios = []
    for l, (comp, node) in enumerate(zip(components, nodes)):
        step_w, step_total = _step_weights(trace, batch, comp, node)
        if fallbacks is not None:
            fallbacks[l, batch.incs] += (step_total[:: batch.samples] <= 0.0).sum(axis=1)
        ratios.append(_ratio(step_w, batch.eligible, step_total))
    return ratios


def _segment_logsumexp(
    values: np.ndarray, counts: np.ndarray, scale: np.ndarray | None = None
) -> np.ndarray:
    """log(scale * sum(exp(values))) over consecutive row segments, max-shifted.

    ``counts`` holds each segment's row count (at least 1).  ``scale`` is
    applied before the log, so S rows of 0 scaled by 1/S give exactly 0.
    """
    if len(counts) == 0:
        return np.zeros((0, *values.shape[1:]))
    starts = _offsets(counts)[:-1]
    top = np.maximum.reduceat(values, starts, axis=0)
    rep = np.repeat(top, counts, axis=0)
    with np.errstate(invalid="ignore"):
        shifted = np.exp(np.where(rep == _NEG_INF, _NEG_INF, values - rep))
    total = np.add.reduceat(shifted, starts, axis=0)
    if scale is not None:
        total *= scale
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(top == _NEG_INF, _NEG_INF, np.log(total) + top)


@lru_cache(maxsize=None)
def _subset_lattice(q: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple]:
    """The proper subsets of q targets by size, each one's parent and one-larger supersets.

    Returns ((parent, highest), levels).  Subsets are ordered by size and,
    within a size, by bitmask, so the first of size l is {0, .., l - 1}.
    Nonempty subset r is subset ``parent[r]`` plus its highest target
    ``highest[r]``.  ``levels[l]`` is (lo, hi, child, added) for the subsets
    of size l, rows [lo, hi): adding target ``added[s, c]`` to subset lo + s
    gives the subset ``child[s, c]`` among those of size l + 1 (the full set
    is 0 of its own level).
    """
    by_size = [[s for s in range(1 << q) if bin(s).count("1") == size] for size in range(q + 1)]
    rank = {s: r for sets in by_size for r, s in enumerate(sets)}
    row = {s: r for r, s in enumerate(s for sets in by_size[:q] for s in sets)}
    highest = [max(s.bit_length() - 1, 0) for s in row]
    parent = [row[s ^ 1 << h] if s else 0 for s, h in zip(row, highest)]
    starts = _offsets([len(sets) for sets in by_size]).tolist()
    levels = []
    for size in range(q):
        free = [[j for j in range(q) if not s >> j & 1] for s in by_size[size]]
        child = [[rank[s | 1 << j] for j in js] for s, js in zip(by_size[size], free)]
        child_rows = np.array(child, dtype=np.intp)
        levels.append((starts[size], starts[size + 1], child_rows, np.array(free, dtype=np.intp)))
    return (np.array(parent, dtype=np.intp), np.array(highest, dtype=np.intp)), tuple(levels)


def _subset_totals(base: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(2**q - 1, n) ``base`` less each ``_subset_lattice`` subset's (q, n) weights ``w``.

    A subset's weight is its parent's plus its highest target's, so each
    column adds its own weights in ascending order, whatever shares the call.
    """
    q = len(w)
    (parent, highest), levels = _subset_lattice(q)
    taken = np.empty(((1 << q) - 1, w.shape[1]))
    taken[:1] = 0.0  # no row at all when q is 0: an anchored star of one target
    if q > 1:
        taken[1 : q + 1] = w
    for lo, hi, _, _ in levels[2:]:
        np.add(taken[parent[lo:hi]], w[highest[lo:hi]], out=taken[lo:hi])
    return np.subtract(base, taken, out=taken)


@dataclass
class _Lattice:
    """One component on a group's subset lattice, one column per star or (star, anchor)."""

    first: np.ndarray | None  # anchored: the first step's ratio to uniform, 1 where uniform
    first_uniform: np.ndarray | None  # anchored: the first step falls back to uniform
    w: np.ndarray  # (q, n) the targets' weights
    total: np.ndarray  # (2**q - 1, n) each proper subset's eligible total, 0 where uniform
    eligible: np.ndarray  # (n,) float64 eligible count e before the lattice's first step
    log_falling: np.ndarray  # (n,) sum over the lattice's steps s of log(e - s)

    def ratios(self, size: int) -> np.ndarray:
        """(subsets, q - size, n) ratio to uniform of each step from each subset of ``size``."""
        lo, hi, _, added = _subset_lattice(len(self.w))[1][size]
        return _ratio(self.w[added], self.eligible - size, self.total[lo:hi, None])

    def select(self, cols: slice) -> _Lattice:
        """The lattice restricted to some of its columns."""
        tables = vars(self).values()
        return _Lattice(*(None if t is None else t[..., cols] for t in tables))

    @property
    def fallbacks(self) -> np.ndarray:
        """(stars,) uniform steps of each star's identity ordering."""
        steps = self.total[[lo for lo, _, _, _ in _subset_lattice(len(self.w))[1]]] <= 0.0
        if self.first is None:
            return steps.sum(axis=0)
        return np.vstack((self.first_uniform, steps))[:, :: len(self.w) + 1].sum(axis=0)


@dataclass
class _Anchoring:
    """The columns of an anchored group, one per (star, first target a), shared by its lattices."""

    stars: np.ndarray  # (n * q,) each column's star
    slots: np.ndarray  # (n * q,) each column's first target a
    others: np.ndarray  # (q - 1, n * q) each column's other targets, ascending
    eligible: np.ndarray  # (n * q,) float64 eligible count after the first step
    log_falling: np.ndarray  # (n * q,) sum over the later steps s of log(e - s)

    @staticmethod
    def of(group: _SubsetGroup) -> _Anchoring:
        q, n = group.targets.shape
        slots = np.tile(np.arange(q), n)
        return _Anchoring(
            np.repeat(np.arange(n), q),
            slots,
            (np.arange(q - 1) + (np.arange(q - 1) >= slots[:, None])).T,
            np.repeat(group.initial - 1.0, q),
            np.repeat(group.log_falling - np.log(group.initial), q),
        )


def _lattice(
    trace: DPTrace,
    group: _SubsetGroup,
    comp: Component,
    node: tuple | None,
    anchoring: _Anchoring | None,
) -> _Lattice:
    """One component, of ``_node_weights`` ``node``, on a group's subset lattice.

    Anchored, the columns are ``anchoring``'s (star, first target a) pairs,
    each the lattice over the other q - 1 targets after a first step to a;
    triangle closure has no anchor for that step yet.
    """
    q, n = group.targets.shape
    tri = isinstance(comp, TriangleClosure)
    anchored = anchoring is not None
    # the star and anchor slot of each column: a center is its star's slot 0
    cols = anchoring.stars if anchored else slice(None)
    slots = anchoring.slots if anchored else 0
    if tri:
        rows = trace._anchor_rows[group.incs][cols] + slots * q
        w = trace.anchor_common[rows + np.arange(q)[:, None]].astype(np.float64)
        base = trace.anchor_total[trace.anchor_offsets[group.incs][cols] + slots]
    elif isinstance(comp, Random):
        base = group.initial[cols]
        w = np.ones((q, len(base)))
    else:
        w, base = node[0][group.targets[:, cols]], node[1][group.incs[cols]]
    zero = _zero_at_degree_zero(comp)
    first = first_uniform = None
    eligible, log_falling = group.initial, group.log_falling
    if anchored:
        # the anchor leaves the lattice, with its weight: 0 for triangle closure
        at, others = np.arange(len(cols)), anchoring.others
        ok = base > 0.0
        if zero:
            on = (trace.target_deg[group.targets[:, cols]] > 0).astype(np.float64)
            occupied = trace._occupied_base[group.incs[cols]]
            ok &= occupied > 0.0
            occupied, on = occupied - on[slots, at], on[others, at]
        first_uniform = ~ok | tri
        first = _ratio(w[slots, at], group.initial[cols], np.where(first_uniform, 0.0, base))
        base, w = base - w[slots, at], w[others, at]
        eligible, log_falling = anchoring.eligible, anchoring.log_falling
    total = _subset_totals(base, w)
    if zero:
        # no node of positive degree is left: the total is 0 up to rounding
        vacant = ~(_subset_totals(occupied, on) > 0.0) if anchored else group.vacant
        if vacant is not None and vacant.any():
            total[vacant] = 0.0
    return _Lattice(first, first_uniform, w, total, eligible, log_falling)


def _subset_batches(
    trace: DPTrace,
    components: Sequence[Component],
    nodes: list,
    fallbacks: np.ndarray | None,
) -> Iterator[tuple[_SubsetGroup, bool, list[_Lattice]]]:
    """(stars, anchored, lattices) of the exhaustive stars with existing targets, in batches.

    Under triangle closure an external star is anchored: one lattice column
    per first target.  A batch holds one star or at most
    ``_BUILD_CHUNK_ELEMENTS`` subset totals: 2**q per star and component,
    q * 2**(q - 1) anchored.  No column's values depend on the others.  Adds
    the uniform steps of each star's identity ordering to ``fallbacks``,
    unless that is None.
    """
    if any(isinstance(c, TriangleClosure) for c in components):
        parts = trace._anchored_groups
    else:
        parts = [(group, False) for group in trace._subset_groups]
    for part, outer in parts:
        q = len(part.targets)
        per_star = len(components) * (q << (q - 1) if outer else 1 << q)
        for stars in _star_chunks(len(part.incs), per_star):
            batch = part.select(stars)
            anchoring = _Anchoring.of(batch) if outer else None
            lattices = [_lattice(trace, batch, c, n, anchoring) for c, n in zip(components, nodes)]
            if fallbacks is not None:
                fallbacks[:, batch.incs] += [lat.fallbacks for lat in lattices]
            yield batch, outer, lattices
            del lattices  # before the next batch's are built


def _factored_logp(lattice: _Lattice) -> tuple[np.ndarray, np.ndarray]:
    """``_subset_logp`` of a single component at unit weight, its targets' weights factored out.

    Every ordering takes each target once, so where every subset's total
    T(S) is positive, with e the column's eligible count before its first
    step, the sum over orderings of the step ratios' products is

        prod_i (w_i / T(empty)) * prod_{s<q} (e - s) * u(empty),
        u(all) = 1,  u(S) = T(empty) / T(S) * sum over i not in S of u(S + i),

    one log per target and one per column.  A positive T(S) is T(empty)
    less the weights taken, so at least about 2**-54 T(empty): u stays
    within float64 up to 17 targets.  Returns (values, factored): where a
    step falls back to uniform (a total <= 0) or u overflows, a column is
    not factored, and ``_subset_logp`` forms every step's ratio instead.
    """
    q, n = lattice.w.shape
    factored = (lattice.total > 0.0).all(axis=0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rho = lattice.total[:1] / lattice.total
        u = np.ones((1, n))
        for lo, hi, child, _ in reversed(_subset_lattice(q)[1]):
            # the children's rows added in turn, as a sum over them would
            below = u[child[:, 0]]
            for c in range(1, child.shape[1]):
                below += u[child[:, c]]
            u = rho[lo:hi] * below
        factored &= np.isfinite(u[0])
        weights = np.log(lattice.w / lattice.total[:1]).sum(axis=0)
        return weights + lattice.log_falling + np.log(u[0]), factored


def _subset_logp(lattices: list[_Lattice], weights: np.ndarray) -> np.ndarray:
    """Log of the sum over orderings of a lattice's targets, by a DP over the chosen sets.

    F(all) = 0 and F(S) = logsumexp over i not in S of [log r(S, i) +
    F(S + i)], with r(S, i) the step's ratio to uniform mixed over the
    components at its column's (n, L) ``weights``; the result is F of the
    empty set, per column.  A single component at unit weight factors its
    targets' weights out instead in each column with no step falling back
    to uniform (``_factored_logp``).
    """
    out = None
    if len(lattices) == 1 and (weights == 1.0).all():
        out, factored = _factored_logp(lattices[0])
        if factored.all():
            return out
    q = len(lattices[0].w)
    f = np.zeros((1, len(weights)))
    for size in reversed(range(q)):
        child = _subset_lattice(q)[1][size][2]
        with np.errstate(divide="ignore"):
            terms = np.log(_mix([lat.ratios(size) for lat in lattices], weights.T))
        terms += f[child]
        if terms.shape[1] == 1:
            f = terms[:, 0]
        else:
            # max-shifted logsumexp over the supersets; a subset whose every
            # superset is impossible stays impossible
            top = terms.max(axis=1)
            top[top == _NEG_INF] = 0.0
            terms -= top[:, None]
            with np.errstate(divide="ignore"):
                f = np.log(np.exp(terms, out=terms).sum(axis=1)) + top
    return f[0] if out is None else np.where(factored, out, f[0])


def _trace_logp(
    trace: DPTrace,
    components: Sequence[Component],
    weights: np.ndarray | Sequence[float],
    count_fallbacks: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """(log-probability, (L, I) fallback choices) per increment under per-increment mixtures.

    ``weights`` is (I, L), or (L,) for every increment.  Each step's ratio
    to uniform is mixed at its increment's weights and logged.  Sampled
    stars sum their orderings' steps and take a logsumexp over them;
    exhaustive stars run the subset DP (``_subset_logp``, which factors
    out a single component's weights), once per anchor and then a logsumexp
    over the anchors for an external star under triangle closure.  An
    increment weighting only uniform components (RAND, exponent 0) scores
    the baseline itself, so that identity holds bit for bit.  Fallbacks are
    counted on the center and the first ordering's steps; the exponent
    scans, which discard them, pass ``count_fallbacks=False`` and get None.
    """
    num_inc = trace.num_increments
    given = np.asarray(weights, dtype=np.float64)
    weights = np.broadcast_to(given, (num_inc, len(components)))
    fallbacks = np.zeros((len(components), num_inc), dtype=np.int64) if count_fallbacks else None
    uniform = np.array([isinstance(c, Random) or c == DegreePower(0.0) for c in components])
    if uniform.all():
        return trace.logp_rand.copy(), fallbacks
    # per increment, or one for all of them when the weights are
    baseline = ~given[..., ~uniform].any(axis=-1)
    nodes = [_node_weights(trace, comp) for comp in components]
    with np.errstate(divide="ignore"):
        logp = np.log(_mix(_center_ratios(trace, nodes, fallbacks), weights.T))
        for batch in _ordering_batches(trace, len(components)):
            ratios = _batch_ratios(trace, batch, components, nodes, fallbacks)
            orderings = np.log(_mix(ratios, weights[batch.rows].T[..., None])).sum(axis=1)
            logp[batch.incs] += _segment_logsumexp(
                orderings, np.full(len(batch.incs), batch.samples)
            )
        for stars, anchored, lattices in _subset_batches(trace, components, nodes, fallbacks):
            q = len(stars.targets)
            cols = np.repeat(weights[stars.incs], q if anchored else 1, axis=0)
            f = _subset_logp(lattices, cols)
            if anchored:
                f += np.log(_mix([lat.first for lat in lattices], cols.T))
                f = _segment_logsumexp(f, np.full(len(stars.incs), q))
            logp[stars.incs] += f
            del lattices  # before the next batch's are built
    logp += trace._baseline_offset
    return np.where(baseline, trace.logp_rand, logp), fallbacks


def dp_trace_logp(trace: DPTrace, alpha: float) -> np.ndarray:
    """Per-increment log-probability under a single degree-power component.

    Exponent 0 is the uniform model, so it returns the baseline itself and
    the identity holds bit for bit rather than to within summation noise.
    """
    return _trace_logp(trace, [DegreePower(alpha)], [1.0], count_fallbacks=False)[0]


@dataclass
class ChoiceCache:
    """Mixture-weight-independent per-choice ratios for fast weight fitting.

    Built from a ``DPTrace`` to score a lattice of weight vectors (one
    point is scored in log space, by ``_trace_logp``).  Per target step and
    component: (component prob / uniform prob) over the step's eligible
    set; per center and component: the same ratio over all nodes, with
    all-ones rows for new centers (so any convex combination gives 1).  For weights w, the
    step mixture ratio is the dot product, ordering ratios multiply,
    increments sum orderings and scale by ``inv_norm`` (1/q! exhaustive, 1/S
    sampled); the log of the result is logp - logp_rand for the increment.

    That ratio is a homogeneous polynomial of degree q + 1 in w with
    non-negative coefficients.  Increments of degree at most
    ``MAX_COLLAPSED_DEGREE`` are stored collapsed to those coefficients, so
    scoring one costs a dot product with the degree's monomials of w however
    many orderings and steps it has.  Exhaustive stars get them from the
    subset DP (anchored on the first target of an external star under
    triangle closure), sampled ones from their orderings, expanded one
    ``_ordering_batches`` run of stars at a time with no step table.  Larger sampled
    stars keep the row path: their step rows are mixed, logged and summed
    per ordering, and the orderings are combined by a max-shifted
    logsumexp, so a long product of small ratios cannot underflow.  Step
    rows and orderings are kept only for those stars; ``increment_offsets``
    still spans every increment, with no orderings for a collapsed one.
    The build works one bounded run at a time (``_BUILD_CHUNK_ELEMENTS``):
    triangle anchors, batches of exhaustive stars' lattices
    (``_subset_batches``) and their subset-DP columns, sampled stars' step
    ratios, orderings and collapsed rows, the last written into the
    preallocated ``poly_coefs``.  So its working set does not grow with the
    stream, and no value depends on the runs.

    A cache is read-only once built.  The first interval fit for a weight
    step scores its whole lattice once, as sums over equal-count blocks of
    increments, and keeps them here (one entry per weight step, at most
    about 2 MB each); later fits add those sums instead of rescoring, and
    would read stale sums if the arrays above changed.
    """

    components: tuple[Component, ...]
    step_ratios: np.ndarray  # (T, L) float64, steps of the row-path increments
    ordering_offsets: np.ndarray  # (O + 1,) int64, step row ranges
    increment_offsets: np.ndarray  # (I + 1,) int64, ordering ranges, none for a collapsed increment
    center_ratios: np.ndarray  # (I, L) float64
    inv_norm: np.ndarray  # (I,) float64
    num_choices: np.ndarray  # (I,) int64
    timestamps: np.ndarray  # (I,) int64
    logp_rand: np.ndarray  # (I,) float64
    poly_coefs: np.ndarray  # (K,) float64, per degree an (increments, monomials) block
    poly_increments: np.ndarray  # (P,) int64, collapsed increments, ascending within a degree
    poly_offsets: np.ndarray  # (D + 2,) int64, poly_increments range per degree, D >= the cap
    poly_coef_offsets: np.ndarray  # (D + 2,) int64, poly_coefs range per degree
    row_increments: np.ndarray  # (R,) int64, sampled increments above the cap, ascending
    sampled_increments: int
    fallback_choices: int
    # weight-step units -> estimation._BlockSums of that lattice
    _lattice_sums: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_increments(self) -> int:
        return len(self.inv_norm)

    @property
    def total_choices(self) -> int:
        return int(self.num_choices.sum())


@lru_cache(maxsize=None)
def _monomial_exponents(ncomp: int, degree: int) -> np.ndarray:
    """Exponent rows (M, L) of every monomial of ``degree`` in ``ncomp`` weights."""

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for rest in compositions(total - head, parts - 1):
                yield (head, *rest)

    table = np.array(list(compositions(degree, ncomp)), dtype=np.intp).reshape(-1, ncomp)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _lowered_index(ncomp: int, degree: int) -> np.ndarray:
    """(L, M) position among degree - 1 monomials of each monomial divided by w_l.

    Entries where w_l does not divide the monomial point one past the end, at
    the zero column ``_times_linear`` appends.
    """
    lower = {row: i for i, row in enumerate(map(tuple, _monomial_exponents(ncomp, degree - 1)))}
    upper = _monomial_exponents(ncomp, degree)
    index = np.full((ncomp, len(upper)), len(lower), dtype=np.intp)
    for m, row in enumerate(upper.tolist()):
        for l in range(ncomp):
            if row[l]:
                row[l] -= 1
                index[l, m] = lower[tuple(row)]
                row[l] += 1
    index.setflags(write=False)
    return index


def _times_linear(poly: np.ndarray, linear: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients of poly(w) * (linear . w), row by row; ``degree`` is the product's."""
    index = _lowered_index(linear.shape[1], degree)
    padded = np.concatenate((poly, np.zeros((len(poly), 1))), axis=1)
    out = padded[:, index[0]] * linear[:, :1]
    for l in range(1, linear.shape[1]):
        out += padded[:, index[l]] * linear[:, l : l + 1]
    return out


def _monomials(w: np.ndarray, degree: int) -> np.ndarray:
    """(M, C) values of every monomial of ``degree`` at each weight vector."""
    powers = np.empty((degree + 1, *w.shape))
    powers[0] = 1.0
    for k in range(1, degree + 1):
        powers[k] = powers[k - 1] * w
    exponents = _monomial_exponents(w.shape[1], degree)
    out = powers[exponents[:, 0], :, 0]
    for l in range(1, w.shape[1]):
        out = out * powers[exponents[:, l], :, l]
    return out


def _star_chunks(stars: int, per_star: int) -> Iterator[slice]:
    """Consecutive runs of ``stars`` stars, each of at most ``_BUILD_CHUNK_ELEMENTS`` elements.

    A star holds ``per_star`` elements, and a run at least one star.
    """
    step = max(1, _BUILD_CHUNK_ELEMENTS // per_star)
    for a in range(0, stars, step):
        yield slice(a, a + step)


def _lattice_poly(
    stars: _SubsetGroup, anchored: bool, lattices: list[_Lattice]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(increments, (n, M) summed ordering coefficients) of a batch's stars, a run at a time.

    The subset DP with polynomial values: G(all) = 1 and G(S) = sum over i
    not in S of (r(S, i) . w) G(S + i), r(S, i) holding each component's
    step ratio to uniform; the result is G(empty).  An anchored star sums
    the first step's form times G over its anchors.  A run of stars with q
    targets holds under ``_BUILD_CHUNK_ELEMENTS`` terms of up to M values, a
    star fewer than q * 2**q; every value of a column depends on that
    column alone, so none depends on the runs.
    """
    q, ncomp = len(lattices[0].w), len(lattices)
    columns = q + 1 if anchored else 1
    targets = len(stars.targets)
    star_terms = (targets << targets) * len(_monomial_exponents(ncomp, targets))
    for part in _star_chunks(len(stars.incs), star_terms):
        run = [lat.select(slice(part.start * columns, part.stop * columns)) for lat in lattices]
        g = np.ones((1, len(run[0].eligible), 1))
        for size in reversed(range(q)):
            child = _subset_lattice(q)[1][size][2]
            linear = np.stack([lat.ratios(size) for lat in run], axis=-1).reshape(-1, ncomp)
            terms = _times_linear(g[child].reshape(-1, g.shape[-1]), linear, q - size)
            g = terms.reshape(*child.shape, g.shape[1], -1).sum(axis=1)
        poly = g[0]
        incs = stars.incs[part]
        if anchored:
            first = np.stack([lat.first for lat in run], axis=-1)
            poly = _times_linear(poly, first, q + 1).reshape(len(incs), q + 1, -1).sum(axis=1)
        yield incs, poly


def _ordering_poly(
    batch: _OrderingBatch, ratios: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(increments, (n, M) summed ordering coefficients) of sampled stars, a run at a time.

    ``ratios`` holds the batch's (n * S, q, L) step rows.  An ordering's
    coefficients start at 1 and are multiplied by one step row's linear
    form per step; a run of stars holds under ``_BUILD_CHUNK_ELEMENTS``
    terms.
    """
    q, ncomp = ratios.shape[1:]
    samples = batch.samples
    size = len(_monomial_exponents(ncomp, q + 1))
    for part in _star_chunks(len(batch.incs), samples * size):
        run = ratios[part.start * samples : part.stop * samples]
        terms = np.ones((len(run), 1))
        for s in range(q):
            terms = _times_linear(terms, run[:, s], s + 1)
        yield batch.incs[part], np.add.reduceat(terms, np.arange(0, len(terms), samples), axis=0)


class _Collapse:
    """Polynomial coefficients of every exhaustive increment and every other of degree <= the cap.

    The layout is fixed up front: ``poly_increments`` lists the collapsed
    increments by degree, ascending within one, and ``poly_coefs``, which
    is preallocated, holds per degree an (increments, monomials) block.
    ``write`` fills the rows of a run of stars from their summed ordering
    coefficients, from the subset DP or from sampled orderings, a bounded
    run of rows at a time: each sum is scaled by ``inv_norm`` and
    multiplied by the center row.  A star with no existing target has the
    single coefficient 1, written here.  A pure-random ratio is an exact
    product of ones, so its coefficient is the ordering count times
    ``inv_norm``.
    """

    def __init__(
        self,
        center_ratios: np.ndarray,
        inv_norm: np.ndarray,
        existing_counts: np.ndarray,
        sampled: np.ndarray,
    ):
        self.center_ratios, self.inv_norm = center_ratios, inv_norm
        self.existing_counts = existing_counts
        degrees = existing_counts + 1
        order = np.argsort(degrees, kind="stable")
        # exhaustive stars pass the cap if MAX_EXHAUSTIVE_CHOICES >= 12
        collapsed = order[(degrees[order] <= MAX_COLLAPSED_DEGREE) | ~sampled[order]]
        top = max(MAX_COLLAPSED_DEGREE, int(degrees[collapsed].max(initial=0)))
        counts = np.bincount(degrees[collapsed], minlength=top + 1)
        ncomp = center_ratios.shape[1]
        sizes = [len(_monomial_exponents(ncomp, degree)) for degree in range(top + 1)]
        self.poly_increments = collapsed.astype(np.int64)
        self.poly_offsets = _offsets(counts)
        self.poly_coef_offsets = _offsets(counts * sizes)
        self.row_increments = np.flatnonzero((degrees > MAX_COLLAPSED_DEGREE) & sampled)
        self.poly_coefs = np.empty(self.poly_coef_offsets[-1])
        alone = np.flatnonzero(existing_counts == 0)
        self.write(alone, np.ones((len(alone), 1)))

    def write(self, incs: np.ndarray, sums: np.ndarray) -> None:
        """Store the rows of ascending increments of one degree from their (n, M) ordering sums."""
        if not len(incs):
            return
        degree = int(self.existing_counts[incs[0]]) + 1
        held = self.poly_increments[self.poly_offsets[degree] : self.poly_offsets[degree + 1]]
        base, end = self.poly_coef_offsets[degree : degree + 2]
        size = len(_monomial_exponents(self.center_ratios.shape[1], degree))
        block = self.poly_coefs[base:end].reshape(-1, size)
        for part in _star_chunks(len(incs), size):
            run = incs[part]
            scaled = sums[part] * self.inv_norm[run, None]
            rows = _times_linear(scaled, self.center_ratios[run], degree)
            block[np.searchsorted(held, run)] = rows

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """The ``ChoiceCache`` fields of the collapsed increments."""
        names = ("poly_coefs", "poly_increments", "poly_offsets", "poly_coef_offsets")
        return {name: getattr(self, name) for name in (*names, "row_increments")}


def _choice_cache(trace: DPTrace, components: Sequence[Component]) -> ChoiceCache:
    """The weight-fitting cache of a trace.

    Fallbacks are counted on the center and on the steps of the first
    ordering: a sampled star's first draw, an exhaustive star's identity
    ordering.  Sampled stars are expanded one ``_ordering_batches`` run at a
    time, within the build budget: each run is collapsed to coefficients,
    or its step rows are written into the row path's table.
    """
    ncomp = len(components)
    # each count is at most a star's choices, and only their total is kept
    fallbacks = np.zeros((ncomp, trace.num_increments), dtype=np.int32)
    nodes = [_node_weights(trace, comp) for comp in components]
    center_ratios = np.stack(_center_ratios(trace, nodes, fallbacks), axis=-1)
    # the steps read only the target weights and base totals
    nodes = [None if node is None else node[:2] for node in nodes]
    inv_norm = 1.0 / trace._ordering_count
    collapse = _Collapse(center_ratios, inv_norm, trace.existing_counts, trace.sampled)
    for stars, anchored, lattices in _subset_batches(trace, components, nodes, fallbacks):
        for incs, sums in _lattice_poly(stars, anchored, lattices):
            collapse.write(incs, sums)
        del lattices  # before the next batch's are built
    # Only the row path reads step rows: those of the sampled stars above the cap.
    on_rows = trace.sampled & (trace.existing_counts + 1 > MAX_COLLAPSED_DEGREE)
    ord_counts = np.where(on_rows, np.diff(trace.inc_ord_offsets), 0)
    increment_offsets = _offsets(ord_counts)
    ordering_offsets = _offsets(np.repeat(trace.existing_counts, ord_counts))
    step_ratios = np.empty((ordering_offsets[-1], ncomp))
    for batch in _ordering_batches(trace, ncomp):
        ratios = np.stack(_batch_ratios(trace, batch, components, nodes, fallbacks), axis=-1)
        if ratios.shape[1] + 1 <= MAX_COLLAPSED_DEGREE:
            for incs, sums in _ordering_poly(batch, ratios):
                collapse.write(incs, sums)
        else:
            first = ordering_offsets[increment_offsets[batch.incs]]
            last = ordering_offsets[increment_offsets[batch.incs + 1]]
            step_ratios[_concat_ranges(first, last)] = ratios.reshape(-1, ncomp)
    return ChoiceCache(
        components=tuple(components),
        step_ratios=step_ratios,
        ordering_offsets=ordering_offsets,
        increment_offsets=increment_offsets,
        center_ratios=center_ratios,
        inv_norm=inv_norm,
        num_choices=trace.num_choices,
        timestamps=trace.timestamps,
        logp_rand=trace.logp_rand,
        **collapse.arrays,
        sampled_increments=trace.sampled_increments,
        fallback_choices=int(fallbacks.sum()),
    )


def build_choice_cache(
    source: GrowthStream | DPTrace, components: Sequence[Component]
) -> ChoiceCache:
    """Everything weight fitting needs, from a trace or a stream's kept replay at the defaults.

    The cache depends on the component list but not on mixture weights or
    interval boundaries, so a single build serves every partition depth and
    every weight-grid point.
    """
    return _choice_cache(_as_trace(source), components)


def _row_logratios(cache: ChoiceCache, incs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """log(P / P_rand) from step rows, in log space, for increments above the cap.

    Each row is mixed in component order (``_mix``), so no value depends on the batches.
    """
    ord_lo = cache.increment_offsets[incs]
    ord_hi = cache.increment_offsets[incs + 1]
    ords = _concat_ranges(ord_lo, ord_hi)
    row_lo = cache.ordering_offsets[ords]
    row_hi = cache.ordering_offsets[ords + 1]
    ord_log = np.empty((len(ords), w.shape[0]))
    for a, b in _batches(row_hi - row_lo, max(1, _BUILD_CHUNK_ELEMENTS // w.shape[0])):
        steps = cache.step_ratios[_concat_ranges(row_lo[a:b], row_hi[a:b])]
        step_log = _mix(steps.T[..., None], w.T)
        with np.errstate(divide="ignore"):
            np.log(step_log, out=step_log)
        ord_log[a:b] = np.add.reduceat(step_log, _offsets(row_hi[a:b] - row_lo[a:b])[:-1], axis=0)
    # Scaling the shifted sum before the log makes S orderings of ratio 1
    # give log(S * (1/S)) = 0 exactly, as on the collapsed path.
    targets = _segment_logsumexp(ord_log, ord_hi - ord_lo, cache.inv_norm[incs, None])
    with np.errstate(divide="ignore"):
        return targets + np.log(_mix(cache.center_ratios[incs].T[..., None], w.T))


def _checked_call(
    cache: ChoiceCache, weights: np.typing.ArrayLike, start: int, stop: int | None
) -> tuple[np.ndarray, bool, int, int]:
    """(w, single, start, stop) of a lattice call on ``cache``, or ``FitError``.

    ``weights`` must have shape (L,) or (C, L) for the cache's L components,
    every entry finite and nonnegative and every row summing to 1 within
    1e-9; ``w`` is it as (C, L) float64, and ``single`` says it was (L,).
    ``stop`` defaults to I, and 0 <= start <= stop <= I must hold.
    """
    ncomp, num_inc = len(cache.components), cache.num_increments
    stop = num_inc if stop is None else stop
    if not 0 <= start <= stop <= num_inc:
        raise FitError(
            f"increment range [{start}, {stop}) needs 0 <= start <= stop <= I = {num_inc}"
        )
    try:
        w = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError):
        raise FitError(f"weights must be numbers of shape ({ncomp},) or (C, {ncomp})") from None
    if w.ndim not in (1, 2) or w.shape[-1] != ncomp:
        raise FitError(f"weights of shape {w.shape} need shape ({ncomp},) or (C, {ncomp})")
    rows = np.atleast_2d(w)
    bad = np.argwhere(~(np.isfinite(rows) & (rows >= 0)))
    if len(bad):
        r, k = bad[0].tolist()
        raise FitError(f"weight row {r}, entry {k} is {rows[r, k]}, not finite and >= 0")
    off = np.flatnonzero(np.abs(rows.sum(axis=1) - 1.0) > 1e-9)
    if len(off):
        raise FitError(f"weight row {off[0]} sums to {rows[off[0]].sum()}, not 1")
    return rows, w.ndim == 1, start, stop


def _slab_plan(
    cache: ChoiceCache, width: int, starts: np.ndarray, stops: np.ndarray
) -> tuple[list, list[tuple[int, np.ndarray]]]:
    """How ranges [starts[r], stops[r]) are scored ``width`` weight vectors at a time.

    Returns (blocks, batches).  ``blocks`` holds (degree, slabs) for each
    collapsed degree with rows in some range.  A slab is the requested rows
    of the degree's coefficient block whose index has the same ``row //
    limit``, ``limit = _BUILD_CHUNK_ELEMENTS // width``, cut where a row is
    not requested: (coefs, incs, parts), the (n, monomials) view of its
    rows, their increments, and each range's (range, first row, end row) in
    it.  ``batches`` holds each range's row-path increments as (range,
    increments) runs of at most ``limit`` orderings or one increment.
    """
    limit = max(1, _BUILD_CHUNK_ELEMENTS // max(width, 1))
    blocks = []
    for degree in range(1, len(cache.poly_offsets) - 1):
        incs = cache.poly_increments[cache.poly_offsets[degree] : cache.poly_offsets[degree + 1]]
        lo = np.searchsorted(incs, starts)
        hi = np.searchsorted(incs, stops)
        held = np.flatnonzero(hi > lo)
        if not len(held):
            continue
        # part i holds the rows [a[i], b[i]) of range ranges[i] in window k[i]
        first_k, end_k = lo[held] // limit, (hi[held] - 1) // limit + 1
        ranges = np.repeat(held, end_k - first_k)
        k = _concat_ranges(first_k, end_k)
        a = np.maximum(lo[ranges], k * limit)
        b = np.minimum(hi[ranges], (k + 1) * limit)
        opens = np.append(True, (k[1:] != k[:-1]) | (a[1:] != b[:-1]))
        bounds = [*np.flatnonzero(opens).tolist(), len(k)]
        ranges, a, b = ranges.tolist(), a.tolist(), b.tolist()
        size = len(_monomial_exponents(len(cache.components), degree))
        base = cache.poly_coef_offsets[degree]
        slabs = []
        for x, y in zip(bounds[:-1], bounds[1:]):
            p, q = a[x], b[y - 1]
            coefs = cache.poly_coefs[base + p * size : base + q * size].reshape(q - p, size)
            slabs.append((coefs, incs[p:q], [(ranges[i], a[i] - p, b[i] - p) for i in range(x, y)]))
        blocks.append((degree, slabs))
    lo = np.searchsorted(cache.row_increments, starts)
    hi = np.searchsorted(cache.row_increments, stops)
    batches = []
    for r in np.flatnonzero(hi > lo).tolist():
        incs = cache.row_increments[lo[r] : hi[r]]
        orderings = cache.increment_offsets[incs + 1] - cache.increment_offsets[incs]
        batches += [(r, incs[x:y]) for x, y in _batches(orderings, limit)]
    return blocks, batches


def cache_logratios(
    cache: ChoiceCache,
    weights: np.typing.ArrayLike,
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """log(P / P_rand) per increment for each weight vector.

    ``weights`` is (C, L) or (L,), rows of finite, nonnegative weights that
    sum to 1; the result is (I_range, C) (or (I_range,) for a single
    vector).  Increment range [start, stop) slices the stream and must lie
    within [0, I]; it is scored slab by slab (``_slab_plan``).
    """
    w, single, start, stop = _checked_call(cache, weights, start, stop)
    out = np.empty((stop - start, w.shape[0]))
    blocks, batches = _slab_plan(cache, w.shape[0], np.array([start]), np.array([stop]))
    for degree, slabs in blocks:
        monomials = _monomials(w, degree)
        for coefs, incs, _ in slabs:
            with np.errstate(divide="ignore"):
                out[incs - start] = np.log(coefs @ monomials)
    for _, incs in batches:
        out[incs - start] = _row_logratios(cache, incs, w)
    return out[:, 0] if single else out


def _range_sums(
    cache: ChoiceCache, w: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> np.ndarray:
    """(R, C) total log-likelihood over each range [starts[r], stops[r]) for each weight vector.

    The ranges must be sorted, disjoint and within [0, I]; ``w`` is (C, L).
    Each chunk of ``_LATTICE_CHUNK`` weight vectors walks the slabs of
    ``_slab_plan``, writing each slab's product of coefficient rows and
    monomials, and then its log, into one buffer allocated once per call.
    A range's sum starts at its ``logp_rand`` total and adds, per chunk, the
    column sums of its parts in plan order, then its row-path batches.
    Slab windows are fixed, so a range scores the same alone or beside
    others whenever the matrix products give the same values.
    """
    out = np.empty((len(starts), len(w)))
    out[:] = [[cache.logp_rand[a:b].sum()] for a, b in zip(starts.tolist(), stops.tolist())]
    width = min(len(w), _LATTICE_CHUNK)
    blocks, batches = _slab_plan(cache, width, starts, stops)
    buf = np.empty(max((len(slab[0]) for _, slabs in blocks for slab in slabs), default=0) * width)
    for lo in range(0, len(w), _LATTICE_CHUNK):
        chunk = w[lo : lo + _LATTICE_CHUNK]
        total = out[:, lo : lo + _LATTICE_CHUNK]
        for degree, slabs in blocks:
            monomials = _monomials(chunk, degree)
            for coefs, _, parts in slabs:
                values = buf[: len(coefs) * len(chunk)].reshape(len(coefs), len(chunk))
                np.matmul(coefs, monomials, out=values)
                with np.errstate(divide="ignore"):
                    np.log(values, out=values)
                for r, a, b in parts:
                    total[r] += values[a:b].sum(axis=0)
        for r, incs in batches:
            total[r] += _row_logratios(cache, incs, chunk).sum(axis=0)
    return out


def cache_loglik(
    cache: ChoiceCache,
    weights: np.typing.ArrayLike,
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """Total log-likelihood over an increment range for many weight vectors.

    ``weights`` and [start, stop) are as for ``cache_logratios``.  This is
    ``_range_sums`` with one range, scored slab by slab like the fits, so a
    call holds one slab however long the range.
    """
    w, single, start, stop = _checked_call(cache, weights, start, stop)
    out = _range_sums(cache, w, np.array([start]), np.array([stop]))[0]
    return out[0] if single else out


def _as_schedule(schedule) -> ModelSchedule:
    if isinstance(schedule, Component):
        schedule = MixtureInterval.single(schedule)
    if isinstance(schedule, MixtureInterval):
        schedule = ModelSchedule.constant(schedule)
    if not isinstance(schedule, ModelSchedule):
        raise DegenerateModelError(f"cannot score under {schedule!r}")
    return schedule


def _schedule_weights(schedule: ModelSchedule):
    """A schedule's distinct components, and their (J, L) weights and member counts per interval."""
    components = list(dict.fromkeys(c for iv in schedule.intervals for c in iv.components))
    members = np.zeros((schedule.num_intervals, len(components)), dtype=np.int64)
    weights = np.zeros(members.shape)
    for j, iv in enumerate(schedule.intervals):
        for beta, comp in zip(iv.weights, iv.components):
            weights[j, components.index(comp)] += beta
            members[j, components.index(comp)] += 1
    return components, weights, members


def _int64_floors(values) -> np.ndarray:
    """The floors of numbers as int64, clamped to its range, NaN sorting above every key.

    An integer key lies at or below a number exactly when it lies at or
    below the number's floor, so searching int64 keys against the floors is
    exact for any key, where float64 holds only the keys below 2**53.  The
    comparisons run on Python numbers, which are exact across int and float.
    """
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    numbers = np.asarray(values, dtype=object).tolist()
    return np.array(
        [hi if not b <= hi else lo if b < lo else math.floor(b) for b in numbers], dtype=np.int64
    )


def _interval_indices(schedule: ModelSchedule, trace: DPTrace, first_index: int) -> np.ndarray:
    """``schedule.interval_index`` of every increment of a trace: bisect_left over the boundaries.

    The search runs on int64 and is exact for any timestamp (``_int64_floors``).
    """
    if schedule.boundary_mode is BoundaryMode.TIMESTAMP:
        keys = trace.timestamps
    else:
        keys = first_index + np.arange(trace.num_increments)
    return np.searchsorted(_int64_floors(schedule.boundaries), keys)


def _score(trace: DPTrace, schedule, first_index: int) -> tuple[np.ndarray, np.ndarray]:
    """(logp, fallback choices) per increment of a trace under a schedule.

    ``first_index`` is the stream index of the trace's first increment.
    Each increment is scored in log space at its interval's weights, zero
    for components that interval lacks; only its interval's components
    count fallbacks.
    """
    schedule = _as_schedule(schedule)
    components, weights, members = _schedule_weights(schedule)
    which = _interval_indices(schedule, trace, first_index)
    logp, fallbacks = _trace_logp(trace, components, weights[which])
    return logp, (members[which] * fallbacks.T).sum(axis=1)


def score_stream(
    source: GrowthStream | DPTrace, schedule, keep_series: bool = False
) -> tuple[LikelihoodSummary, list[IncrementScore] | None]:
    """Log-likelihood of a trace, or a stream's kept replay at the defaults, under a schedule.

    Returns (summary, series) with the uniform baseline; the per-increment
    series is kept only when ``keep_series`` is set.  The stream must be
    admissible (cleaned): a duplicate edge or unknown node raises from the
    replay.
    """
    trace = _as_trace(source)
    logp, fallbacks = _score(trace, schedule, 0)
    impossible = logp == _NEG_INF
    summary = LikelihoodSummary(
        loglik=float(logp.sum()),
        loglik_rand=float(trace.logp_rand.sum()),
        total_choices=trace.total_choices,
        increments=trace.num_increments,
        sampled_increments=trace.sampled_increments,
        fallback_choices=int(fallbacks.sum()),
        impossible_increments=int(impossible.sum()),
    )
    series = None
    if keep_series:
        series = [
            IncrementScore(*row)
            for row in zip(
                range(trace.num_increments),
                trace.timestamps.tolist(),
                logp.tolist(),
                trace.logp_rand.tolist(),
                trace.num_choices.tolist(),
                trace.sampled.tolist(),
                fallbacks.tolist(),
                impossible.tolist(),
            )
        ]
    return summary, series


def increment_probability(
    graph: DynamicGraph,
    inc: Increment,
    schedule,
    index: int = 0,
    seed: int = 0,
    ordering_samples: int = DEFAULT_ORDERING_SAMPLES,
) -> float:
    """Probability of one increment against a frozen graph (not log); the graph is unchanged.

    ``index`` is the increment's stream index, which with ``seed`` draws
    its orderings when it has more than ``MAX_EXHAUSTIVE_CHOICES`` choices.
    """
    cols = _columns([inc], graph.num_nodes)
    trace = _replay(graph, cols, index, seed, ordering_samples, MAX_EXHAUSTIVE_CHOICES)
    logp, _ = _score(trace, schedule, index)
    return math.exp(logp[0])
