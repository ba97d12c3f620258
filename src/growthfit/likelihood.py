"""Exact and sampled likelihood of an observed star stream under a model.

Every increment is scored against the graph frozen immediately before it.
An existing-tagged center is one choice over all current nodes; the
existing-tagged targets are chosen without replacement, and since the data
only reveal the set, the increment probability sums the product of per-step
probabilities over orderings of that set (center first, then targets).  New
nodes are not choices and contribute factor 1.

With q existing targets there are q! orderings.  When the increment's total
choice count m is at most ``max_exhaustive_choices`` the sum is exact;
otherwise it is estimated from ``ordering_samples`` uniformly drawn
orderings (with replacement), scaled by q!/S, which is unbiased on the
probability scale.  The per-increment sample RNG is seeded from
(seed, increment index) so every scoring method sees identical orderings.

Eligibility per target step: all current nodes, minus nodes already chosen
in this star, minus the center and its frozen neighborhood when the center
already existed (those edges would be duplicates).

One replay of the stream (``DPTrace``) records only integers that no model
parameter changes: per increment the graph size, the center and its frozen
neighborhood (ids and degrees), the existing targets (ids and degrees), and
the orderings to evaluate as positions among those targets.  When triangle
closure is among the components it also records each step's common-neighbor
count with its anchor and the anchor's total over the eligible set, using
the identity

    sum_x |G(a) n G(x)| over all x  =  sum_{u in G(a)} k_u

so each anchored total costs O(k_anchor) instead of O(N).  Every other
component total follows from the trace with whole-array operations:
degree-power totals from the seed degree histogram plus per-increment
histogram deltas, rank totals from prefix sums over arrival ranks, and each
step's eligible total by subtracting the shared exclusions (the center and
its neighborhood) and a prefix sum of the weights already chosen in the
ordering.

Under a per-node weight (degree power or rank), a step's eligible total
depends only on the *set* of targets already chosen, not on their order.
The exponent scans therefore score every exhaustive star by a dynamic
program over those sets: F(all) = 0 and

    F(S) = logsumexp over i not in S of [log w_i - log T(S) + F(S + i)]

with T(S) the base total minus the weights in S (the uniform -log(B - |S|)
replaces the step term when T(S) <= 0), so a star costs q * 2**(q - 1)
terms instead of q * q! ordering steps.  Sampled stars and triangle closure,
whose anchor-dependent weights do not factor, sum their orderings' steps.

A uniform-random baseline is computed in the same pass: the eligible set
shrinks by exactly one per step, so the baseline increment probability is
q! * prod 1/(B - s) with B the initial eligible count, exact even when the
model side is sampled.  The per-choice ratio c0 = exp((logL - logL_rand) /
sum m) then equals 1 exactly for the pure-random model because every
per-choice ratio is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, permutations
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateModelError, RejectedIncrementError, UndefinedRatioError
from .graph import DynamicGraph, GrowthStream, Increment, apply_increment, check_increment
from .models import (
    Component,
    DegreePower,
    MixtureInterval,
    ModelSchedule,
    Random,
    RankPreference,
    TriangleClosure,
)

MAX_EXHAUSTIVE_CHOICES = 5
# Increments whose ratio polynomial has degree (existing targets + 1) at most
# this are cached as coefficients.  A coefficient is a sum of fewer than
# L**12 products of at most 12 step ratios, far inside float64 range.
MAX_COLLAPSED_DEGREE = 12
DEFAULT_ORDERING_SAMPLES = 120
PROGRESS_EVERY = 10_000

_NEG_INF = float("-inf")
# Working-set caps, in float64 elements: per-ordering coefficients during the
# collapse, and mixed step values on the row path.
_COLLAPSE_BATCH_ELEMENTS = 1 << 20
_ROW_BATCH_ELEMENTS = 1 << 21
# Weight vectors cache_loglik scores at once.
_LATTICE_CHUNK = 256


def _log_factorial(q: int) -> float:
    """log q!, bit-stable across call sites (exact float conversion when small)."""
    if q < 2:
        return 0.0
    if q <= 170:
        return math.log(float(math.factorial(q)))
    return math.lgamma(q + 1.0)


@lru_cache(maxsize=None)
def _permutation_table(q: int) -> np.ndarray:
    """(q!, q) positions of every ordering of q items, in itertools order."""
    table = np.array(list(permutations(range(q))), dtype=np.intp).reshape(math.factorial(q), q)
    table.setflags(write=False)
    return table


def _ordering_positions(
    inc: Increment,
    index: int,
    seed: int,
    max_exhaustive_choices: int,
    ordering_samples: int,
) -> tuple[np.ndarray, bool, float]:
    """Orderings as rows of positions among ``inc.existing_targets``.

    Also returns (sampled?, log multiplier for the sum): exhaustive mode
    multiplies the sum by 1 (all q! orderings enumerated), sampled mode by
    q!/S.  Seeding from (seed, index) keeps every scorer on identical draws.
    """
    q = inc.num_choices - (0 if inc.center_is_new else 1)
    if q == 0 or inc.num_choices <= max_exhaustive_choices:
        return _permutation_table(q), False, 0.0
    rng = np.random.default_rng([seed, index])
    draws = np.array([rng.permutation(q) for _ in range(ordering_samples)], dtype=np.intp)
    return draws.reshape(ordering_samples, q), True, _log_factorial(q) - math.log(
        float(ordering_samples)
    )


def orderings_for_increment(
    inc: Increment,
    index: int,
    seed: int,
    max_exhaustive_choices: int = MAX_EXHAUSTIVE_CHOICES,
    ordering_samples: int = DEFAULT_ORDERING_SAMPLES,
) -> tuple[list[tuple[int, ...]], bool, float]:
    """Orderings to evaluate (as node tuples) plus (sampled?, log multiplier for the sum)."""
    positions, sampled, log_mult = _ordering_positions(
        inc, index, seed, max_exhaustive_choices, ordering_samples
    )
    existing = inc.existing_targets
    return [tuple(existing[j] for j in row) for row in positions.tolist()], sampled, log_mult


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

    Orderings are rows of positions among an increment's existing targets;
    their steps ("entries") are laid out ordering after ordering.  Index
    arrays that no model parameter changes are built here once, so scoring a
    component at any exponent is whole-array work.  ``tri_common`` and
    ``tri_total`` are recorded only when triangle closure was requested.
    The subset-DP and sampled-ordering tables of the exponent scans are
    built on first use and kept with the trace.
    """

    timestamps: np.ndarray  # (I,) int64
    num_choices: np.ndarray  # (I,) int64
    num_nodes: np.ndarray  # (I,) int64, graph size when scored
    center: np.ndarray  # (I,) int64
    center_new: np.ndarray  # (I,) bool
    center_deg: np.ndarray  # (I,) int64, 0 for new centers
    gain: np.ndarray  # (I,) int64, edges the increment adds
    existing_counts: np.ndarray  # (I,) int64, existing targets q
    sampled: np.ndarray  # (I,) bool
    log_mult: np.ndarray  # (I,) float64
    logp_rand: np.ndarray  # (I,) float64
    h0: np.ndarray  # (K,) float64 seed-graph degree histogram, K past any degree reached
    shared_inc: np.ndarray  # (SD,) owning increment of each excluded center or neighbor
    shared_id: np.ndarray  # (SD,)
    shared_deg: np.ndarray  # (SD,)
    target_inc: np.ndarray  # (Q,) owning increment of each existing target
    target_deg: np.ndarray  # (Q,)
    target_id: np.ndarray  # (Q,) arrival index
    inc_ord_offsets: np.ndarray  # (I + 1,) ordering ranges per increment
    ordering_offsets: np.ndarray  # (O + 1,) entry ranges per ordering
    entry_ord: np.ndarray  # (E,) owning ordering
    entry_inc: np.ndarray  # (E,) owning increment
    entry_first: np.ndarray  # (E,) first entry of the owning ordering
    entry_target: np.ndarray  # (E,) chosen target, as a position in the target arrays
    first_ordering: np.ndarray  # (E,) bool, entry of its increment's first ordering
    eligible: np.ndarray  # (E,) float64 eligible-set size
    tri_common: np.ndarray | None  # (E,) int64 common neighbors with the anchor
    tri_total: np.ndarray | None  # (E,) int64 anchor total over the eligible set

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
        """(E,) degree of each entry's chosen node."""
        return self.target_deg[self.entry_target]

    @cached_property
    def _subset_groups(self) -> list[_SubsetGroup]:
        """Subset-DP tables of the exhaustive increments with existing targets, one per q."""
        exhaustive = ~self.sampled & (self.existing_counts > 0)
        target_start = _offsets(self.existing_counts)[:-1]
        groups = []
        for q in np.unique(self.existing_counts[exhaustive]).tolist():
            incs = np.flatnonzero(exhaustive & (self.existing_counts == q))
            steps = np.arange(q)[:, None]
            targets = target_start[incs] + steps
            initial = self.eligible[self.ordering_offsets[self.inc_ord_offsets[incs]]]
            on = (self.target_deg[targets] > 0).astype(np.float64)
            occupied = self._occupied_base[incs] - _subset_lattice(q)[0] @ on > 0.0
            groups.append(_SubsetGroup(incs, targets, -np.log(initial - steps), occupied))
        return groups

    @cached_property
    def _occupied_base(self) -> np.ndarray:
        """(I,) nodes of positive degree in each increment's initial eligible set.

        Exact, since a 0/1 degree table sums to small integers.  A degree
        power weighs nothing else, so its eligible total is zero exactly
        where this count is.
        """
        return _degree_totals(self, (np.arange(len(self.h0)) > 0).astype(np.float64))[1]

    @cached_property
    def _sampled_orderings(self) -> _OrderingEntries:
        """The entries of the sampled increments' orderings."""
        return _ordering_entries(self, np.flatnonzero(self.sampled))


@dataclass
class _SubsetGroup:
    """Exponent-free subset-DP tables of the exhaustive increments with q existing targets."""

    incs: np.ndarray  # (n,) increments
    targets: np.ndarray  # (q, n) existing targets, as positions in the trace's target arrays
    uniform: np.ndarray  # (q, n) -log(B - l), a uniform step's log-probability at level l
    occupied: np.ndarray  # (2**q - 1, n) bool, a node of positive degree left after each subset


@dataclass
class _OrderingEntries:
    """The entries of some increments' orderings, in trace order."""

    incs: np.ndarray  # (n,) increments, each with at least one existing target
    entries: np.ndarray  # (e,) entry indices
    first: np.ndarray  # (e,) position in ``entries`` of the owning ordering's first entry
    ordering: np.ndarray  # (e,) owning ordering, numbered from 0 over the selection
    counts: np.ndarray  # (n,) orderings per increment


def _offsets(sizes) -> np.ndarray:
    """[0, s0, s0 + s1, ...]: the bounds of consecutive segments of the given sizes."""
    return np.concatenate(([0], np.cumsum(sizes)))


def _flat(parts: list[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate([p.ravel() for p in parts]).astype(dtype) if parts else np.zeros(0, dtype)


def _exclusive_prefix(values: np.ndarray, entry_first: np.ndarray) -> np.ndarray:
    """Per entry, the sum of the earlier entries of its ordering."""
    before = _offsets(values)[:-1]
    return before - before[entry_first]


def _ordering_entries(trace: DPTrace, incs: np.ndarray) -> _OrderingEntries:
    """Index the entries of the given increments' orderings as a selection of their own."""
    ords = _concat_ranges(trace.inc_ord_offsets[incs], trace.inc_ord_offsets[incs + 1])
    lengths = np.diff(trace.ordering_offsets)[ords]
    ordering = np.repeat(np.arange(len(ords)), lengths)
    return _OrderingEntries(
        incs=incs,
        entries=_concat_ranges(trace.ordering_offsets[ords], trace.ordering_offsets[ords + 1]),
        first=_offsets(lengths)[ordering],
        ordering=ordering,
        counts=np.diff(trace.inc_ord_offsets)[incs],
    )


def _anchor_rows(
    graph: DynamicGraph, inc: Increment, existing: tuple[int, ...], positions: np.ndarray
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Triangle-closure rows of the anchors an increment's orderings use.

    Returns the rows laid end to end, each holding the anchor's
    common-neighbor count with every existing target (0 for the anchor
    itself), then per ordering the start of its anchor's row and the
    anchor's total over the initial eligible set.  An existing center is
    the anchor of every ordering; otherwise each ordering anchors on its
    first target.
    """
    degs = graph.degrees
    if not existing:
        nothing = np.zeros(len(positions), dtype=np.int64)
        return [], nothing, nothing
    if not inc.center_is_new:
        c = inc.center
        nbrs = graph.neighbors(c)
        wedges = sum(graph.common_neighbor_count(c, v) for v in nbrs)
        rows = [[graph.common_neighbor_count(c, x) for x in existing]]
        totals = [sum(degs[u] for u in nbrs) - degs[c] - wedges]
        ord_rows = np.zeros(len(positions), dtype=np.int64)
    else:
        firsts = positions[:, 0].tolist()
        slot = {a: i for i, a in enumerate(dict.fromkeys(firsts))}
        rows, totals = [], []
        for a in slot:
            x = existing[a]
            rows.append(
                [0 if b == a else graph.common_neighbor_count(x, y) for b, y in enumerate(existing)]
            )
            totals.append(sum(degs[u] for u in graph.neighbors(x)) - degs[x])
        ord_rows = np.array([slot[a] for a in firsts], dtype=np.int64)
    return list(chain.from_iterable(rows)), len(existing) * ord_rows, np.array(totals)[ord_rows]


# Per-increment columns of a replay, in the order _replay records them.
_INCREMENT_COLUMNS = (
    ("timestamps", np.int64),
    ("num_choices", np.int64),
    ("num_nodes", np.int64),
    ("center", np.int64),
    ("center_new", bool),
    ("center_deg", np.int64),
    ("gain", np.int64),
    ("initial_eligible", np.int64),
    ("sampled", bool),
    ("log_mult", np.float64),
    ("logp_rand", np.float64),
    ("shared_count", np.int64),
)


def _replay(
    graph: DynamicGraph,
    increments: Sequence[Increment],
    first_index: int,
    components: Sequence[Component],
    seed: int,
    max_exhaustive_choices: int,
    ordering_samples: int,
    progress: Callable[[int, int], None] | None = None,
) -> DPTrace:
    """Walk the increments once from ``graph`` (mutated), recording a DPTrace.

    ``first_index`` is the stream index of the first increment, which seeds
    its ordering sample.  Triangle data are recorded only when
    ``components`` include triangle closure.
    """
    triangles = any(isinstance(c, TriangleClosure) for c in components)
    degs = graph.degrees
    h0 = np.bincount(np.asarray(degs, dtype=np.int64), minlength=1)
    rows: list[tuple] = []
    shared_id: list[int] = []
    shared_deg: list[int] = []
    target_id: list[int] = []
    target_deg: list[int] = []
    orderings: list[np.ndarray] = []
    tri_values: list[int] = []
    ord_tri_start: list[np.ndarray] = []
    ord_tri_total: list[np.ndarray] = []
    total = len(increments)

    for k, inc in enumerate(increments):
        index = first_index + k
        n = graph.num_nodes
        existing = inc.existing_targets
        q = len(existing)
        # Validate before any degree lookup, so an unknown node raises its own error.
        check_increment(graph, inc)
        if inc.center_is_new:
            kc = 0
            eligible = n
        else:
            kc = degs[inc.center]
            eligible = n - 1 - kc
            nbrs = graph.neighbors(inc.center)
            shared_id.append(inc.center)
            shared_id.extend(nbrs)
            shared_deg.append(kc)
            shared_deg.extend([degs[v] for v in nbrs])
        if q > eligible:
            raise RejectedIncrementError(
                f"increment {index}: {q} existing targets but only "
                f"{eligible} eligible candidates"
            )
        positions, sampled, log_mult = _ordering_positions(
            inc, index, seed, max_exhaustive_choices, ordering_samples
        )
        orderings.append(positions)
        target_id.extend(existing)
        target_deg.extend([degs[x] for x in existing])
        if triangles:
            values, starts, totals = _anchor_rows(graph, inc, existing, positions)
            ord_tri_start.append(len(tri_values) + starts)
            ord_tri_total.append(totals)
            tri_values.extend(values)

        # Assembled with one fixed grouping (fsum over steps, then + log q!,
        # then + center), so every path reads the same baseline bits.
        center_rand = 0.0 if inc.center_is_new else -math.log(float(n))
        rand_steps = math.fsum(-math.log(float(eligible - s)) for s in range(q))
        rows.append(
            (
                inc.timestamp,
                inc.num_choices,
                n,
                inc.center,
                inc.center_is_new,
                kc,
                len(inc.targets),
                eligible,
                sampled,
                log_mult,
                center_rand + (rand_steps + _log_factorial(q)),
                0 if inc.center_is_new else kc + 1,
            )
        )
        apply_increment(graph, inc)
        if progress is not None and (k + 1) % PROGRESS_EVERY == 0:
            progress(k + 1, total)
    if progress is not None:
        progress(total, total)

    columns = zip(*rows) if rows else [()] * len(_INCREMENT_COLUMNS)
    arrays = {
        name: np.array(values, dtype=dtype)
        for (name, dtype), values in zip(_INCREMENT_COLUMNS, columns)
    }
    shared_count = arrays.pop("shared_count")
    initial_eligible = arrays.pop("initial_eligible")
    num_inc = len(increments)
    existing_counts = np.array([p.shape[1] for p in orderings], dtype=np.int64)
    ord_counts = np.array([p.shape[0] for p in orderings], dtype=np.int64)
    inc_ord_offsets = _offsets(ord_counts)
    ord_len = np.repeat(existing_counts, ord_counts)
    ordering_offsets = _offsets(ord_len)
    entry_ord = np.repeat(np.arange(len(ord_len)), ord_len)
    entry_inc = np.repeat(np.arange(num_inc), ord_counts)[entry_ord]
    entry_first = ordering_offsets[entry_ord]
    entry_step = np.arange(len(entry_ord)) - entry_first
    positions = _flat(orderings, np.int64)

    tri_common = tri_total = None
    if triangles:
        tri_common = np.array(tri_values, dtype=np.int64)[
            _flat(ord_tri_start, np.int64)[entry_ord] + positions
        ]
        tri_total = _flat(ord_tri_total, np.int64)[entry_ord] - _exclusive_prefix(
            tri_common, entry_first
        )
        # The first leaf of a new-center star has no anchor: uniform fallback.
        no_anchor = arrays["center_new"][entry_inc] & (entry_step == 0)
        tri_common[no_anchor] = 0
        tri_total[no_anchor] = 0

    kmax = max(
        len(h0) - 1,
        1,
        int((arrays["center_deg"] + arrays["gain"]).max(initial=0)),
        max(target_deg, default=-1) + 1,
    )
    return DPTrace(
        **arrays,
        existing_counts=existing_counts,
        h0=np.pad(h0, (0, kmax + 1 - len(h0))).astype(np.float64),
        shared_inc=np.repeat(np.arange(num_inc), shared_count),
        shared_id=np.array(shared_id, dtype=np.int64),
        shared_deg=np.array(shared_deg, dtype=np.int64),
        target_inc=np.repeat(np.arange(num_inc), existing_counts),
        target_deg=np.array(target_deg, dtype=np.int64),
        target_id=np.array(target_id, dtype=np.int64),
        inc_ord_offsets=inc_ord_offsets,
        ordering_offsets=ordering_offsets,
        entry_ord=entry_ord,
        entry_inc=entry_inc,
        entry_first=entry_first,
        entry_target=_offsets(existing_counts)[entry_inc] + positions,
        first_ordering=entry_ord == inc_ord_offsets[entry_inc],
        eligible=(initial_eligible[entry_inc] - entry_step).astype(np.float64),
        tri_common=tri_common,
        tri_total=tri_total,
    )


def _stream_trace(
    stream: GrowthStream,
    components: Sequence[Component],
    seed: int = 0,
    max_exhaustive_choices: int = MAX_EXHAUSTIVE_CHOICES,
    ordering_samples: int = DEFAULT_ORDERING_SAMPLES,
    progress: Callable[[int, int], None] | None = None,
) -> DPTrace:
    """Replay a stream from its seed graph for the given components."""
    return _replay(
        stream.seed_graph(),
        stream.increments,
        0,
        components,
        seed,
        max_exhaustive_choices,
        ordering_samples,
        progress,
    )


def build_dp_trace(
    stream: GrowthStream,
    seed: int = 0,
    max_exhaustive_choices: int = MAX_EXHAUSTIVE_CHOICES,
    ordering_samples: int = DEFAULT_ORDERING_SAMPLES,
) -> DPTrace:
    """Replay a stream once for degree-power (or any non-triangle) scoring."""
    return _stream_trace(stream, (), seed, max_exhaustive_choices, ordering_samples)


def _degree_powers(size: int, alpha: float) -> np.ndarray:
    """k**alpha for k = 0..size - 1, with the degree-0 conventions of ``models``."""
    if alpha == 0.0:
        return np.ones(size)
    with np.errstate(divide="ignore"):
        table = np.arange(size, dtype=np.float64) ** alpha
    table[0] = 0.0
    return table


def _degree_totals(trace: DPTrace, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whole-graph and base totals of a per-degree weight table, per increment.

    The base total covers an increment's initial eligible set: the whole
    graph minus the center and its neighborhood when the center existed.
    """
    num_inc = trace.num_increments
    # Histogram deltas: existing nodes leave their old degree bin; new
    # nodes only appear at their final degree.
    grown = table[trace.center_deg + trace.gain] - np.where(
        trace.center_new, 0.0, table[trace.center_deg]
    )
    grown += np.bincount(
        trace.target_inc,
        weights=table[trace.target_deg + 1] - table[trace.target_deg],
        minlength=num_inc,
    )
    grown += (trace.gain - trace.existing_counts) * table[1]
    whole = float(trace.h0 @ table) + _offsets(grown)[:-1]
    shared = np.bincount(trace.shared_inc, weights=table[trace.shared_deg], minlength=num_inc)
    return whole, whole - shared


def _node_weights(
    trace: DPTrace, comp: Component
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-target weight, base total, per-center weight and whole-graph total of a node weight."""
    if isinstance(comp, DegreePower):
        table = _degree_powers(len(trace.h0), comp.alpha)
        whole, base = _degree_totals(trace, table)
        return table[trace.target_deg], base, table[trace.center_deg], whole
    if isinstance(comp, RankPreference):
        ranks = np.arange(1, trace.num_nodes.max(initial=0) + 2, dtype=np.float64) ** -comp.alpha
        whole = _offsets(ranks)[trace.num_nodes]
        shared = np.bincount(
            trace.shared_inc, weights=ranks[trace.shared_id], minlength=trace.num_increments
        )
        return ranks[trace.target_id], whole - shared, ranks[trace.center], whole
    raise DegenerateModelError(f"no likelihood for {comp!r}")


def _zero_at_degree_zero(comp: Component) -> bool:
    """Whether exactly the nodes of degree 0 weigh nothing (a nonzero degree exponent)."""
    return isinstance(comp, DegreePower) and comp.alpha != 0.0


def _step_totals(
    trace: DPTrace,
    comp: Component,
    target_w: np.ndarray,
    base: np.ndarray,
    entries: np.ndarray | slice,
    first: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(weight, eligible total) of the chosen node of each given entry under a node weight.

    ``first`` holds the start of each entry's ordering as a position among
    ``entries``.  A degree-power total whose eligible set holds no node of
    positive degree is exactly 0, however its difference of sums rounds.
    """
    chosen = target_w[trace.entry_target[entries]]
    total = base[trace.entry_inc[entries]] - _exclusive_prefix(chosen, first)
    # Only a star with fewer eligible nodes of positive degree than targets
    # can run out of them.
    if _zero_at_degree_zero(comp) and (trace._occupied_base < trace.existing_counts).any():
        on = (trace.target_deg[trace.entry_target[entries]] > 0).astype(np.float64)
        occupied = trace._occupied_base[trace.entry_inc[entries]] - _exclusive_prefix(on, first)
        total[occupied <= 0.0] = 0.0
    return chosen, total


def _choice_weights(
    trace: DPTrace, comp: Component
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-step and per-center (weight, total) of one component.

    Step totals cover each step's eligible set and center totals the whole
    graph; a total <= 0 means the choice falls back to uniform.  Center
    values of new centers are never read.
    """
    num_inc = trace.num_increments
    whole_graph = trace.num_nodes.astype(np.float64)
    if isinstance(comp, Random):
        return np.ones(len(trace.eligible)), trace.eligible, np.ones(num_inc), whole_graph
    if isinstance(comp, TriangleClosure):
        # Star sources are picked uniformly under triangle closure.
        return (
            trace.tri_common.astype(np.float64),
            trace.tri_total.astype(np.float64),
            np.ones(num_inc),
            whole_graph,
        )
    target_w, base, center, whole = _node_weights(trace, comp)
    chosen, step_total = _step_totals(trace, comp, target_w, base, slice(None), trace.entry_first)
    return chosen, step_total, center, whole


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


def _orderings_logp(
    step_w: np.ndarray,
    step_total: np.ndarray,
    eligible: np.ndarray,
    ordering: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Per increment, log of the sum over its orderings of their step probabilities' product.

    Steps are laid out ordering after ordering: ``ordering`` numbers each
    step's ordering and ``counts`` gives each increment's ordering count.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.where(step_total > 0.0, np.log(step_w) - np.log(step_total), -np.log(eligible))
    ord_logp = np.bincount(ordering, weights=step, minlength=int(counts.sum()))
    return _segment_logsumexp(ord_logp, counts)


@lru_cache(maxsize=None)
def _subset_lattice(q: int) -> tuple[np.ndarray, tuple]:
    """The proper subsets of q targets by size, and each one's one-larger supersets.

    Returns (members, levels).  Row r of ``members`` (2**q - 1, q) marks the
    targets in subset r, subsets ordered by size.  ``levels[l]`` is (lo, hi,
    child, added) for the subsets of size l, rows [lo, hi): adding target
    ``added[s, c]`` to subset lo + s gives the subset ``child[s, c]`` among
    those of size l + 1 (the full set is 0 of its own level).
    """
    by_size = [[s for s in range(1 << q) if bin(s).count("1") == size] for size in range(q + 1)]
    rank = {s: r for sets in by_size for r, s in enumerate(sets)}
    members = np.array(
        [[s >> j & 1 for j in range(q)] for sets in by_size[:q] for s in sets], dtype=np.float64
    )
    starts = _offsets([len(sets) for sets in by_size]).tolist()
    levels = []
    for size in range(q):
        free = [[j for j in range(q) if not s >> j & 1] for s in by_size[size]]
        child = [[rank[s | 1 << j] for j in js] for s, js in zip(by_size[size], free)]
        child_rows = np.array(child, dtype=np.intp)
        levels.append((starts[size], starts[size + 1], child_rows, np.array(free, dtype=np.intp)))
    return members, tuple(levels)


def _subset_logp(
    group: _SubsetGroup, target_w: np.ndarray, base: np.ndarray, zero_at_degree_zero: bool
) -> np.ndarray:
    """Log of the sum over orderings of a group's targets, by dynamic programming over chosen sets.

    F(all) = 0 and F(S) = logsumexp over i not in S of [log w_i + F(S + i)]
    - log T(S), with T(S) = base - sum of w_j over j in S; when T(S) <= 0
    the step is uniform over the B - |S| eligible nodes instead.  The result
    is F of the empty set, per increment.  ``zero_at_degree_zero`` makes
    T(S) zero exactly where no node of positive degree is left eligible.
    """
    q = len(group.targets)
    members, levels = _subset_lattice(q)
    w = target_w[group.targets]
    total = base[group.incs] - members @ w
    positive = total > 0.0
    if zero_at_degree_zero:
        positive &= group.occupied
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.log(w)
        log_total = np.log(total)
    fallback = not positive.all()
    f = np.zeros((1, len(group.incs)))
    for size in reversed(range(q)):
        lo, hi, child, added = levels[size]
        terms = np.where(positive[lo:hi, None], log_w[added], 0.0) if fallback else log_w[added]
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
        step = -log_total[lo:hi]
        f += np.where(positive[lo:hi], step, group.uniform[size]) if fallback else step
    return f[0]


def _trace_logp(trace: DPTrace, comp: Component) -> np.ndarray:
    """Per-increment log-probability under one component, reduced in log space.

    The uniform model (RAND, or exponent 0) returns the baseline itself, so
    that identity holds bit for bit rather than to within summation noise.
    Node weights score exhaustive stars by the subset DP and sampled ones by
    their orderings; triangle closure sums every star's orderings.
    """
    if isinstance(comp, Random) or comp == DegreePower(0.0):
        return trace.logp_rand.copy()
    if isinstance(comp, TriangleClosure):
        step_w, step_total, center_w, center_total = _choice_weights(trace, comp)
        targets = _orderings_logp(
            step_w, step_total, trace.eligible, trace.entry_ord, np.diff(trace.inc_ord_offsets)
        )
    else:
        target_w, base, center_w, center_total = _node_weights(trace, comp)
        targets = np.zeros(trace.num_increments)
        for group in trace._subset_groups:
            targets[group.incs] = _subset_logp(group, target_w, base, _zero_at_degree_zero(comp))
        sampled = trace._sampled_orderings
        chosen, step_total = _step_totals(
            trace, comp, target_w, base, sampled.entries, sampled.first
        )
        targets[sampled.incs] = _orderings_logp(
            chosen, step_total, trace.eligible[sampled.entries], sampled.ordering, sampled.counts
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        center = np.where(
            center_total > 0.0,
            np.log(center_w) - np.log(center_total),
            -np.log(trace.num_nodes.astype(np.float64)),
        )
    return np.where(trace.center_new, 0.0, center) + trace.log_mult + targets


def dp_trace_logp(trace: DPTrace, alpha: float) -> np.ndarray:
    """Per-increment log-probability under a single degree-power component.

    Exponent 0 is the uniform model, so it returns the baseline itself and
    the identity holds bit for bit rather than to within summation noise.
    """
    return _trace_logp(trace, DegreePower(alpha))


def dp_trace_loglik(trace: DPTrace, alphas) -> np.ndarray:
    """Total log-likelihood at each exponent (scalar in, scalar out)."""
    scalar = np.isscalar(alphas)
    values = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
    out = np.array([float(dp_trace_logp(trace, float(a)).sum()) for a in values])
    return float(out[0]) if scalar else out


@dataclass
class ChoiceCache:
    """Mixture-weight-independent per-choice ratios for fast weight fitting.

    Built from a ``DPTrace``.  Per target step and component: (component
    prob / uniform prob) over the step's eligible set; per center and
    component: the same ratio over all nodes, with all-ones rows for new
    centers (so any convex combination gives factor 1).  For weights w, the
    step mixture ratio is the dot product, ordering ratios multiply,
    increments sum orderings and scale by ``inv_norm`` (1/q! exhaustive, 1/S
    sampled); the log of the result is logp - logp_rand for the increment.

    That ratio is a homogeneous polynomial of degree q + 1 in w with
    non-negative coefficients.  Increments of degree at most
    ``MAX_COLLAPSED_DEGREE`` are stored collapsed to those coefficients, so
    scoring one costs a dot product with the degree's monomials of w however
    many orderings and steps it has.  Larger stars keep the row path: their
    step rows are mixed, logged and summed per ordering, and the orderings
    are combined by a max-shifted logsumexp, so a long product of small
    ratios cannot underflow.  The step rows and offsets are kept for every
    increment as the replay record; an increment without existing targets
    has one ordering of no steps.
    """

    components: tuple[Component, ...]
    step_ratios: np.ndarray  # (T, L) float64
    ordering_offsets: np.ndarray  # (O + 1,) int64, step row ranges
    increment_offsets: np.ndarray  # (I + 1,) int64, ordering ranges
    center_ratios: np.ndarray  # (I, L) float64
    inv_norm: np.ndarray  # (I,) float64
    num_choices: np.ndarray  # (I,) int64
    timestamps: np.ndarray  # (I,) int64
    logp_rand: np.ndarray  # (I,) float64
    poly_coefs: np.ndarray  # (K,) float64, per degree an (increments, monomials) block
    poly_increments: np.ndarray  # (P,) int64, collapsed increments, ascending within a degree
    poly_offsets: np.ndarray  # (MAX_COLLAPSED_DEGREE + 2,) int64, poly_increments range per degree
    poly_coef_offsets: np.ndarray  # (MAX_COLLAPSED_DEGREE + 2,) int64, poly_coefs range per degree
    row_increments: np.ndarray  # (R,) int64, increments above the cap, ascending
    sampled_increments: int
    fallback_choices: int

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


def _concat_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenation of arange(lo[i], hi[i]) over i."""
    lengths = hi - lo
    return np.repeat(lo - _offsets(lengths)[:-1], lengths) + np.arange(int(lengths.sum()))


def _batches(sizes: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive index ranges over ``sizes``, each totalling under ``budget`` plus one item."""
    if len(sizes) == 0:
        return []
    span = _offsets(sizes)[:-1] // budget
    cuts = np.flatnonzero(np.diff(span)) + 1
    bounds = [0, *cuts.tolist(), len(sizes)]
    return list(zip(bounds[:-1], bounds[1:]))


def _collapse(
    step_ratios: np.ndarray,
    ordering_offsets: np.ndarray,
    increment_offsets: np.ndarray,
    center_ratios: np.ndarray,
    inv_norm: np.ndarray,
    existing_counts: np.ndarray,
) -> dict[str, np.ndarray]:
    """Polynomial coefficients of every increment of degree <= MAX_COLLAPSED_DEGREE.

    Per ordering, the coefficients start at 1 and are multiplied by one step
    row's linear form per step, for all orderings of one q at once; then they
    are summed over each increment's orderings, scaled by ``inv_norm`` and
    multiplied by the center row.  A pure-random ratio is an exact product
    of ones, so its coefficient is the ordering count times ``inv_norm``.
    """
    ncomp = center_ratios.shape[1]
    degrees = existing_counts + 1
    order = np.argsort(degrees, kind="stable")
    collapsed = order[degrees[order] <= MAX_COLLAPSED_DEGREE]
    counts = np.bincount(degrees[collapsed], minlength=MAX_COLLAPSED_DEGREE + 1)
    blocks: list[np.ndarray] = []
    coef_sizes = [0] * (MAX_COLLAPSED_DEGREE + 1)
    for degree in range(1, MAX_COLLAPSED_DEGREE + 1):
        incs = collapsed[degrees[collapsed] == degree]
        q = degree - 1
        orderings = increment_offsets[incs + 1] - increment_offsets[incs]
        size = len(_monomial_exponents(ncomp, degree))
        coef_sizes[degree] = len(incs) * size
        for a, b in _batches(orderings, max(1, _COLLAPSE_BATCH_ELEMENTS // size)):
            part = incs[a:b]
            if q == 0:
                poly = np.ones((len(part), 1))
            else:
                ords = _concat_ranges(increment_offsets[part], increment_offsets[part + 1])
                first_row = ordering_offsets[ords]
                poly = np.ones((len(ords), 1))
                for s in range(q):
                    poly = _times_linear(poly, step_ratios[first_row + s], s + 1)
                poly = np.add.reduceat(poly, _offsets(orderings[a:b])[:-1], axis=0)
            poly *= inv_norm[part, None]
            blocks.append(_times_linear(poly, center_ratios[part], degree).ravel())
    return {
        "poly_coefs": np.concatenate(blocks) if blocks else np.zeros(0),
        "poly_increments": collapsed.astype(np.int64),
        "poly_offsets": _offsets(counts),
        "poly_coef_offsets": _offsets(coef_sizes),
        "row_increments": np.flatnonzero(degrees > MAX_COLLAPSED_DEGREE).astype(np.int64),
    }


def _choice_cache(
    trace: DPTrace, components: Sequence[Component]
) -> tuple[ChoiceCache, np.ndarray]:
    """The weight-fitting cache of a trace, plus (L, I) fallback choices per component.

    Fallbacks are counted on the center and on the first ordering's steps.
    """
    num_inc = trace.num_increments
    step_ratios = np.empty((len(trace.eligible), len(components)))
    center_ratios = np.ones((num_inc, len(components)))
    fallbacks = np.zeros((len(components), num_inc), dtype=np.int64)
    whole_graph = trace.num_nodes.astype(np.float64)
    for l, comp in enumerate(components):
        step_w, step_total, center_w, center_total = _choice_weights(trace, comp)
        center_fallback = ~trace.center_new & (center_total <= 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            # multiply first so a uniform component cancels exactly to 1.0
            step_ratios[:, l] = np.where(
                step_total > 0.0, step_w * trace.eligible / step_total, 1.0
            )
            center_ratios[:, l] = np.where(
                trace.center_new | center_fallback, 1.0, center_w * whole_graph / center_total
            )
        fallbacks[l] = center_fallback + np.bincount(
            trace.entry_inc[trace.first_ordering & (step_total <= 0.0)], minlength=num_inc
        )
    arrays = {
        "step_ratios": step_ratios,
        "ordering_offsets": trace.ordering_offsets,
        "increment_offsets": trace.inc_ord_offsets,
        "center_ratios": center_ratios,
        "inv_norm": 1.0 / np.diff(trace.inc_ord_offsets),
    }
    cache = ChoiceCache(
        components=tuple(components),
        **arrays,
        num_choices=trace.num_choices,
        timestamps=trace.timestamps,
        logp_rand=trace.logp_rand,
        **_collapse(**arrays, existing_counts=trace.existing_counts),
        sampled_increments=trace.sampled_increments,
        fallback_choices=int(fallbacks.sum()),
    )
    return cache, fallbacks


def build_choice_cache(
    stream: GrowthStream,
    components: Sequence[Component],
    seed: int = 0,
    max_exhaustive_choices: int = MAX_EXHAUSTIVE_CHOICES,
    ordering_samples: int = DEFAULT_ORDERING_SAMPLES,
    progress: Callable[[int, int], None] | None = None,
) -> ChoiceCache:
    """One replay pass recording everything weight fitting needs.

    The cache depends on the component list but not on mixture weights or
    interval boundaries, so a single build serves every partition depth and
    every weight-grid point.
    """
    trace = _stream_trace(
        stream, components, seed, max_exhaustive_choices, ordering_samples, progress
    )
    return _choice_cache(trace, components)[0]


def _row_logratios(cache: ChoiceCache, incs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """log(P / P_rand) from step rows, in log space, for increments above the cap."""
    ord_lo = cache.increment_offsets[incs]
    ord_hi = cache.increment_offsets[incs + 1]
    ords = _concat_ranges(ord_lo, ord_hi)
    row_lo = cache.ordering_offsets[ords]
    row_hi = cache.ordering_offsets[ords + 1]
    ord_log = np.empty((len(ords), w.shape[0]))
    for a, b in _batches(row_hi - row_lo, max(1, _ROW_BATCH_ELEMENTS // w.shape[0])):
        step_log = cache.step_ratios[_concat_ranges(row_lo[a:b], row_hi[a:b])] @ w.T
        with np.errstate(divide="ignore"):
            np.log(step_log, out=step_log)
        ord_log[a:b] = np.add.reduceat(step_log, _offsets(row_hi[a:b] - row_lo[a:b])[:-1], axis=0)
    # Scaling the shifted sum before the log makes S orderings of ratio 1
    # give log(S * (1/S)) = 0 exactly, as on the collapsed path.
    targets = _segment_logsumexp(ord_log, ord_hi - ord_lo, cache.inv_norm[incs, None])
    with np.errstate(divide="ignore"):
        return targets + np.log(cache.center_ratios[incs] @ w.T)


def _logratio_blocks(cache: ChoiceCache, w: np.ndarray, start: int, stop: int):
    """Yield (increment indices, (n, C) log ratios) covering [start, stop) once.

    Collapsed increments come one block per degree, each a product of
    coefficients and monomials; increments above ``MAX_COLLAPSED_DEGREE`` take
    the row path, in batches that bound the orderings and the mixed step
    values held at once.
    """
    for degree in range(1, len(cache.poly_offsets) - 1):
        incs = cache.poly_increments[cache.poly_offsets[degree] : cache.poly_offsets[degree + 1]]
        a, b = np.searchsorted(incs, (start, stop))
        if a == b:
            continue
        size = len(_monomial_exponents(w.shape[1], degree))
        base = cache.poly_coef_offsets[degree]
        coefs = cache.poly_coefs[base + a * size : base + b * size].reshape(b - a, size)
        with np.errstate(divide="ignore"):
            yield incs[a:b], np.log(coefs @ _monomials(w, degree))
    a, b = np.searchsorted(cache.row_increments, (start, stop))
    incs = cache.row_increments[a:b]
    orderings = cache.increment_offsets[incs + 1] - cache.increment_offsets[incs]
    for lo, hi in _batches(orderings, max(1, _ROW_BATCH_ELEMENTS // w.shape[0])):
        yield incs[lo:hi], _row_logratios(cache, incs[lo:hi], w)


def cache_logratios(
    cache: ChoiceCache,
    weights: np.ndarray,
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """log(P / P_rand) per increment for each weight vector.

    ``weights`` is (C, L) or (L,); the result is (I_range, C) (or (I_range,)
    for a single vector).  Increment range [start, stop) slices the stream.
    """
    single = weights.ndim == 1
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    stop = cache.num_increments if stop is None else stop
    out = np.empty((stop - start, w.shape[0]))
    for incs, values in _logratio_blocks(cache, w, start, stop):
        out[incs - start] = values
    return out[:, 0] if single else out


def cache_loglik(
    cache: ChoiceCache,
    weights: np.ndarray,
    start: int = 0,
    stop: int | None = None,
) -> np.ndarray:
    """Total log-likelihood over an increment range for many weight vectors."""
    single = weights.ndim == 1
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    stop = cache.num_increments if stop is None else stop
    rand_total = float(cache.logp_rand[start:stop].sum())
    out = np.full(w.shape[0], rand_total)
    for lo in range(0, w.shape[0], _LATTICE_CHUNK):
        for _, values in _logratio_blocks(cache, w[lo : lo + _LATTICE_CHUNK], start, stop):
            out[lo : lo + _LATTICE_CHUNK] += values.sum(axis=0)
    return out[0] if single else out


def _schedule_weights(schedule, increments: Sequence[Increment], first_index: int):
    """A schedule's distinct components, their (J, L) weights and member counts per
    interval, and each increment's interval."""
    if isinstance(schedule, Component):
        schedule = MixtureInterval.single(schedule)
    if isinstance(schedule, MixtureInterval):
        schedule = ModelSchedule.constant(schedule)
    if not isinstance(schedule, ModelSchedule):
        raise DegenerateModelError(f"cannot score under {schedule!r}")
    which = [
        schedule.interval_index(inc.timestamp, first_index + k) for k, inc in enumerate(increments)
    ]
    components = list(dict.fromkeys(c for iv in schedule.intervals for c in iv.components))
    members = np.zeros((schedule.num_intervals, len(components)), dtype=np.int64)
    weights = np.zeros(members.shape)
    for j, iv in enumerate(schedule.intervals):
        for beta, comp in zip(iv.weights, iv.components):
            weights[j, components.index(comp)] += beta
            members[j, components.index(comp)] += 1
    return components, weights, members, np.array(which, dtype=np.intp)


def _score(
    graph: DynamicGraph,
    increments: Sequence[Increment],
    first_index: int,
    schedule,
    seed: int,
    max_exhaustive_choices: int,
    ordering_samples: int,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[DPTrace, np.ndarray, np.ndarray]:
    """(trace, logp, fallback choices) per increment under a schedule, from one replay.

    Each increment is scored by the cache at its interval's weights, zero for
    components that interval lacks; only its interval's components count
    fallbacks.
    """
    components, weights, members, which = _schedule_weights(schedule, increments, first_index)
    trace = _replay(
        graph,
        increments,
        first_index,
        components,
        seed,
        max_exhaustive_choices,
        ordering_samples,
        progress,
    )
    cache, fallbacks = _choice_cache(trace, components)
    ratios = cache_logratios(cache, weights)[np.arange(len(which)), which]
    return trace, ratios + trace.logp_rand, (members[which] * fallbacks.T).sum(axis=1)


def score_stream(
    stream: GrowthStream,
    schedule,
    seed: int = 0,
    max_exhaustive_choices: int = MAX_EXHAUSTIVE_CHOICES,
    ordering_samples: int = DEFAULT_ORDERING_SAMPLES,
    keep_series: bool = False,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[LikelihoodSummary, list[IncrementScore] | None]:
    """Log-likelihood of a stream under a schedule, with the uniform baseline.

    Returns (summary, series); the per-increment series is kept only when
    ``keep_series`` is set.  The stream must be admissible (cleaned): a
    duplicate edge or unknown node raises from the replay.
    """
    trace, logp, fallbacks = _score(
        stream.seed_graph(),
        stream.increments,
        0,
        schedule,
        seed,
        max_exhaustive_choices,
        ordering_samples,
        progress,
    )
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
    max_exhaustive_choices: int = MAX_EXHAUSTIVE_CHOICES,
    ordering_samples: int = DEFAULT_ORDERING_SAMPLES,
) -> float:
    """Probability of one increment against a frozen graph (not log); the graph is unchanged."""
    _, logp, _ = _score(
        graph.copy(), [inc], index, schedule, seed, max_exhaustive_choices, ordering_samples
    )
    return math.exp(logp[0])
