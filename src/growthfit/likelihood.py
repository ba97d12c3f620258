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
already existed (those edges would be duplicates).  Component totals over
the eligible set are maintained by subtraction from running whole-graph
totals; triangle closure uses the identity

    sum_x |G(a) n G(x)| over all x  =  sum_{u in G(a)} k_u

so each anchored total costs O(k_anchor) instead of O(N).

A uniform-random baseline is computed in the same pass: the eligible set
shrinks by exactly one per step, so the baseline increment probability is
q! * prod 1/(B - s) with B the initial eligible count, exact even when the
model side is sampled.  The per-choice ratio c0 = exp((logL - logL_rand) /
sum m) then equals 1 exactly for the pure-random model because every term
cancels bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateModelError, RejectedIncrementError, UndefinedRatioError
from .graph import DynamicGraph, GrowthStream, Increment, apply_increment
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


def _log_factorial(q: int) -> float:
    """log q!, bit-stable across call sites (exact float conversion when small)."""
    if q < 2:
        return 0.0
    if q <= 170:
        return math.log(float(math.factorial(q)))
    return math.lgamma(q + 1.0)


def _logsumexp(values: Sequence[float]) -> float:
    top = max(values)
    if top == _NEG_INF:
        return _NEG_INF
    return top + math.log(math.fsum(math.exp(v - top) for v in values))


def sample_orderings(
    existing_targets: Sequence[int], rng: np.random.Generator, count: int
) -> list[tuple[int, ...]]:
    """Uniform orderings with replacement (the sampled-sum estimator's draws)."""
    base = tuple(existing_targets)
    q = len(base)
    return [tuple(base[j] for j in rng.permutation(q)) for _ in range(count)]


def orderings_for_increment(
    inc: Increment,
    index: int,
    seed: int,
    max_exhaustive_choices: int = MAX_EXHAUSTIVE_CHOICES,
    ordering_samples: int = DEFAULT_ORDERING_SAMPLES,
) -> tuple[list[tuple[int, ...]], bool, float]:
    """Orderings to evaluate plus (sampled?, log multiplier for the sum).

    Exhaustive mode multiplies the sum by 1 (all q! orderings enumerated);
    sampled mode by q!/S.  Seeding from (seed, index) keeps every scorer on
    identical draws.
    """
    existing = inc.existing_targets
    q = len(existing)
    if q == 0:
        return [()], False, 0.0
    if inc.num_choices <= max_exhaustive_choices:
        return list(permutations(existing)), False, 0.0
    rng = np.random.default_rng([seed, index])
    draws = sample_orderings(existing, rng, ordering_samples)
    return draws, True, _log_factorial(q) - math.log(float(ordering_samples))


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


class _ComponentEngine:
    """Running whole-graph weight totals for one component during a pass."""

    anchored = False

    def __init__(self, graph: DynamicGraph):
        self.graph = graph

    def on_increment_applied(self, inc: Increment, pre_degrees: dict[int, int]) -> None:
        pass

    def total_all(self) -> float:
        raise NotImplementedError

    def weight(self, node: int) -> float:
        raise NotImplementedError


class _RandomEngine(_ComponentEngine):
    def total_all(self) -> float:
        return float(self.graph.num_nodes)

    def weight(self, node: int) -> float:
        return 1.0


class _DegreePowerEngine(_ComponentEngine):
    def __init__(self, graph: DynamicGraph, alpha: float):
        super().__init__(graph)
        self.alpha = alpha
        self._pow: list[float] = [1.0 if alpha == 0.0 else 0.0, 1.0]
        self._total = math.fsum(self._w(k) for k in graph.degrees)

    def _w(self, k: int) -> float:
        table = self._pow
        while k >= len(table):
            table.append(float(len(table)) ** self.alpha)
        return table[k]

    def on_increment_applied(self, inc: Increment, pre_degrees: dict[int, int]) -> None:
        # New nodes enter the total at weight w(0) before their degree gains.
        self._total += len(inc.new_nodes) * self._w(0)
        gain = len(inc.targets)
        kc = pre_degrees[inc.center]
        self._total += self._w(kc + gain) - self._w(kc)
        for t in inc.targets:
            kt = pre_degrees[t]
            self._total += self._w(kt + 1) - self._w(kt)

    def total_all(self) -> float:
        return self._total

    def weight(self, node: int) -> float:
        return self._w(self.graph.degrees[node])


class _RankPreferenceEngine(_ComponentEngine):
    def __init__(self, graph: DynamicGraph, alpha: float):
        super().__init__(graph)
        self.alpha = alpha
        self._ranks: list[float] = [float(i + 1) ** -alpha for i in range(graph.num_nodes)]
        self._total = math.fsum(self._ranks)

    def on_increment_applied(self, inc: Increment, pre_degrees: dict[int, int]) -> None:
        for _ in inc.new_nodes:
            w = float(len(self._ranks) + 1) ** -self.alpha
            self._ranks.append(w)
            self._total += w

    def total_all(self) -> float:
        return self._total

    def weight(self, node: int) -> float:
        return self._ranks[node]


class _TriangleEngine(_ComponentEngine):
    """Anchored component: totals are computed per anchor, never globally."""

    anchored = True

    def anchor_total(self, anchor: int) -> float:
        degs = self.graph.degrees
        return float(sum(degs[u] for u in self.graph.neighbors(anchor)))

    def pair_weight(self, anchor: int, node: int) -> float:
        if anchor == node:
            return float(self.graph.degrees[node])
        return float(self.graph.common_neighbor_count(anchor, node))

    def closed_wedges_at(self, center: int) -> float:
        """sum over neighbors v of |G(c) n G(v)| (twice the triangle count at c)."""
        g = self.graph
        return float(sum(g.common_neighbor_count(center, v) for v in g.neighbors(center)))


def _make_engine(comp: Component, graph: DynamicGraph) -> _ComponentEngine:
    if isinstance(comp, Random):
        return _RandomEngine(graph)
    if isinstance(comp, DegreePower):
        return _DegreePowerEngine(graph, comp.alpha)
    if isinstance(comp, RankPreference):
        return _RankPreferenceEngine(graph, comp.alpha)
    if isinstance(comp, TriangleClosure):
        return _TriangleEngine(graph)
    raise DegenerateModelError(f"no likelihood engine for {comp!r}")


@dataclass
class _StepEval:
    """One target step of one ordering: per-component (weight, total) pairs.

    ``totals[l] <= 0`` means component l fell back to uniform for this step.
    ``eligible`` is the eligible-set size, the uniform (and baseline) choice
    count for the step.
    """

    weights: list[float]
    totals: list[float]
    eligible: int

    def component_prob(self, l: int) -> float:
        if self.totals[l] <= 0.0:
            return 1.0 / self.eligible
        return self.weights[l] / self.totals[l]

    def component_ratio(self, l: int) -> float:
        if self.totals[l] <= 0.0:
            return 1.0
        # multiply first so a uniform component cancels exactly to 1.0
        return self.weights[l] * self.eligible / self.totals[l]

    def log_prob(self, betas: Sequence[float]) -> float:
        if len(self.weights) == 1:
            if self.totals[0] <= 0.0:
                return -math.log(float(self.eligible))
            if self.weights[0] <= 0.0:
                return _NEG_INF
            return math.log(self.weights[0]) - math.log(self.totals[0])
        p = 0.0
        for beta, w, total in zip(betas, self.weights, self.totals):
            if total <= 0.0:
                p += beta / self.eligible
            elif w > 0.0:
                p += beta * w / total
        return math.log(p) if p > 0.0 else _NEG_INF


@dataclass
class _IncrementEval:
    """Everything scoring or caching needs to know about one increment."""

    index: int
    timestamp: int
    num_choices: int
    q: int
    initial_eligible: int
    sampled: bool
    log_mult: float
    center_eval: _StepEval | None
    orderings: list[list[_StepEval]]
    fallback_choices: int
    logp_rand: float


def evaluate_increment(
    graph: DynamicGraph,
    engines: list[_ComponentEngine],
    inc: Increment,
    index: int,
    seed: int,
    max_exhaustive_choices: int = MAX_EXHAUSTIVE_CHOICES,
    ordering_samples: int = DEFAULT_ORDERING_SAMPLES,
) -> _IncrementEval:
    """Per-component weights and totals for every choice of one increment.

    Weight-independent of mixture coefficients, so one evaluation serves both
    direct scoring and grid fitting.
    """
    n = graph.num_nodes
    if n == 0 and not inc.center_is_new:
        raise DegenerateModelError("existing-tagged center on an empty graph")
    existing = inc.existing_targets
    q = len(existing)
    ncomp = len(engines)
    fallbacks = 0

    center_eval = None
    if not inc.center_is_new:
        weights = [0.0] * ncomp
        totals = [0.0] * ncomp
        for l, eng in enumerate(engines):
            if eng.anchored:
                # Star sources are picked uniformly under triangle closure.
                weights[l] = 1.0
                totals[l] = float(n)
            else:
                weights[l] = eng.weight(inc.center)
                totals[l] = eng.total_all()
                if totals[l] <= 0.0:
                    fallbacks += 1
        center_eval = _StepEval(weights, totals, n)

    if inc.center_is_new:
        initial_eligible = n
        base_excluded: tuple[int, ...] = ()
    else:
        initial_eligible = n - 1 - graph.degrees[inc.center]
        base_excluded = (inc.center, *graph.neighbors(inc.center))
    if q > initial_eligible:
        raise RejectedIncrementError(
            f"increment {index}: {q} existing targets but only "
            f"{initial_eligible} eligible candidates"
        )

    orderings, sampled, log_mult = orderings_for_increment(
        inc, index, seed, max_exhaustive_choices, ordering_samples
    )

    # Per-node weights reused across orderings.
    node_w: list[dict[int, float]] = [{} for _ in range(ncomp)]
    base_total: list[float] = [0.0] * ncomp
    tri_anchor_base: dict[int, float] = {}
    tri_pair: dict[tuple[int, int], float] = {}
    for l, eng in enumerate(engines):
        if eng.anchored:
            continue
        for x in existing:
            node_w[l][x] = eng.weight(x)
        excluded_sum = math.fsum(eng.weight(x) for x in base_excluded)
        base_total[l] = eng.total_all() - excluded_sum

    def tri_base(eng: _TriangleEngine, anchor: int) -> float:
        got = tri_anchor_base.get(anchor)
        if got is None:
            got = eng.anchor_total(anchor)
            tri_anchor_base[anchor] = got
        return got

    def tri_w(eng: _TriangleEngine, anchor: int, node: int) -> float:
        key = (anchor, node)
        got = tri_pair.get(key)
        if got is None:
            got = eng.pair_weight(anchor, node)
            tri_pair[key] = got
        return got

    tri_internal_base: list[float] = [0.0] * ncomp
    if not inc.center_is_new:
        for l, eng in enumerate(engines):
            if eng.anchored:
                shared = math.fsum(tri_w(eng, inc.center, x) for x in base_excluded)
                tri_internal_base[l] = tri_base(eng, inc.center) - shared

    evaluated: list[list[_StepEval]] = []
    for oi, ordering in enumerate(orderings):
        steps: list[_StepEval] = []
        running = list(base_total)
        anchor = None if inc.center_is_new else inc.center
        tri_running = list(tri_internal_base)
        for s, x in enumerate(ordering):
            eligible = initial_eligible - s
            weights = [0.0] * ncomp
            totals = [0.0] * ncomp
            for l, eng in enumerate(engines):
                if eng.anchored:
                    if anchor is None:
                        # First leaf of a new-center star: no anchor exists.
                        weights[l] = 0.0
                        totals[l] = 0.0
                        if oi == 0:
                            fallbacks += 1
                    else:
                        weights[l] = tri_w(eng, anchor, x)
                        totals[l] = tri_running[l]
                        if totals[l] <= 0.0 and oi == 0:
                            fallbacks += 1
                else:
                    weights[l] = node_w[l][x]
                    totals[l] = running[l]
                    if totals[l] <= 0.0 and oi == 0:
                        fallbacks += 1
            steps.append(_StepEval(weights, totals, eligible))
            if anchor is None:
                anchor = x
                for l, eng in enumerate(engines):
                    if eng.anchored:
                        tri_running[l] = tri_base(eng, x) - tri_w(eng, x, x)
            else:
                for l, eng in enumerate(engines):
                    if eng.anchored:
                        tri_running[l] -= tri_w(eng, anchor, x)
            for l in range(ncomp):
                if not engines[l].anchored:
                    running[l] -= node_w[l][x]
        evaluated.append(steps)

    # Assembled with the same grouping and summation the model path uses
    # (fsum over steps, then + log q!, then + center), so the pure-random
    # model cancels this baseline bit for bit.
    center_rand = 0.0 if center_eval is None else -math.log(float(n))
    rand_steps = math.fsum(-math.log(float(initial_eligible - s)) for s in range(q))
    logp_rand = center_rand + (rand_steps + _log_factorial(q))

    return _IncrementEval(
        index=index,
        timestamp=inc.timestamp,
        num_choices=inc.num_choices,
        q=q,
        initial_eligible=initial_eligible,
        sampled=sampled,
        log_mult=log_mult,
        center_eval=center_eval,
        orderings=evaluated,
        fallback_choices=fallbacks,
        logp_rand=logp_rand,
    )


def _eval_logp(ev: _IncrementEval, betas: Sequence[float]) -> float:
    logp = 0.0
    if ev.center_eval is not None:
        logp += ev.center_eval.log_prob(betas)
    ordering_logps = [
        math.fsum(step.log_prob(betas) for step in steps) if steps else 0.0
        for steps in ev.orderings
    ]
    logp += ev.log_mult + _logsumexp(ordering_logps)
    return logp


def _interval_for(schedule, timestamp: int, index: int) -> MixtureInterval:
    if isinstance(schedule, ModelSchedule):
        return schedule.interval_at(timestamp, index)
    if isinstance(schedule, MixtureInterval):
        return schedule
    if isinstance(schedule, Component):
        return MixtureInterval.single(schedule)
    raise DegenerateModelError(f"cannot score under {schedule!r}")


def _engines_for_schedule(schedule, graph: DynamicGraph):
    if isinstance(schedule, ModelSchedule):
        intervals = schedule.intervals
    else:
        intervals = (_interval_for(schedule, 0, 0),)
    unique: list[Component] = []
    for interval in intervals:
        for comp in interval.components:
            if comp not in unique:
                unique.append(comp)
    engines = {comp: _make_engine(comp, graph) for comp in unique}
    return engines


def _pre_degrees(graph: DynamicGraph, inc: Increment) -> dict[int, int]:
    degs: dict[int, int] = {}
    degs[inc.center] = 0 if inc.center_is_new else graph.degrees[inc.center]
    for t, new in zip(inc.targets, inc.targets_new):
        degs[t] = 0 if new else graph.degrees[t]
    return degs


def score_stream(
    stream: GrowthStream,
    schedule,
    seed: int = 0,
    max_exhaustive_choices: int = MAX_EXHAUSTIVE_CHOICES,
    ordering_samples: int = DEFAULT_ORDERING_SAMPLES,
    keep_series: bool = False,
    progress: Callable[[int, int], None] | None = None,
    progress_every: int = PROGRESS_EVERY,
) -> tuple[LikelihoodSummary, list[IncrementScore] | None]:
    """Log-likelihood of a stream under a schedule, with the uniform baseline.

    Returns (summary, series); the per-increment series is kept only when
    ``keep_series`` is set.  The stream must be admissible (cleaned): a
    duplicate edge or unknown node raises from the replay.
    """
    graph = stream.seed_graph()
    engines_by_comp = _engines_for_schedule(schedule, graph)
    total = len(stream.increments)
    series: list[IncrementScore] | None = [] if keep_series else None
    loglik = 0.0
    loglik_rand = 0.0
    choices = 0
    sampled_count = 0
    fallback_total = 0
    impossible = 0
    for index, inc in enumerate(stream.increments):
        interval = _interval_for(schedule, inc.timestamp, index)
        engines = [engines_by_comp[c] for c in interval.components]
        ev = evaluate_increment(
            graph, engines, inc, index, seed, max_exhaustive_choices, ordering_samples
        )
        logp = _eval_logp(ev, interval.weights)
        loglik += logp
        loglik_rand += ev.logp_rand
        choices += ev.num_choices
        sampled_count += 1 if ev.sampled else 0
        fallback_total += ev.fallback_choices
        if logp == _NEG_INF:
            impossible += 1
        if series is not None:
            series.append(
                IncrementScore(
                    index=index,
                    timestamp=inc.timestamp,
                    logp=logp,
                    logp_rand=ev.logp_rand,
                    num_choices=ev.num_choices,
                    sampled=ev.sampled,
                    fallback_choices=ev.fallback_choices,
                    impossible=logp == _NEG_INF,
                )
            )
        pre = _pre_degrees(graph, inc)
        apply_increment(graph, inc)
        for eng in engines_by_comp.values():
            eng.on_increment_applied(inc, pre)
        if progress is not None and (index + 1) % progress_every == 0:
            progress(index + 1, total)
    if progress is not None:
        progress(total, total)
    summary = LikelihoodSummary(
        loglik=loglik,
        loglik_rand=loglik_rand,
        total_choices=choices,
        increments=total,
        sampled_increments=sampled_count,
        fallback_choices=fallback_total,
        impossible_increments=impossible,
    )
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
    """Probability of one increment against a frozen graph (not log)."""
    interval = _interval_for(schedule, inc.timestamp, index)
    engines = [_make_engine(c, graph) for c in interval.components]
    ev = evaluate_increment(
        graph, engines, inc, index, seed, max_exhaustive_choices, ordering_samples
    )
    logp = _eval_logp(ev, interval.weights)
    return 0.0 if logp == _NEG_INF else math.exp(logp)


@dataclass
class ChoiceCache:
    """Mixture-weight-independent per-choice ratios for fast weight fitting.

    Per target step and component: (component prob / uniform prob) over the
    step's eligible set; per center and component: the same ratio over all
    nodes, with all-ones rows for new centers (so any convex combination
    gives factor 1).  For weights w, the step mixture ratio is the dot
    product, ordering ratios multiply, increments sum orderings and scale by
    ``inv_norm`` (1/q! exhaustive, 1/S sampled); the log of the result is
    logp - logp_rand for the increment.

    That ratio is a homogeneous polynomial of degree q + 1 in w with
    non-negative coefficients.  Increments of degree at most
    ``MAX_COLLAPSED_DEGREE`` are stored collapsed to those coefficients, so
    scoring one costs a dot product with the degree's monomials of w however
    many orderings and steps it has.  Larger stars keep the row path: their
    step rows are mixed, logged and summed per ordering, and the orderings
    are combined by a max-shifted logsumexp, so a long product of small
    ratios cannot underflow.  The step rows and offsets are kept for every
    increment as the replay record.
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
    return np.repeat(lo - _segment_starts(lengths), lengths) + np.arange(int(lengths.sum()))


def _segment_starts(lengths: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.intp)


def _batches(sizes: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive index ranges over ``sizes``, each totalling under ``budget`` plus one item."""
    if len(sizes) == 0:
        return []
    span = _segment_starts(sizes) // budget
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
                poly = np.add.reduceat(poly, _segment_starts(orderings[a:b]), axis=0)
            poly *= inv_norm[part, None]
            blocks.append(_times_linear(poly, center_ratios[part], degree).ravel())
    return {
        "poly_coefs": np.concatenate(blocks) if blocks else np.zeros(0),
        "poly_increments": collapsed.astype(np.int64),
        "poly_offsets": np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        "poly_coef_offsets": np.concatenate(([0], np.cumsum(coef_sizes))).astype(np.int64),
        "row_increments": np.flatnonzero(degrees > MAX_COLLAPSED_DEGREE).astype(np.int64),
    }


def build_choice_cache(
    stream: GrowthStream,
    components: Sequence[Component],
    seed: int = 0,
    max_exhaustive_choices: int = MAX_EXHAUSTIVE_CHOICES,
    ordering_samples: int = DEFAULT_ORDERING_SAMPLES,
    progress: Callable[[int, int], None] | None = None,
    progress_every: int = PROGRESS_EVERY,
) -> ChoiceCache:
    """One replay pass recording everything weight fitting needs.

    The cache depends on the component list but not on mixture weights or
    interval boundaries, so a single build serves every partition depth and
    every weight-grid point.
    """
    components = tuple(components)
    graph = stream.seed_graph()
    engines = [_make_engine(c, graph) for c in components]
    ncomp = len(components)
    total = len(stream.increments)

    step_rows: list[list[float]] = []
    ordering_offsets: list[int] = [0]
    increment_offsets: list[int] = [0]
    center_rows: list[list[float]] = []
    inv_norm: list[float] = []
    num_choices: list[int] = []
    timestamps: list[int] = []
    logp_rand: list[float] = []
    existing_counts: list[int] = []
    sampled_count = 0
    fallback_total = 0

    for index, inc in enumerate(stream.increments):
        ev = evaluate_increment(
            graph, engines, inc, index, seed, max_exhaustive_choices, ordering_samples
        )
        if ev.center_eval is not None:
            center_rows.append([ev.center_eval.component_ratio(l) for l in range(ncomp)])
        else:
            center_rows.append([1.0] * ncomp)
        if ev.q == 0:
            # Degenerate dummy ordering: one all-ones step, product 1.
            step_rows.append([1.0] * ncomp)
            ordering_offsets.append(len(step_rows))
            inv_norm.append(1.0)
        else:
            for steps in ev.orderings:
                for step in steps:
                    step_rows.append([step.component_ratio(l) for l in range(ncomp)])
                ordering_offsets.append(len(step_rows))
            if ev.sampled:
                inv_norm.append(1.0 / len(ev.orderings))
            else:
                inv_norm.append(1.0 / math.factorial(ev.q))
        increment_offsets.append(len(ordering_offsets) - 1)
        num_choices.append(ev.num_choices)
        timestamps.append(ev.timestamp)
        logp_rand.append(ev.logp_rand)
        existing_counts.append(ev.q)
        sampled_count += 1 if ev.sampled else 0
        fallback_total += ev.fallback_choices
        pre = _pre_degrees(graph, inc)
        apply_increment(graph, inc)
        for eng in engines:
            eng.on_increment_applied(inc, pre)
        if progress is not None and (index + 1) % progress_every == 0:
            progress(index + 1, total)
    if progress is not None:
        progress(total, total)

    arrays = {
        "step_ratios": np.array(step_rows, dtype=np.float64).reshape(len(step_rows), ncomp),
        "ordering_offsets": np.array(ordering_offsets, dtype=np.int64),
        "increment_offsets": np.array(increment_offsets, dtype=np.int64),
        "center_ratios": np.array(center_rows, dtype=np.float64).reshape(total, ncomp),
        "inv_norm": np.array(inv_norm, dtype=np.float64),
    }
    return ChoiceCache(
        components=components,
        **arrays,
        num_choices=np.array(num_choices, dtype=np.int64),
        timestamps=np.array(timestamps, dtype=np.int64),
        logp_rand=np.array(logp_rand, dtype=np.float64),
        **_collapse(**arrays, existing_counts=np.array(existing_counts, dtype=np.int64)),
        sampled_increments=sampled_count,
        fallback_choices=fallback_total,
    )


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
        ord_log[a:b] = np.add.reduceat(step_log, _segment_starts(row_hi[a:b] - row_lo[a:b]), axis=0)
    inc_starts = _segment_starts(ord_hi - ord_lo)
    top = np.maximum.reduceat(ord_log, inc_starts, axis=0)
    rep = np.repeat(top, ord_hi - ord_lo, axis=0)
    with np.errstate(invalid="ignore"):
        shifted = np.exp(np.where(rep == _NEG_INF, _NEG_INF, ord_log - rep))
    # Scale the shifted sum before the log, so S orderings of ratio 1 give
    # log(S * (1/S)) = 0 exactly, as on the collapsed path.
    scaled = np.add.reduceat(shifted, inc_starts, axis=0) * cache.inv_norm[incs, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        targets = np.where(top == _NEG_INF, _NEG_INF, np.log(scaled) + top)
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
    chunk: int = 256,
) -> np.ndarray:
    """Total log-likelihood over an increment range for many weight vectors."""
    single = weights.ndim == 1
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    stop = cache.num_increments if stop is None else stop
    rand_total = float(cache.logp_rand[start:stop].sum())
    out = np.full(w.shape[0], rand_total)
    for lo in range(0, w.shape[0], chunk):
        for _, values in _logratio_blocks(cache, w[lo : lo + chunk], start, stop):
            out[lo : lo + chunk] += values.sum(axis=0)
    return out[0] if single else out


@dataclass
class DPTrace:
    """Replay trace for scanning the degree exponent without re-walking the graph.

    Stores degree data only; for any exponent a the per-increment
    log-probabilities are recovered with whole-array operations: a power
    table over 0..kmax, whole-graph totals by cumulative histogram deltas,
    per-step eligible totals by subtracting shared exclusions (the center
    and its neighborhood) and the running sum of already-chosen weights.
    """

    kmax: int
    h0: np.ndarray  # (kmax + 1,) initial degree histogram
    delta_deg: np.ndarray  # (D,) degrees whose count changes after an increment
    delta_sign: np.ndarray  # (D,) +1/-1
    delta_inc: np.ndarray  # (D,) owning increment
    shared_deg: np.ndarray  # (SD,) degrees excluded for all of an increment's steps
    shared_inc: np.ndarray  # (SD,)
    chosen_deg: np.ndarray  # (E,) chosen-node degree per ordering step
    entry_ord: np.ndarray  # (E,) owning ordering
    entry_inc: np.ndarray  # (E,) owning increment
    entry_step: np.ndarray  # (E,) step index within the ordering
    ord_inc: np.ndarray  # (O,) owning increment per ordering
    inc_ord_offsets: np.ndarray  # (I + 1,) ordering ranges per increment
    center_new: np.ndarray  # (I,) bool
    center_deg: np.ndarray  # (I,)
    num_nodes: np.ndarray  # (I,) graph size when scored
    initial_eligible: np.ndarray  # (I,)
    log_mult: np.ndarray  # (I,)
    num_choices: np.ndarray  # (I,)
    timestamps: np.ndarray  # (I,)
    logp_rand: np.ndarray  # (I,)
    sampled_increments: int

    @property
    def num_increments(self) -> int:
        return len(self.timestamps)

    @property
    def total_choices(self) -> int:
        return int(self.num_choices.sum())


def build_dp_trace(
    stream: GrowthStream,
    seed: int = 0,
    max_exhaustive_choices: int = MAX_EXHAUSTIVE_CHOICES,
    ordering_samples: int = DEFAULT_ORDERING_SAMPLES,
) -> DPTrace:
    """Record the degree bookkeeping for degree-power scoring of a stream."""
    graph = stream.seed_graph()
    h0 = np.bincount(graph.degrees) if graph.num_nodes else np.zeros(1, dtype=np.int64)

    delta_deg: list[int] = []
    delta_sign: list[int] = []
    delta_inc: list[int] = []
    shared_deg: list[int] = []
    shared_inc: list[int] = []
    chosen_deg: list[int] = []
    entry_ord: list[int] = []
    entry_step: list[int] = []
    ord_inc: list[int] = []
    inc_ord_offsets: list[int] = [0]
    center_new: list[bool] = []
    center_deg: list[int] = []
    num_nodes: list[int] = []
    initial_eligible: list[int] = []
    log_mult: list[float] = []
    num_choices: list[int] = []
    timestamps: list[int] = []
    logp_rand: list[float] = []
    sampled_count = 0
    kmax = max(graph.degrees, default=0)

    for index, inc in enumerate(stream.increments):
        n = graph.num_nodes
        q = len(inc.existing_targets)
        orderings, sampled, lm = orderings_for_increment(
            inc, index, seed, max_exhaustive_choices, ordering_samples
        )
        sampled_count += 1 if sampled else 0
        b = n if inc.center_is_new else n - 1 - graph.degrees[inc.center]
        if q > b:
            raise RejectedIncrementError(
                f"increment {index}: {q} existing targets but only "
                f"{b} eligible candidates"
            )
        if not inc.center_is_new:
            kc = graph.degrees[inc.center]
            shared_deg.append(kc)
            shared_inc.append(index)
            for v in graph.neighbors(inc.center):
                shared_deg.append(graph.degrees[v])
                shared_inc.append(index)
        for steps in orderings:
            oid = len(ord_inc)
            ord_inc.append(index)
            for s, x in enumerate(steps):
                chosen_deg.append(graph.degrees[x])
                entry_ord.append(oid)
                entry_step.append(s)
        inc_ord_offsets.append(len(ord_inc))
        center_new.append(inc.center_is_new)
        center_deg.append(0 if inc.center_is_new else graph.degrees[inc.center])
        num_nodes.append(n)
        initial_eligible.append(b)
        log_mult.append(lm)
        num_choices.append(inc.num_choices)
        timestamps.append(inc.timestamp)
        center_rand = 0.0 if inc.center_is_new else -math.log(float(n))
        rand_steps = math.fsum(-math.log(float(b - s)) for s in range(q))
        logp_rand.append(center_rand + (rand_steps + _log_factorial(q)))

        # Histogram deltas: existing nodes move from their old degree bin;
        # new nodes only appear at their final degree (they were never in
        # the pre-increment histogram).
        gain = len(inc.targets)
        kc0 = 0 if inc.center_is_new else graph.degrees[inc.center]
        if not inc.center_is_new:
            delta_deg.append(kc0)
            delta_sign.append(-1)
            delta_inc.append(index)
        delta_deg.append(kc0 + gain)
        delta_sign.append(1)
        delta_inc.append(index)
        kmax = max(kmax, kc0 + gain)
        for t, is_new in zip(inc.targets, inc.targets_new):
            kt0 = 0 if is_new else graph.degrees[t]
            if not is_new:
                delta_deg.append(kt0)
                delta_sign.append(-1)
                delta_inc.append(index)
            delta_deg.append(kt0 + 1)
            delta_sign.append(1)
            delta_inc.append(index)
            kmax = max(kmax, kt0 + 1)
        apply_increment(graph, inc)

    if len(h0) < kmax + 1:
        h0 = np.pad(h0, (0, kmax + 1 - len(h0)))
    return DPTrace(
        kmax=kmax,
        h0=h0.astype(np.float64),
        delta_deg=np.array(delta_deg, dtype=np.int64),
        delta_sign=np.array(delta_sign, dtype=np.float64),
        delta_inc=np.array(delta_inc, dtype=np.int64),
        shared_deg=np.array(shared_deg, dtype=np.int64),
        shared_inc=np.array(shared_inc, dtype=np.int64),
        chosen_deg=np.array(chosen_deg, dtype=np.int64),
        entry_ord=np.array(entry_ord, dtype=np.int64),
        entry_inc=np.array([ord_inc[o] for o in entry_ord], dtype=np.int64),
        entry_step=np.array(entry_step, dtype=np.int64),
        ord_inc=np.array(ord_inc, dtype=np.int64),
        inc_ord_offsets=np.array(inc_ord_offsets, dtype=np.int64),
        center_new=np.array(center_new, dtype=bool),
        center_deg=np.array(center_deg, dtype=np.int64),
        num_nodes=np.array(num_nodes, dtype=np.float64),
        initial_eligible=np.array(initial_eligible, dtype=np.int64),
        log_mult=np.array(log_mult, dtype=np.float64),
        num_choices=np.array(num_choices, dtype=np.int64),
        timestamps=np.array(timestamps, dtype=np.int64),
        logp_rand=np.array(logp_rand, dtype=np.float64),
        sampled_increments=sampled_count,
    )


def _dp_tables(kmax: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    ks = np.arange(kmax + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        logk = np.log(ks)
    if alpha == 0.0:
        pow_table = np.ones(kmax + 1)
        log_table = np.zeros(kmax + 1)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            pow_table = ks**alpha
        pow_table[0] = 0.0
        log_table = alpha * logk
        log_table[0] = _NEG_INF
    return pow_table, log_table


def dp_trace_logp(trace: DPTrace, alpha: float) -> np.ndarray:
    """Per-increment log-probability under a single degree-power component.

    Exponent 0 is the uniform model, so it returns the baseline itself and
    the identity holds bit for bit rather than to within summation noise.
    """
    if alpha == 0.0:
        return trace.logp_rand.copy()
    pow_table, log_table = _dp_tables(trace.kmax, alpha)
    n_inc = trace.num_increments

    w0 = float(trace.h0 @ pow_table)
    deltas = np.bincount(
        trace.delta_inc, weights=trace.delta_sign * pow_table[trace.delta_deg], minlength=n_inc
    )
    w_all = w0 + np.concatenate(([0.0], np.cumsum(deltas)[:-1]))

    shared = np.bincount(
        trace.shared_inc, weights=pow_table[trace.shared_deg], minlength=n_inc
    )
    w_base = w_all - shared

    v = pow_table[trace.chosen_deg]
    if len(v):
        # Exclusive prefix sum of chosen weights within each ordering: the
        # without-replacement correction to the step denominator.
        shifted = np.concatenate(([0.0], np.cumsum(v)[:-1]))
        is_start = trace.entry_step == 0
        seg_id = np.cumsum(is_start) - 1
        seg_base = shifted[np.flatnonzero(is_start)]
        excl_prefix = shifted - seg_base[seg_id]
        denom = w_base[trace.entry_inc] - excl_prefix
        eligible = trace.initial_eligible[trace.entry_inc] - trace.entry_step
        with np.errstate(divide="ignore", invalid="ignore"):
            step_logp = np.where(
                denom > 0.0,
                log_table[trace.chosen_deg] - np.log(denom),
                -np.log(eligible.astype(np.float64)),
            )
        ord_logp = np.bincount(trace.entry_ord, weights=step_logp, minlength=len(trace.ord_inc))
    else:
        ord_logp = np.zeros(len(trace.ord_inc))

    offsets = trace.inc_ord_offsets[:-1].astype(np.intp)
    top = np.maximum.reduceat(ord_logp, offsets)
    counts = np.diff(trace.inc_ord_offsets)
    rep = np.repeat(top, counts)
    with np.errstate(invalid="ignore"):
        shifted_logp = np.where(rep == _NEG_INF, _NEG_INF, ord_logp - rep)
    ssum = np.bincount(trace.ord_inc, weights=np.exp(shifted_logp), minlength=n_inc)
    with np.errstate(divide="ignore"):
        target_logp = np.where(top == _NEG_INF, _NEG_INF, np.log(ssum) + top)

    with np.errstate(divide="ignore"):
        center_logp = np.where(
            trace.center_new,
            0.0,
            np.where(
                w_all > 0.0,
                log_table[trace.center_deg] - np.log(np.maximum(w_all, 1e-300)),
                -np.log(trace.num_nodes),
            ),
        )
    return center_logp + trace.log_mult + target_logp


def dp_trace_loglik(trace: DPTrace, alphas) -> np.ndarray:
    """Total log-likelihood at each exponent (scalar in, scalar out)."""
    scalar = np.isscalar(alphas)
    values = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
    out = np.array([float(dp_trace_logp(trace, float(a)).sum()) for a in values])
    return float(out[0]) if scalar else out
