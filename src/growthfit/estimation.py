"""Maximum-likelihood fitting over grids, interval partitions, and changepoints.

All fits are grid argmaxes, so results are deterministic and reproducible:
ties resolve to the first grid point scanned (the smallest exponent, the
lexicographically smallest weight vector, the earliest change time).  The
mixture-weight grid is the unit simplex sampled at a fixed resolution; the
exponent grid is linear.  Interval fits split the stream into J groups,
either with equal increment counts or with equal timestamp spans, and fit
weights independently per group; nested fits with growing J are compared
with a likelihood-ratio test whose null distribution is chi-square with
(L - 1) * (J1 - J0) degrees of freedom.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateModelError,
    FitError,
    IntervalUnderflowError,
    NestingViolationError,
    NoFeasibleFitError,
    json_fields,
    json_int,
    json_number,
    json_object_fields,
)
from .graph import GrowthStream
from .likelihood import (
    ChoiceCache,
    DPTrace,
    _as_trace,
    _int64_floors,
    _range_sums,
    _subset_amplification,
    _trace_logp,
    cache_logratios,
    dp_trace_logp,
    per_choice_ratio,
)
from .models import (
    BoundaryMode,
    Component,
    DegreePower,
    MixtureInterval,
    ModelSchedule,
    RankPreference,
)
from .modelspec import format_component, parse_model_spec

DEFAULT_WEIGHT_STEP = 0.01


def default_alpha_grid() -> np.ndarray:
    """Exponent grid -0.10 .. 2.10 inclusive, step 0.01 (221 points)."""
    return np.round(np.arange(-10, 211) * 0.01, 10)


def simplex_grid(num_components: int, step: float = DEFAULT_WEIGHT_STEP) -> np.ndarray:
    """All weight vectors on the unit simplex at the given resolution.

    Rows are in ascending lexicographic order of the integer unit counts, so
    the first-maximum rule picks the lexicographically smallest tie.
    """
    units = round(1.0 / step)
    if abs(units * step - 1.0) > 1e-9 or units < 1:
        raise FitError(f"weight step {step} must divide 1")
    if num_components < 1:
        raise FitError("need at least one component")
    # Stars and bars: a composition is a choice of bar positions among
    # units + L - 1 slots, and combinations come in ascending lexicographic
    # order of the bars, which is that of the counts.
    slots = units + num_components - 1
    count = math.comb(slots, num_components - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), num_components - 1)),
        dtype=np.int64,
        count=count * (num_components - 1),
    ).reshape(count, num_components - 1)
    edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=((0, 0), (-1, slots)))
    return (np.diff(edges, axis=1) - 1) / units


def _check_nondecreasing(timestamps: np.ndarray) -> None:
    """Raise FitError naming the first index whose timestamp is below the one before it."""
    down = np.flatnonzero(np.diff(timestamps) < 0)
    if len(down):
        k = int(down[0]) + 1
        raise FitError(
            f"timestamps must be non-decreasing: index {k} has {timestamps[k]}, "
            f"below {timestamps[k - 1]} at index {k - 1}"
        )


def _argmax_first(values: np.ndarray) -> int:
    """Index of the strict maximum, earliest on ties; rejects an empty grid and all-impossible."""
    if len(values) == 0:
        raise FitError("empty grid: no point to maximize over")
    best = int(np.argmax(values))
    if values[best] == -np.inf or np.isnan(values[best]):
        raise NoFeasibleFitError("every grid point has zero likelihood")
    return best


def _exponent_grid(grid: Sequence[float]) -> np.ndarray:
    """An exponent grid as float64; raises FitError unless it is a list of finite values."""
    values = np.asarray(grid, dtype=np.float64)
    if values.ndim != 1 or len(values) == 0:
        raise FitError(f"exponent grid must be a nonempty list of values, got shape {values.shape}")
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)][0]
        raise FitError(f"exponent grid holds the non-finite value {bad}")
    return values


def _switch_grid(grid) -> np.ndarray | None:
    """A switch-time grid as the array it is given; raises FitError unless it lists numbers.

    The list must be flat and nonempty, and no entry a bool or NaN.  Python
    ints past int64 stay exact, in an object array.  None, which stands for
    every observed timestamp, stays None.
    """
    if grid is None:
        return None
    try:
        values = np.asarray(grid)
    except ValueError:
        raise FitError("switch-time grid must be a flat list of numbers") from None
    if values.ndim != 1:
        raise FitError(f"switch-time grid must be a flat list of numbers, got shape {values.shape}")
    if len(values) == 0:
        raise FitError("empty grid: a switch-time grid needs at least one number")
    # the entries as given: a bool that numpy turned into an int is still refused
    for value in np.asarray(grid, dtype=object).tolist():
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or value != value:
            raise FitError(f"switch-time grid holds {value!r}, which is not a number")
    return values


@dataclass
class ScalarFit:
    """Best exponent for a one-parameter family on a fixed grid.

    ``logliks`` is the score of every grid point.  A fit that found its
    exponent from a few points scores the rest on the first read.
    """

    value: float
    loglik: float
    loglik_rand: float
    total_choices: int
    grid: np.ndarray
    logliks: np.ndarray

    @property
    def c0(self) -> float:
        return per_choice_ratio(self.loglik, self.loglik_rand, self.total_choices)


class _ScoredOnRead:
    """``ScalarFit.logliks``: the array given, or the one a function given returns on first read."""

    def __get__(self, fit, owner=None):
        if fit is None:
            return self
        value = fit.__dict__["_logliks"]
        if callable(value):
            value = fit.__dict__["_logliks"] = value()
        return value

    def __set__(self, fit, value):
        fit.__dict__["_logliks"] = value


# set on the class once the dataclass is made, so that the field has no default
ScalarFit.logliks = _ScoredOnRead()


# The fast exponent fit trusts a score whose subset totals magnify their
# rounding by at most this factor (_subset_amplification).
_MAX_AMPLIFICATION = 2.0**20
# The fast exponent fit's window grows past scores within this fraction of
# max(|best|, 1) below its best: a score near 0 still carries the absolute
# rounding error of its terms.
_CERTIFY_MARGIN = 1e-9


class _Uncertified(Exception):
    """The fast exponent fit cannot vouch for its answer; the full scan runs instead."""


def fit_degree_exponent(
    source: GrowthStream | DPTrace, grid: Sequence[float] | None = None
) -> ScalarFit:
    """Scan the degree-power exponent over a grid (single-component model)."""
    return fit_component_family(source, DegreePower, default_alpha_grid() if grid is None else grid)


def _point_loglik(trace: DPTrace, comp: Component) -> float:
    """The log-likelihood of the trace under ``comp`` alone: one point of an exponent grid."""
    return float(_trace_logp(trace, [comp], [1.0], count_fallbacks=False)[0].sum())


def fit_component_family(
    source: GrowthStream | DPTrace, family: Callable[[float], Component], grid: Sequence[float]
) -> ScalarFit:
    """First-max grid fit of a one-parameter component family, every point from one trace.

    ``source`` is a ``DPTrace`` or a stream, whose kept replay at the
    default options is read.  A stream of no increments raises ``FitError``.
    Degree-power and rank-preference fits on a log-concave profile score
    O(log G) of the G points (``_certified_first_max``); every other fit
    scores them all.  Either way the fit is the full scan's, bit for bit.
    """
    grid = _exponent_grid(grid)
    components = [family(float(value)) for value in grid]
    trace = _as_trace(source)
    if trace.num_increments == 0:
        raise FitError("empty stream")
    scores: dict[int, float] = {}

    def score(i: int) -> float:
        if i not in scores:
            scores[i] = _point_loglik(trace, components[i])
        return scores[i]

    def profile() -> np.ndarray:
        return np.array([score(i) for i in range(len(grid))])

    try:
        best = _certified_first_max(trace, family, grid, components, score)
        logliks = profile
    except (_Uncertified, DegenerateModelError):
        logliks = profile()
        best = _argmax_first(logliks)
    return ScalarFit(
        value=float(grid[best]),
        loglik=scores[best],
        loglik_rand=float(trace.logp_rand.sum()),
        total_choices=trace.total_choices,
        grid=grid,
        logliks=logliks,
    )


def _certified_first_max(
    trace: DPTrace,
    family: Callable[[float], Component],
    grid: np.ndarray,
    components: list[Component],
    score: Callable[[int], float],
) -> int:
    """The full scan's first maximum, found from O(log G) scored points.

    Under one degree-power or rank-preference component, P(S) of a star is
    log-concave in the exponent (README, "Exponent fits"), so on an
    increasing grid the exact profile rises, stays at its maximum, then
    falls.  Bisection on the sign of f(i + 1) - f(i) finds its first
    maximum; a window around it then grows until each side ends at the
    grid's end or at a point more than ``_CERTIFY_MARGIN`` max(|f|, 1)
    below the window's best, and the window's first maximum is returned.
    Where every score is within half that margin of exact, no point outside
    the window reaches its best, so the full scan returns the same point.
    Raises ``_Uncertified`` where the theorem does not cover the trace or
    the scores are not known to be that accurate; a scoring error
    propagates.
    """
    last = len(grid) - 1
    degree_zero = trace.h0[0] > 0 or not trace.gain[trace.center_new].all()
    if (
        family not in (DegreePower, RankPreference)
        or not (np.diff(grid) > 0.0).all()
        or trace.sampled.any()
        or degree_zero
        or max(_subset_amplification(trace, components[i]) for i in (0, last))
        > _MAX_AMPLIFICATION
    ):
        raise _Uncertified

    vetted: set[int] = set()

    def checked(i: int) -> float:
        if i not in vetted:
            if not math.isfinite(score(i)) or (
                _subset_amplification(trace, components[i]) > _MAX_AMPLIFICATION
            ):
                raise _Uncertified
            vetted.add(i)
        return score(i)

    lo, hi = 0, last
    while lo < hi:
        mid = (lo + hi) // 2
        if checked(mid + 1) > checked(mid):
            lo = mid + 1
        else:
            hi = mid
    top = checked(lo)
    while True:
        cut = top - _CERTIFY_MARGIN * max(abs(top), 1.0)
        if lo > 0 and score(lo) >= cut:
            lo -= 1
            top = max(top, checked(lo))
        elif hi < last and score(hi) >= cut:
            hi += 1
            top = max(top, checked(hi))
        else:
            return lo + _argmax_first(np.array([score(i) for i in range(lo, hi + 1)]))


# Float64 lattice sums a cache keeps per weight step: 2 MB.
_LATTICE_SUM_BUDGET = 1 << 18
# Fewest increments in a lattice-sum block, so a small lattice over many
# increments keeps sums that later fits reuse, not one per increment.
_MIN_BLOCK_INCREMENTS = 64


class _BlockSums(NamedTuple):
    """Every lattice point's log-likelihood summed over each of B equal-count increment blocks."""

    edges: np.ndarray  # (B + 1,) int64, block b is [edges[b], edges[b + 1])
    sums: np.ndarray  # (B, K) float64


def _block_sums(cache: ChoiceCache, grid: np.ndarray, step: float) -> _BlockSums:
    """The cache's block sums of the lattice of ``step``, scored by the first call and kept.

    B = max(1, min(I // _MIN_BLOCK_INCREMENTS, budget // K)) for a lattice
    of K points, so the sums hold at most ``_LATTICE_SUM_BUDGET`` values
    unless a single block of K does.  The edges split the increments into
    equal counts, whatever J later fits ask for.
    """
    units = round(1.0 / step)
    kept = cache._lattice_sums.get(units)
    if kept is None:
        num_inc = cache.num_increments
        most = _LATTICE_SUM_BUDGET // len(grid)
        blocks = max(1, min(num_inc // _MIN_BLOCK_INCREMENTS, most))
        edges = np.arange(blocks + 1) * num_inc // blocks
        kept = _BlockSums(edges, _range_sums(cache, grid, edges[:-1], edges[1:]))
        cache._lattice_sums[units] = kept
    return kept


def _interval_logliks(
    cache: ChoiceCache, grid: np.ndarray, kept: _BlockSums, groups: list[tuple[int, int]]
) -> list[np.ndarray]:
    """Each group's lattice log-likelihoods from the kept block sums.

    A group's score is its partial head piece, its whole blocks' sums and
    its partial tail piece, added in increment order; a group inside one
    block is a single piece.  The pieces of all groups are scored directly,
    by one ``_range_sums`` call.  Block sums are only ever added, never
    differenced, so a lattice point with an impossible increment stays -inf.
    """
    edges = kept.edges
    pieces: list[tuple[int, int]] = []
    plans = []
    for lo, hi in groups:
        first = int(np.searchsorted(edges, lo))
        last = int(np.searchsorted(edges, hi, side="right")) - 1
        if first >= last:
            first = last = 0
            ends = [(lo, hi)]
        else:
            ends = [(lo, int(edges[first])), (int(edges[last]), hi)]
        plans.append((len(pieces), first, last))
        pieces += ends
    scored = _range_sums(cache, grid, *np.array(pieces, dtype=np.int64).reshape(-1, 2).T)
    out = []
    for at, first, last in plans:
        total = scored[at].copy()
        if last > first:
            total += kept.sums[first:last].sum(axis=0)
            total += scored[at + 1]
        out.append(total)
    return out


def partition_indices(cache: ChoiceCache, j: int, mode: str = "count") -> list[tuple[int, int]]:
    """Split the cache's increments into J contiguous groups.

    count mode: group sizes differ by at most one (cut at floor(j*I/J));
    time mode: equal spans of the observed timestamp range, each increment
    assigned by its timestamp with span edges, floored to integers exactly,
    as inclusive upper bounds; timestamps that decrease anywhere raise
    ``FitError``.  Every group must be nonempty.
    """
    n = cache.num_increments
    if j < 1:
        raise FitError("need at least one interval")
    if mode == "count":
        cuts = [n * k // j for k in range(j + 1)]
    elif mode == "time":
        ts = cache.timestamps
        _check_nondecreasing(ts)
        lo, hi = (int(ts[0]), int(ts[-1])) if n else (0, 0)
        edges = [lo + (hi - lo) * k // j for k in range(1, j)]
        cuts = [0] + [int(np.searchsorted(ts, e, side="right")) for e in edges] + [n]
    else:
        raise FitError(f"unknown interval mode {mode!r}")
    groups = list(zip(cuts[:-1], cuts[1:]))
    for lo, hi in groups:
        if hi <= lo:
            raise IntervalUnderflowError(
                f"interval partition J={j} ({mode}) leaves an empty group"
            )
    return groups


@dataclass
class FitResult:
    """A fitted piecewise-constant mixture with its score and diagnostics."""

    components: list[str]
    mode: str
    intervals: list[dict]
    loglik: float
    loglik_rand: float
    total_choices: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def num_intervals(self) -> int:
        return len(self.intervals)

    @property
    def c0(self) -> float:
        return per_choice_ratio(self.loglik, self.loglik_rand, self.total_choices)

    def to_dict(self) -> dict:
        return {
            "components": self.components,
            "mode": self.mode,
            "intervals": self.intervals,
            "logL": self.loglik,
            "logL_rand": self.loglik_rand,
            "choices": self.total_choices,
            "c0": self.c0,
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_json(text: str) -> "FitResult":
        """The fit ``to_json`` writes; a malformed one raises FitError naming the field."""
        readers = {  # in field order
            "components": (_fit_components, ...),
            "mode": (_fit_mode, ...),
            "intervals": (_fit_intervals, ...),
            "logL": (json_number, ...),
            "logL_rand": (json_number, ...),
            "choices": (json_int, ...),
            "diagnostics": (dict, {}),
        }
        fields = json_fields(text, FitError, readers)
        for k, iv in enumerate(fields["intervals"]):
            if len(iv["weights"]) != len(fields["components"]):
                raise FitError(
                    f"interval {k}: field 'weights' needs one weight per component "
                    f"({len(fields['components'])}), got {len(iv['weights'])}"
                )
        return FitResult(*fields.values())

    def schedule(self) -> ModelSchedule:
        """Rebuild the fitted schedule for re-scoring or generation."""
        comps = tuple(parse_model_spec(c).components[0] for c in self.components)
        intervals = tuple(
            MixtureInterval(tuple(iv["weights"]), comps)
            for iv in self.intervals
        )
        if self.mode == "time":
            boundaries = tuple(int(iv["end_time"]) for iv in self.intervals[:-1])
            return ModelSchedule(intervals, boundaries, BoundaryMode.TIMESTAMP)
        boundaries = tuple(int(iv["end_index"]) for iv in self.intervals[:-1])
        return ModelSchedule(intervals, boundaries, BoundaryMode.INDEX)


def _fit_components(value) -> list[str]:
    """A fit's JSON component specs."""
    if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
        raise TypeError("expected a list of model specs")
    return value


def _fit_mode(value) -> str:
    """A fit's JSON partition mode."""
    if value not in ("count", "time"):
        raise ValueError("expected 'count' or 'time'")
    return value


def _fit_intervals(value) -> list[dict]:
    """A fit's JSON intervals: number weights, integer first and last index and last timestamp."""
    if not isinstance(value, list) or not value:
        raise ValueError("expected a list of intervals")
    readers = {
        "weights": (_fit_weights, ...),
        "start_index": (json_int, ...),
        "end_index": (json_int, ...),
        "end_time": (json_int, ...),
    }
    out = []
    for k, iv in enumerate(value):
        read = json_object_fields(iv, ValueError, readers, f"interval {k}: ")
        out.append({**iv, **read})
    return out


def _fit_weights(value) -> list[float]:
    """An interval's JSON weights."""
    if not isinstance(value, list):
        raise TypeError("expected a list of numbers")
    return [json_number(w) for w in value]


def fit_intervals(
    cache: ChoiceCache,
    j: int = 1,
    mode: str = "count",
    step: float = DEFAULT_WEIGHT_STEP,
) -> FitResult:
    """Independent weight fits on a J-interval partition of the stream."""
    groups = partition_indices(cache, j, mode)
    return _fit_groups(cache, simplex_grid(len(cache.components), step), groups, mode, step)


def _fit_groups(
    cache: ChoiceCache, grid: np.ndarray, groups: list[tuple[int, int]], mode: str, step: float
) -> FitResult:
    """fit_intervals on the given groups, with the weight lattice of ``step`` already built.

    Every call scores the groups from the cache's block sums
    (``_block_sums``), filling them on the first call for ``step``, so a fit
    does not depend on which fits ran on the cache before it.
    """
    kept = _block_sums(cache, grid, step)
    intervals: list[dict] = []
    loglik = 0.0
    for (lo, hi), logliks in zip(groups, _interval_logliks(cache, grid, kept, groups)):
        best = _argmax_first(logliks)
        loglik += float(logliks[best])
        intervals.append(
            {
                "weights": [float(w) for w in grid[best]],
                "start_index": lo,
                "end_index": hi - 1,
                "start_time": int(cache.timestamps[lo]),
                "end_time": int(cache.timestamps[hi - 1]),
                "increments": hi - lo,
                "choices": int(cache.num_choices[lo:hi].sum()),
            }
        )
    return FitResult(
        components=[format_component(c) for c in cache.components],
        mode=mode,
        intervals=intervals,
        loglik=loglik,
        loglik_rand=float(cache.logp_rand.sum()),
        total_choices=cache.total_choices,
        diagnostics={
            "sampled_increments": cache.sampled_increments,
            "fallback_choices": cache.fallback_choices,
            "weight_step": step,
        },
    )


def scan_interval_counts(
    cache: ChoiceCache,
    jmin: int = 1,
    jmax: int = 8,
    mode: str = "count",
    step: float = DEFAULT_WEIGHT_STEP,
) -> list[FitResult]:
    """fit_intervals at every J in [jmin, jmax]."""
    if jmin < 1 or jmax < jmin:
        raise FitError(f"bad interval-count range [{jmin}, {jmax}]")
    grid = simplex_grid(len(cache.components), step)
    return [
        _fit_groups(cache, grid, partition_indices(cache, j, mode), mode, step)
        for j in range(jmin, jmax + 1)
    ]


@dataclass
class ChangepointFit:
    """Best single switch time between two fixed per-increment score series.

    ``t_hat`` is the grid value as the grid holds it: an int for an integer
    grid, exact at any size, and a float for a float grid.
    """

    t_hat: int | float
    loglik: float
    grid: np.ndarray
    logliks: np.ndarray


def _check_scores(series: np.ndarray) -> None:
    """Raise FitError at a score series' first NaN or +inf entry, which no log-probability is."""
    bad = np.flatnonzero(~(series < np.inf))
    if len(bad):
        at = int(bad[0])
        raise FitError(
            f"score series holds {series[at]} at index {at}, which is not a log-probability"
        )


def _finite_prefix(
    rows: Iterable[np.ndarray], count: int, num: int, reference: np.ndarray | None = None
):
    """(A, I + 1) prefix sums, from 0, of ``count`` rows' finite entries less the reference's.

    The rows of I entries come one at a time, and each is written into its
    row of the result and summed there in place, so the call holds one row
    besides the result.  Also each row's first and last impossible (-inf)
    increment, I and -1 in a row without one.  A NaN or +inf entry of a row,
    and then of the reference, raises ``FitError``.
    """
    prefix = np.empty((count, num + 1))
    prefix[:, 0] = 0.0
    first, last = np.full(count, num), np.full(count, -1)
    finite_reference = None
    if reference is not None:
        finite_reference = np.where(reference == -np.inf, 0.0, reference)
    for k, row in enumerate(rows):
        _check_scores(row)
        sums = prefix[k, 1:]
        sums[:] = row
        impossible = np.flatnonzero(row == -np.inf)
        if len(impossible):
            first[k], last[k] = impossible[0], impossible[-1]
            sums[impossible] = 0.0
        if finite_reference is not None:
            sums -= finite_reference
        np.cumsum(sums, out=sums)
    if reference is not None:
        _check_scores(reference)
    return prefix, first, last


def _check_series(timestamps: np.ndarray, *lengths: int) -> None:
    """Raise FitError unless the score series match the timestamps, which are non-decreasing."""
    if any(n != len(timestamps) for n in lengths):
        raise FitError("score series and timestamps must have equal length")
    if len(timestamps) == 0:
        raise FitError("empty stream")
    _check_nondecreasing(timestamps)


def _split_search(pre, post, timestamps, grid, reference_total=None) -> tuple:
    """(T, score, its pre and post rows, grid, every point's score) of the best switch time T.

    ``pre`` and ``post`` are the ``_finite_prefix`` sums of the rows each
    side of a cut scores by, and each side scores as its best row, the
    earliest on ties: the pre side sums a row's increments at or before T,
    the post side the rest, as the row total less the pre sum.  Rows summed
    less a reference get its finite total, ``reference_total``, added back.
    A side holding one of a row's impossible increments scores -inf for
    that row.  ``grid`` is a resolved switch grid (``_switch_grid``), or
    None for the unique timestamps.
    """
    grid = np.unique(timestamps) if grid is None else grid
    # integer timestamps are searched against any other grid by its floors,
    # so a split is exact at any timestamp, where float64 holds those below 2**53
    ints = timestamps.dtype.kind == "i" and grid.dtype.kind != "i"
    splits = np.searchsorted(timestamps, _int64_floors(grid) if ints else grid, side="right")
    rows, scores = [], 0.0
    for (prefix, first, last), after in ((pre, False), (post, True)):
        sums = prefix[:, splits]
        if after:
            np.subtract(prefix[:, -1:], sums, out=sums)
        sums[last[:, None] >= splits if after else first[:, None] < splits] = -np.inf
        rows.append(sums.argmax(axis=0))
        scores = scores + sums[rows[-1], np.arange(len(splits))]
        del sums  # one side's (A, G) sums alive at a time
    if reference_total is not None:
        scores += reference_total
    best = _argmax_first(scores)
    t_hat = grid[best].item() if isinstance(grid[best], np.generic) else grid[best]
    return t_hat, float(scores[best]), int(rows[0][best]), int(rows[1][best]), grid, scores


def _changepoint(
    pre: np.ndarray, post: np.ndarray, timestamps: np.ndarray, grid: np.ndarray | None
) -> ChangepointFit:
    """``fit_changepoint`` of float64 series on a resolved switch grid."""
    _check_series(timestamps, len(pre), len(post))
    # Sums relative to the post series: its total plus a prefix sum of the
    # differences, so equal series tie exactly, where a difference of two
    # prefix sums would round apart.
    num = len(timestamps)
    reference_total = np.where(post == -np.inf, 0.0, post).sum()
    t_hat, loglik, _, _, grid, logliks = _split_search(
        _finite_prefix([pre], 1, num, post),
        _finite_prefix([post], 1, num, post),
        timestamps,
        grid,
        reference_total,
    )
    return ChangepointFit(t_hat, loglik, grid, logliks)


def fit_changepoint(
    logp_pre: np.ndarray,
    logp_post: np.ndarray,
    timestamps: np.ndarray,
    grid: np.ndarray | None = None,
) -> ChangepointFit:
    """Maximize sum(pre logp for t <= T) + sum(post logp for t > T) over T.

    The candidate grid defaults to every observed timestamp, which must be
    non-decreasing (``FitError`` names the first index that is not).  Ties
    pick the earliest T, so a changeless stream (identical series) reports
    the start of the searched range.  A side holding an impossible (-inf)
    increment scores -inf; a NaN or +inf score raises ``FitError``.
    """
    grid = _switch_grid(grid)
    pre = np.asarray(logp_pre, dtype=np.float64)
    post = np.asarray(logp_post, dtype=np.float64)
    return _changepoint(pre, post, np.asarray(timestamps), grid)


def changepoint_grid(t_lo: float, t_hi: float, points: int = 1000) -> np.ndarray:
    """Evenly spaced candidate switch times across [t_lo, t_hi]."""
    if t_hi < t_lo:
        raise FitError("empty changepoint range")
    return np.linspace(t_lo, t_hi, points + 1)


def fit_dp_changepoint(
    source: GrowthStream | DPTrace,
    alpha_pre: float,
    alpha_post: float,
    grid: np.ndarray | None = None,
) -> ChangepointFit:
    """Changepoint between two known degree-power exponents, on a trace or a stream's replay.

    The switch grid is checked before the stream is replayed or scored.
    """
    grid = _switch_grid(grid)
    trace = _as_trace(source)
    pre, post = dp_trace_logp(trace, alpha_pre), dp_trace_logp(trace, alpha_post)
    return _changepoint(pre, post, trace.timestamps, grid)


@dataclass
class DPChangepointJointFit:
    t_hat: int | float  # the t-grid value as the grid holds it, as in ChangepointFit
    alpha_pre: float
    alpha_post: float
    loglik: float


def fit_dp_changepoint_joint(
    source: GrowthStream | DPTrace,
    alpha_grid: np.ndarray | None = None,
    t_grid: np.ndarray | None = None,
) -> DPChangepointJointFit:
    """Jointly fit (T, pre exponent, post exponent) for a one-switch schedule.

    ``t_grid`` defaults to every observed timestamp.  Both grids are checked
    before the stream is replayed or scored.  Each exponent's scores are
    summed into their row of one (A, I + 1) table as they are computed.
    """
    alpha_grid = default_alpha_grid() if alpha_grid is None else _exponent_grid(alpha_grid)
    t_grid = _switch_grid(t_grid)
    trace = _as_trace(source)
    timestamps = trace.timestamps
    _check_series(timestamps)
    rows = (dp_trace_logp(trace, float(a)) for a in alpha_grid)
    prefix = _finite_prefix(rows, len(alpha_grid), len(timestamps))
    t_hat, loglik, pre, post, _, _ = _split_search(prefix, prefix, timestamps, t_grid)
    return DPChangepointJointFit(t_hat, float(alpha_grid[pre]), float(alpha_grid[post]), loglik)


@dataclass
class WilksReport:
    """Likelihood-ratio test of nested fits."""

    statistic: float
    df: int
    p_value: float
    loglik_null: float
    loglik_alt: float

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "df": self.df,
            "p_value": self.p_value,
            "logL_null": self.loglik_null,
            "logL_alt": self.loglik_alt,
        }


_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_error(k: float) -> float:
    """log Γ(k+1) − (k+½)·log k + k − log √(2π), the error of Stirling's formula."""
    if k > 15.0:
        kk = k * k
        return (
            1.0 / 12
            - (1.0 / 360 - (1.0 / 1260 - (1.0 / 1680 - 1.0 / (1188 * kk)) / kk) / kk) / kk
        ) / k
    return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - _LN_SQRT_2PI


def _deviance(k: float, x: float) -> float:
    """k·log(k/x) + x − k, by a series where the two sides nearly cancel."""
    if abs(k - x) < 0.1 * (k + x):
        v = (k - x) / (k + x)
        total = (k - x) * v
        term = 2.0 * k * v
        j = 1
        while True:
            term *= v * v
            nxt = total + term / (2 * j + 1)
            if nxt == total:
                return total
            total = nxt
            j += 1
    return k * math.log(k / x) + x - k


def _poisson_term(k: float, x: float) -> float:
    """exp(−x)·x^k / Γ(k+1), in Loader's saddle-point form (no overflow)."""
    if k == 0.0:
        return math.exp(-x)
    return math.exp(-_stirling_error(k) - _deviance(k, x)) / math.sqrt(2.0 * math.pi * k)


def chi_square_sf(stat: float, df: int) -> float:
    """Upper tail P(χ²_df > stat) of the chi-square distribution.

    With a = df/2 and x = stat/2 this is the regularized gamma Q(a, x), in
    closed form for integer df:

    - even df: Q = exp(−x) · Σ_{i<a} x^i / i!
    - odd df: Q = erfc(√x) + exp(−x) · Σ_{i=1}^{a−½} x^(i−½) / Γ(i+½)

    Each term exp(−x)·x^k/Γ(k+1) is formed from its logarithm in Loader's
    saddle-point form (C. Loader, "Fast and accurate computation of binomial
    probabilities", 2000), and terms are summed outward from the largest one,
    so no (stat, df) pair overflows or returns NaN.  Summing x^k/Γ(k+1) as
    exp(k·log x − lgamma(k+1) − x) instead loses about 1e-12 relative near
    df = 1,000, where those three parts each reach thousands.  Below the mode (x < a) the
    function returns 1 − P, where P = Σ_{k=a,a+1,...} exp(−x)·x^k/Γ(k+1) is
    the lower tail; there Q > 0.3, so no precision is lost.  The cost is
    O(√df) terms in the bulk and at most O(df).

    ``stat <= 0`` returns 1.0 and ``stat = inf`` returns 0.0.  A NaN
    ``stat``, or a ``df`` that is not an integer >= 1, raises ``FitError``.
    """
    if isinstance(df, bool) or not isinstance(df, numbers.Integral) or df < 1:
        raise FitError(f"degrees of freedom must be an integer >= 1, got {df!r}")
    if math.isnan(stat):
        raise FitError("chi-square statistic is NaN")
    if stat <= 0.0:
        return 1.0
    if math.isinf(stat):
        return 0.0
    a = df / 2.0
    x = stat / 2.0
    if x < a:
        term = lower = _poisson_term(a, x)
        k = a
        while True:
            k += 1.0
            term *= x / k
            if lower + term == lower:
                return 1.0 - lower
            lower += term
    tail = math.erfc(math.sqrt(x)) if df % 2 else 0.0
    k = a - 1.0
    if k < 0.0:
        return tail
    term = upper = _poisson_term(k, x)
    while k >= 1.0:
        term *= k / x
        if upper + term == upper:
            break
        upper += term
        k -= 1.0
    return tail + upper


def wilks_test(loglik_null: float, loglik_alt: float, df: int) -> WilksReport:
    """Two-times-log-likelihood-ratio test against chi-square with df dof.

    The alternative must nest the null; a lower alternative likelihood
    (beyond rounding) violates nesting and raises.  A NaN log-likelihood, or
    two infinite ones of the same sign, leaves no statistic and raises
    ``FitError``; a −inf null against a finite alternative gives statistic
    inf and p-value 0.
    """
    if df < 1:
        raise FitError(f"degrees of freedom must be positive, got {df}")
    stat = 2.0 * (loglik_alt - loglik_null)
    if math.isnan(stat):
        raise FitError(
            f"log-likelihoods null {loglik_null} and alternative {loglik_alt} "
            "give no likelihood-ratio statistic"
        )
    if stat < -1e-6:
        raise NestingViolationError(
            f"alternative logL {loglik_alt} below null {loglik_null}; models not nested"
        )
    stat = max(stat, 0.0)
    return WilksReport(
        statistic=stat,
        df=df,
        p_value=chi_square_sf(stat, df),
        loglik_null=loglik_null,
        loglik_alt=loglik_alt,
    )


def compare_interval_fits(coarse: FitResult, fine: FitResult) -> WilksReport:
    """Wilks test between two interval fits of the same component list.

    The null must be nested in the alternative: every boundary of the coarse
    partition (the start of each of its intervals but the first) must also
    be a boundary of the fine one.  Degrees of freedom: (L - 1) extra free
    weights per added interval.
    """
    if coarse.components != fine.components:
        raise NestingViolationError("fits use different component lists")
    if fine.num_intervals <= coarse.num_intervals:
        raise NestingViolationError("alternative must use more intervals than the null")
    missing = sorted(
        {iv["start_index"] for iv in coarse.intervals[1:]}
        - {iv["start_index"] for iv in fine.intervals[1:]}
    )
    if missing:
        raise NestingViolationError(
            f"fits are not nested: null boundaries at increments {missing} "
            "are not boundaries of the alternative"
        )
    num_components = len(coarse.components)
    if num_components < 2:
        raise FitError("single-component fits have no free weights to test")
    df = (num_components - 1) * (fine.num_intervals - coarse.num_intervals)
    return wilks_test(coarse.loglik, fine.loglik, df)


def changepoint_series_from_cache(cache: ChoiceCache, weights: np.typing.ArrayLike) -> np.ndarray:
    """Per-increment logp under fixed mixture weights (for changepoint scans)."""
    return cache_logratios(cache, weights) + cache.logp_rand
