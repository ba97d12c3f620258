"""Tests for increment likelihoods, caches, and degree-power traces."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growthfit as gf
from growthfit.likelihood import (
    DEFAULT_ORDERING_SAMPLES,
    MAX_COLLAPSED_DEGREE,
    MAX_EXHAUSTIVE_CHOICES,
    build_choice_cache,
    build_dp_trace,
    cache_loglik,
    cache_logratios,
    dp_trace_logp,
    per_choice_ratio,
)
from growthfit import events, likelihood
from growthfit.events import StreamColumns
from memory import traced_peak
from oracles import (
    chunked_cache_loglik,
    oracle_choice_probabilities,
    oracle_fallbacks,
    oracle_increment_probability,
)


def schedule_for(*pairs):
    weights, comps = zip(*pairs)
    return gf.ModelSchedule.constant(gf.MixtureInterval(tuple(weights), tuple(comps)))


def path_plus_star():
    """Path 1-2-3 (ids 0-1-2) about to receive node 3 -> {1, 2}."""
    graph = gf.graph_from_edges([(0, 1), (1, 2)])
    inc = gf.Increment(0, 3, True, (1, 2), (False, False))
    return graph, inc


class TestWorkedExample:
    def test_linear_degree_value(self):
        graph, inc = path_plus_star()
        p = gf.increment_probability(graph, inc, schedule_for((1.0, gf.DegreePower(1.0))))
        assert abs(p - 5.0 / 12.0) < 1e-15

    def test_uniform_value(self):
        graph, inc = path_plus_star()
        p = gf.increment_probability(graph, inc, schedule_for((1.0, gf.Random())))
        assert abs(p - 1.0 / 3.0) < 1e-15

    def test_per_choice_ratio(self):
        graph, inc = path_plus_star()
        stream = gf.GrowthStream(seed_edges=[(0, 1), (1, 2)], increments=[inc])
        summary, _ = gf.score_stream(stream, schedule_for((1.0, gf.DegreePower(1.0))))
        assert abs(summary.c0 - math.sqrt(5.0 / 4.0)) < 1e-15


class TestAgainstBruteForceOracle:
    def run_case(self, rng):
        n = int(rng.integers(5, 12))
        edges = set()
        for v in range(1, n):
            edges.add((int(rng.integers(0, v)), v))
        for _ in range(int(rng.integers(0, n))):
            u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
            edges.add((int(u), int(v)))
        edges = sorted(edges)
        graph = gf.graph_from_edges(edges, num_nodes=n)

        pool_specs = [
            (gf.Random(), ("rand",)),
            (gf.DegreePower(1.0), ("dp", 1.0)),
            (gf.DegreePower(0.0), ("dp", 0.0)),
            (gf.DegreePower(-0.1), ("dp", -0.1)),
            (gf.DegreePower(2.1), ("dp", 2.1)),
            (gf.RankPreference(1.0), ("rp", 1.0)),
            (gf.TriangleClosure(), ("tri",)),
        ]
        k = int(rng.integers(1, 4))
        picks = rng.choice(len(pool_specs), size=k, replace=False)
        weights = rng.dirichlet(np.ones(k))
        comps = tuple(pool_specs[i][0] for i in picks)
        mixture = [(float(w), pool_specs[i][1]) for w, i in zip(weights, picks)]
        schedule = gf.ModelSchedule.constant(gf.MixtureInterval(tuple(weights), comps))

        center_is_new = bool(rng.integers(0, 2))
        if center_is_new:
            center, pool = n, list(range(n))
        else:
            center = int(rng.integers(0, n))
            banned = {center} | set(graph.neighbors(center))
            pool = [x for x in range(n) if x not in banned]
            if not pool:
                return None
        q = int(rng.integers(1, min(6, len(pool)) + 1))
        existing = [int(t) for t in rng.choice(pool, size=q, replace=False)]
        first_new = n + (1 if center_is_new else 0)
        n_new = int(rng.integers(0, 2))
        targets = [(t, False) for t in existing]
        targets += [(first_new + i, True) for i in range(n_new)]
        inc = gf.Increment(
            99, center, center_is_new,
            tuple(t for t, _ in targets),
            tuple(is_new for _, is_new in targets),
        )
        p_pkg = gf.increment_probability(graph, inc, schedule)
        p_ref = oracle_increment_probability(n, edges, center, center_is_new, targets, mixture)
        return p_pkg, p_ref

    def test_randomized_increments_match(self, monkeypatch):
        monkeypatch.setattr(likelihood, "MAX_EXHAUSTIVE_CHOICES", 8)
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 80:
            case = self.run_case(rng)
            if case is None:
                continue
            p_pkg, p_ref = case
            checked += 1
            if p_ref == 0.0:
                assert p_pkg == 0.0
            else:
                assert abs(p_pkg - p_ref) <= 1e-12 * abs(p_ref)


def drawn_orderings(inc, index, seed, max_exhaustive, samples):
    """(trace, orderings as node rows) of one increment onto an edgeless graph of 99 nodes."""
    graph = gf.graph_from_edges([], num_nodes=99)
    cols = StreamColumns.of([inc], graph.num_nodes)
    trace = likelihood._replay(graph, cols, index, seed, samples, max_exhaustive)
    # the increment's targets come first in the target arrays
    rows = [trace.target_id[block[0]] for block in trace.orderings]
    return trace, [tuple(row) for block in rows for row in block.tolist()]


class TestOrderings:
    def test_small_increments_have_no_orderings(self):
        inc = gf.Increment(0, 99, True, (1, 2, 3), (False,) * 3)
        trace, orders = drawn_orderings(inc, 0, 0, 5, 120)
        assert not trace.sampled[0]
        assert trace._ordering_count[0] == math.factorial(3)
        assert orders == [] and len(trace.chosen_deg) == 0

    def test_large_increments_sample(self):
        inc = gf.Increment(0, 99, True, tuple(range(6)), (False,) * 6)
        trace, orders = drawn_orderings(inc, 3, 7, 5, 50)
        assert trace.sampled[0]
        assert len(orders) == 50
        assert trace._ordering_count[0] == 50
        for order in orders:
            assert sorted(order) == list(range(6))

    def test_sampling_is_deterministic_in_seed_and_index(self):
        inc = gf.Increment(0, 99, True, tuple(range(6)), (False,) * 6)
        a = drawn_orderings(inc, 3, 7, 5, 50)[1]
        b = drawn_orderings(inc, 3, 7, 5, 50)[1]
        c = drawn_orderings(inc, 4, 7, 5, 50)[1]
        assert a == b
        assert a != c

    def test_sampled_estimator_is_unbiased(self, monkeypatch):
        graph = gf.graph_from_edges(
            [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 5), (2, 6)]
        )
        inc = gf.Increment(9, 7, True, (0, 2, 3, 4, 5, 6), (False,) * 6)
        sched = schedule_for((1.0, gf.DegreePower(1.0)))
        monkeypatch.setattr(likelihood, "MAX_EXHAUSTIVE_CHOICES", 6)
        exact = gf.increment_probability(graph, inc, sched)
        monkeypatch.setattr(likelihood, "MAX_EXHAUSTIVE_CHOICES", 5)
        draws = np.array(
            [
                gf.increment_probability(graph, inc, sched, seed=k, ordering_samples=40)
                for k in range(400)
            ]
        )
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - exact) < 4.0 * se


class TestReplayOptions:
    # a negative seed is refused whether or not a star is sampled, and so
    # never keys a kept trace
    @pytest.mark.parametrize(
        "option, value", [("ordering_samples", 0), ("ordering_samples", -3), ("seed", -1)]
    )
    @pytest.mark.parametrize("new_targets", [3, 7])
    def test_out_of_range_is_a_model_error(self, option, value, new_targets, monkeypatch):
        recipe = gf.GrowthRecipe.constant("BA", increments=20, new_targets=new_targets)
        stream = gf.grow(recipe, seed=0)
        monkeypatch.setattr(likelihood, "MAX_EXHAUSTIVE_CHOICES", 5)
        assert build_dp_trace(stream).sampled.any() == (new_targets > 4)
        graph = stream.seed_graph()
        calls = (
            lambda: build_dp_trace(stream, **{option: value}),
            lambda: gf.increment_probability(
                graph, stream.increments[0], gf.DegreePower(1.0), **{option: value}
            ),
        )
        for call in calls:
            with pytest.raises(gf.ModelError, match=f"{option} .*{value}"):
                call()
        assert len(stream._traces) == 1


class TestOneTracePerStream:
    """Every scorer reads a stream's replay or a trace built once, to the same bit."""

    def test_trace_scores_as_the_stream_does(self):
        recipe = gf.GrowthRecipe.constant(
            "0.4*BA + 0.3*TRI + 0.3*RAND", increments=150, internal_prob=0.4, internal_targets=8
        )
        stream = gf.grow(recipe, seed=1)
        trace = build_dp_trace(stream)
        assert trace.sampled.any() and (trace.center_new & (trace.existing_counts > 1)).any()
        sched = gf.parse_model_spec("0.4*BA + 0.3*TRI + 0.3*RAND")
        (direct, direct_series), (traced, traced_series) = (
            gf.score_stream(source, sched, keep_series=True) for source in (stream, trace)
        )
        assert traced == direct and traced_series == direct_series
        comps = [gf.DegreePower(1.0), gf.TriangleClosure(), gf.Random()]
        caches = [build_choice_cache(source, comps) for source in (stream, trace)]
        for name, value in vars(caches[0]).items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == getattr(caches[1], name).tobytes(), name
        assert caches[0].fallback_choices == caches[1].fallback_choices
        tri = gf.TriangleClosure()
        _, series = gf.score_stream(stream, tri, keep_series=True)
        logp = likelihood._trace_logp(trace, [tri], [1.0])[0]
        assert logp.tolist() == [s.logp for s in series]


class TestScoreStream:
    def make_stream(self, spec, n=300, seed=0, **kw):
        return gf.grow(gf.GrowthRecipe.constant(spec, increments=n, **kw), seed=seed)

    def test_uniform_model_is_its_own_baseline(self):
        stream = self.make_stream("RAND", internal_prob=0.2, internal_targets=2, seed_clique=6)
        summary, _ = gf.score_stream(stream, schedule_for((1.0, gf.Random())))
        assert summary.loglik == summary.loglik_rand
        assert summary.c0 == 1.0

    def test_flat_degree_power_equals_uniform(self):
        stream = self.make_stream("RAND", n=120)
        s_dp, _ = gf.score_stream(stream, schedule_for((1.0, gf.DegreePower(0.0))))
        s_rand, _ = gf.score_stream(stream, schedule_for((1.0, gf.Random())))
        assert s_dp.loglik == s_rand.loglik

    def test_true_model_beats_uniform_on_average(self):
        stream = self.make_stream("BA")
        summary, _ = gf.score_stream(stream, schedule_for((1.0, gf.DegreePower(1.0))))
        assert summary.c0 > 1.02

    def test_series_matches_totals(self):
        stream = self.make_stream("0.5*BA + 0.5*RAND", n=100)
        sched = schedule_for((0.5, gf.DegreePower(1.0)), (0.5, gf.Random()))
        summary, series = gf.score_stream(stream, sched, keep_series=True)
        assert len(series) == 100
        assert abs(summary.loglik - math.fsum(s.logp for s in series)) < 1e-9
        assert abs(summary.loglik_rand - math.fsum(s.logp_rand for s in series)) < 1e-9
        assert summary.total_choices == sum(s.num_choices for s in series)

    def test_intervals_found_as_the_schedule_finds_them(self):
        # integer keys against float boundaries, exactly, past 2**53 too
        from growthfit.likelihood import _interval_indices

        pair = (
            gf.MixtureInterval.single(gf.Random()),
            gf.MixtureInterval.single(gf.DegreePower(1.0)),
        )
        keys = [-3, 0, 4, 5, 6, 2**60 - 1, 2**60, 2**60 + 1, 2**62]
        for mode, bounds in ((gf.BoundaryMode.TIMESTAMP, (4.5, 5.0, float(2**60))),
                             (gf.BoundaryMode.INDEX, (0.0, 2.0**62))):
            intervals = tuple(pair[j % 2] for j in range(len(bounds) + 1))
            sched = gf.ModelSchedule(intervals, bounds, mode)
            trace = gf.DPTrace.__new__(gf.DPTrace)
            trace.timestamps = np.array(keys, dtype=np.int64)
            first = 0 if mode is gf.BoundaryMode.TIMESTAMP else 2**60 - 2
            want = [sched.interval_index(t, first + k) for k, t in enumerate(keys)]
            assert _interval_indices(sched, trace, first).tolist() == want

    def test_impossible_increment_scores_zero(self):
        # center 0 closes a "triangle" with node 4, which shares no common
        # neighbor with it while eligible node 3 does: weight 0 against a
        # positive total, so no fallback fires and the step is impossible
        graph_edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]
        inc = gf.Increment(0, 0, False, (4,), (False,))
        stream = gf.GrowthStream(seed_edges=graph_edges, increments=[inc])
        summary, series = gf.score_stream(
            stream, schedule_for((1.0, gf.TriangleClosure())), keep_series=True
        )
        assert summary.loglik == -math.inf
        assert summary.impossible_increments == 1
        assert series[0].impossible

    def test_overfull_star_is_rejected(self):
        graph_edges = [(0, 1), (0, 2), (0, 3)]
        inc = gf.Increment(0, 1, False, (2, 3), (False, False))
        stream = gf.GrowthStream(seed_edges=graph_edges, increments=[inc])
        # center 1 with neighborhood {0} leaves eligible {2, 3}: fine
        summary, _ = gf.score_stream(stream, schedule_for((1.0, gf.Random())))
        assert summary.c0 == 1.0
        bad = gf.Increment(0, 0, False, (1, 2), (False, False))
        with pytest.raises(gf.RejectedIncrementError):
            gf.score_stream(
                gf.GrowthStream(seed_edges=graph_edges, increments=[bad]),
                schedule_for((1.0, gf.Random())),
            )

    @pytest.mark.parametrize(
        "inc",
        [
            gf.Increment(0, 7, False, (0,), (False,)),
            gf.Increment(0, 3, True, (0, 7), (False, False)),
        ],
        ids=["center", "target"],
    )
    @pytest.mark.parametrize(
        "replay",
        [
            lambda s: build_dp_trace(s),
            lambda s: gf.score_stream(s, gf.DegreePower(1.0)),
            lambda s: build_choice_cache(s, [gf.DegreePower(1.0), gf.TriangleClosure()]),
        ],
        ids=["trace", "score", "cache"],
    )
    def test_unknown_node_is_typed(self, inc, replay):
        stream = gf.GrowthStream(seed_edges=[(0, 1), (1, 2)], increments=[inc])
        with pytest.raises(gf.UnknownNodeError):
            replay(stream)

    def test_per_choice_ratio_normalizes_by_choice_count(self):
        assert per_choice_ratio(math.log(4.0), 0.0, 2) == 2.0
        assert per_choice_ratio(-math.inf, 0.0, 5) == 0.0
        with pytest.raises(gf.UndefinedRatioError):
            per_choice_ratio(0.0, 0.0, 0)


class TestChoiceCache:
    def make(self, spec="0.4*BA + 0.3*TRI + 0.3*RAND", n=150, seed=2):
        stream = gf.grow(
            gf.GrowthRecipe.constant(
                spec, increments=n, new_targets=3, internal_prob=0.2,
                internal_targets=2, seed_clique=6,
            ),
            seed=seed,
        )
        comps = [gf.DegreePower(1.0), gf.TriangleClosure(), gf.Random()]
        return stream, comps, build_choice_cache(stream, comps)

    def test_cache_matches_direct_scoring(self):
        stream, comps, cache = self.make()
        grid = np.array([[1, 0, 0], [0, 0, 1], [0.4, 0.3, 0.3], [0.1, 0.8, 0.1]])
        oracle = oracle_logps(stream, comps, grid, DEFAULT_ORDERING_SAMPLES)
        for weights, expect in zip(grid, oracle):
            ratios = cache_logratios(cache, weights)
            assert np.isfinite(ratios).all()
            cached = float(ratios.sum()) + cache.logp_rand.sum()
            assert abs(cached - expect.sum()) < 1e-9

    def test_cache_loglik_matches_logratios(self):
        _, _, cache = self.make(n=80)
        grid = np.array([[1.0, 0.0, 0.0], [0.2, 0.5, 0.3], [0.0, 0.0, 1.0]])
        lls = cache_loglik(cache, grid)
        base = cache.logp_rand.sum()
        for row, expect in zip(grid, lls):
            assert abs(cache_logratios(cache, row).sum() + base - expect) < 1e-10

    def test_uniform_weights_give_zero_ratio(self):
        _, _, cache = self.make(spec="RAND", n=60)
        ratios = cache_logratios(cache, np.array([0.0, 0.0, 1.0]))
        assert np.max(np.abs(ratios)) == 0.0

    def test_cache_metadata(self):
        from growthfit.stream import summarize_stream

        stream, _, cache = self.make(n=60)
        assert cache.num_choices.sum() == summarize_stream(stream).model_choices
        assert len(cache.timestamps) == len(stream.increments)
        assert cache.sampled_increments == 0  # no star here has more than 3 choices
        assert np.all(np.diff(cache.increment_offsets) >= 0)


BA_TRI_RAND = (gf.DegreePower(1.0), gf.TriangleClosure(), gf.Random())


@pytest.fixture(scope="module")
def lattice_caches():
    """A grown [BA, TRI, RAND] cache, and a mixed one that also holds a row-path star."""
    grown = TestChoiceCache().make()[2]
    mixed = build_choice_cache(mixed_stream(np.random.default_rng(5), increments=40), BA_TRI_RAND)
    assert len(mixed.row_increments) == 1
    return grown, mixed


@pytest.fixture(scope="module")
def long_cache():
    """A 2000-increment [BA, RAND] cache whose one coefficient block spans 8 slabs of 256 rows."""
    stream = gf.grow(
        gf.GrowthRecipe.constant("0.5*BA + 0.5*RAND", increments=2000, new_targets=3), seed=3
    )
    cache = build_choice_cache(stream, [gf.DegreePower(1.0), gf.Random()])
    # Every star has 3 existing targets, so one coefficient block spans the stream.
    assert np.count_nonzero(np.diff(cache.poly_offsets)) == 1
    return cache


class TestLatticeEvaluation:
    """cache_loglik equals the chunk-by-chunk, slab-by-slab accumulation, bit for bit."""

    @pytest.mark.parametrize("count", [1, 257, 5151])
    def test_matches_chunked_reference(self, lattice_caches, long_cache, count):
        for cache in (*lattice_caches, long_cache):
            # 5151 points for either component count
            step = {2: 1 / 5150, 3: 0.01}[len(cache.components)]
            lattice = gf.simplex_grid(len(cache.components), step)
            weights = {1: lattice[100:101], 257: lattice[::20][:257], 5151: lattice}[count]
            n = cache.num_increments
            for start, stop in [(0, n), (3, n - 5), (n // 3, 2 * n // 3), (7, 8), (5, 5)]:
                got = cache_loglik(cache, weights, start, stop)
                ref = chunked_cache_loglik(likelihood, cache, weights, start, stop)
                assert np.array_equal(got, ref), (count, start, stop)
            one = cache_loglik(cache, weights[0], 2, n - 1)
            assert one == chunked_cache_loglik(likelihood, cache, weights[0], 2, n - 1)

    def test_pure_triangle_points_are_minus_infinity_without_nan(self, lattice_caches):
        lattice = gf.simplex_grid(3, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cache in lattice_caches:
                got = cache_loglik(cache, lattice)
                assert not np.isnan(got).any()
                assert np.isneginf(got[100])  # the TRI vertex (0, 1, 0)
                assert np.isfinite(got[lattice[:, 1] < 1.0]).all()

    def test_one_chunk_buffer_per_call(self, long_cache):
        grid = gf.simplex_grid(2, 0.002)
        cache_loglik(long_cache, grid)  # builds the monomial tables outside the measurement
        _, peak, _ = traced_peak(lambda: cache_loglik(long_cache, grid))
        # The whole range's values would be 2000 x 256 float64 (4 MB).
        assert peak < 1.5 * events._BUILD_CHUNK_ELEMENTS * 8

    @pytest.mark.parametrize(
        "bounds",
        [lambda n: (-5, 10), lambda n: (n + 5, n + 10), lambda n: (0, n + 100), lambda n: (10, 5)],
        ids=["negative-start", "past-end", "stop-past-end", "reversed"],
    )
    def test_range_outside_stream_raises(self, lattice_caches, bounds):
        cache = lattice_caches[0]
        n = cache.num_increments
        start, stop = bounds(n)
        weights = np.array([[0.4, 0.3, 0.3], [0.2, 0.2, 0.6]])
        for call in (cache_loglik, cache_logratios):
            with pytest.raises(gf.FitError, match=rf"\[{start}, {stop}\).* I = {n}$"):
                call(cache, weights, start, stop)

    def test_empty_range_scores_nothing(self, lattice_caches):
        cache = lattice_caches[0]
        weights = np.array([[0.4, 0.3, 0.3], [0.2, 0.2, 0.6]])
        assert cache_loglik(cache, weights, 5, 5).tolist() == [0.0, 0.0]
        assert cache_logratios(cache, weights, 5, 5).shape == (0, 2)
        n = cache.num_increments
        assert cache_loglik(cache, weights[0], n, n) == 0.0

    @pytest.mark.parametrize(
        "which, weights, message",
        [
            ("tri", [0.5, 0.5], r"shape \(2,\) need shape \(3,\) or \(C, 3\)"),
            ("tri", [0.25] * 4, r"shape \(4,\)"),
            ("tri", np.full((1, 1, 3), 1 / 3), r"shape \(1, 1, 3\)"),
            ("rand", [40, 60], r"row 0 sums to 100\.0, not 1"),
            ("tri", [0.4, np.nan, 0.6], r"row 0, entry 1 is nan"),
            ("tri", [[0.4, 0.3, 0.3], [-0.5, 0.5, 1.0]], r"row 1, entry 0 is -0\.5"),
            ("tri", [0.4, np.inf, 0.6], r"row 0, entry 1 is inf"),
            ("rand", [0.4, "a"], r"numbers of shape \(2,\) or \(C, 2\)"),
            ("rand", [[0.4, 0.6], [1.0]], r"numbers of shape \(2,\) or \(C, 2\)"),
        ],
        ids=[
            "too-few", "too-many", "three-dims", "percent", "nan", "negative", "infinite",
            "not-a-number", "ragged",
        ],
    )
    def test_bad_weights_raise_fit_error(
        self, lattice_caches, long_cache, which, weights, message
    ):
        cache = {"tri": lattice_caches[0], "rand": long_cache}[which]
        for call in (cache_loglik, cache_logratios, gf.changepoint_series_from_cache):
            with pytest.raises(gf.FitError, match=message):
                call(cache, weights)

    def test_weights_may_be_any_array_like(self, lattice_caches):
        cache = lattice_caches[0]
        rows = [[0.4, 0.3, 0.3], [0.2, 0.2, 0.6]]
        assert np.array_equal(cache_loglik(cache, rows), cache_loglik(cache, np.array(rows)))
        assert cache_loglik(cache, (1.0, 0.0, 0.0)) == cache_loglik(cache, np.eye(3)[0])
        single = cache_logratios(cache, rows[1])
        assert np.array_equal(single, cache_logratios(cache, np.array(rows[1])))
        with pytest.raises(gf.FitError, match="numbers"):
            cache_loglik(cache, [0.4, "a", 0.6])


def mixed_stream(rng, increments=14):
    """Random admissible stream: new and existing centers with 0..8 existing targets.

    One new center attaching to MAX_COLLAPSED_DEGREE existing nodes sits at a
    random position, so the same cache holds collapsed and row-path stars.
    """
    n0 = MAX_COLLAPSED_DEGREE + 4
    seed_edges = {(int(rng.integers(0, v)), v) for v in range(1, n0)}
    for _ in range(n0 // 2):
        u, v = sorted(int(x) for x in rng.choice(n0, size=2, replace=False))
        seed_edges.add((u, v))
    seed_edges = sorted(seed_edges)
    graph = gf.graph_from_edges(seed_edges)
    big_at = int(rng.integers(0, increments))
    incs = []
    for t in range(increments):
        n = graph.num_nodes
        center_is_new = t == big_at or bool(rng.integers(0, 2))
        if center_is_new:
            center, pool = n, list(range(n))
        else:
            center = int(rng.integers(0, n))
            banned = {center} | graph.neighbors(center)
            pool = [x for x in range(n) if x not in banned]
        if t == big_at:
            q = MAX_COLLAPSED_DEGREE
        else:
            q = int(rng.integers(1 if center_is_new else 0, min(8, len(pool)) + 1))
        existing = [int(x) for x in rng.choice(pool, size=q, replace=False)]
        n_new = int(rng.integers(0 if existing else 1, 2))
        first_new = n + (1 if center_is_new else 0)
        targets = tuple(existing) + tuple(first_new + i for i in range(n_new))
        inc = gf.Increment(t, center, center_is_new, targets, (False,) * q + (True,) * n_new)
        gf.apply_increment(graph, inc)
        incs.append(inc)
    return gf.GrowthStream(seed_edges=seed_edges, increments=incs)


COMPONENT_POOL = (
    gf.DegreePower(1.0), gf.TriangleClosure(), gf.RankPreference(0.5), gf.DegreePower(1.7)
)
# Fewer sampled orderings than the default keep the direct lattice loop short.
SAMPLES = 12


def oracle_spec(comp):
    if isinstance(comp, gf.Random):
        return ("rand",)
    if isinstance(comp, gf.DegreePower):
        return ("dp", comp.alpha)
    if isinstance(comp, gf.RankPreference):
        return ("rp", comp.alpha)
    return ("tri",)


def oracle_logps(
    stream, comps, weight_rows, ordering_samples=SAMPLES,
    max_exhaustive_choices=MAX_EXHAUSTIVE_CHOICES,
):
    """(C, I) log-probability of every increment at each weight row, by brute force.

    The stream is replayed as a plain edge list through the oracle.  Stars
    with at most ``max_exhaustive_choices`` choices sum every ordering of
    their targets; larger ones sum ``ordering_samples`` orderings drawn one
    ``permutation`` at a time from the generator seeded (0, index), scaled
    by q! / S.
    """
    specs = [oracle_spec(c) for c in comps]
    weights = np.atleast_2d(np.asarray(weight_rows, dtype=float))
    edges = list(stream.seed_edges)
    num_nodes = stream.seed_graph().num_nodes
    out = np.empty((len(weights), len(stream.increments)))
    for index, inc in enumerate(stream.increments):
        existing = [t for t, new in zip(inc.targets, inc.targets_new) if not new]
        orders, log_mult = None, 0.0
        if existing and len(existing) + (not inc.center_is_new) > max_exhaustive_choices:
            rng = np.random.default_rng([0, index])
            orders = [
                tuple(existing[j] for j in rng.permutation(len(existing)))
                for _ in range(ordering_samples)
            ]
            log_mult = math.log(math.factorial(len(existing))) - math.log(ordering_samples)
        center_row, order_rows = oracle_choice_probabilities(
            num_nodes, edges, inc.center, inc.center_is_new,
            list(zip(inc.targets, inc.targets_new)), specs, orders,
        )
        center = 1.0 if center_row is None else weights @ center_row
        total = sum(
            np.prod(np.reshape(rows, (-1, len(specs))) @ weights.T, axis=0) for rows in order_rows
        )
        with np.errstate(divide="ignore"):
            out[:, index] = np.log(center * total) + log_mult
        num_nodes += len(inc.new_nodes)
        edges += [(inc.center, t) for t in inc.targets]
    return out


def assert_close(got, expect, rel=1e-9):
    """Equal -inf pattern, finite values within ``rel`` relative (absolute below 1)."""
    got, expect = np.asarray(got), np.asarray(expect)
    assert np.array_equal(np.isinf(got), np.isinf(expect))
    fin = np.isfinite(expect)
    scale = np.maximum(1.0, np.abs(expect[fin]))
    assert np.all(np.abs(got[fin] - expect[fin]) <= rel * scale)


class TestCollapsedCache:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), ncomp=st.sampled_from([2, 3, 4]))
    def test_cache_matches_direct_scoring_and_fit(self, seed, ncomp):
        rng = np.random.default_rng(seed)
        stream = mixed_stream(rng)
        picks = rng.choice(len(COMPONENT_POOL), ncomp - 1, replace=False)
        comps = [COMPONENT_POOL[i] for i in picks]
        rand_at = int(rng.integers(0, ncomp))
        comps.insert(rand_at, gf.Random())
        trace = build_dp_trace(stream, ordering_samples=SAMPLES)
        cache = build_choice_cache(trace, comps)
        assert len(cache.row_increments) == 1
        # Step rows and orderings are kept for the row-path star only.
        assert len(cache.increment_offsets) == cache.num_increments + 1
        kept = np.flatnonzero(np.diff(cache.increment_offsets))
        assert np.array_equal(kept, cache.row_increments)
        assert len(cache.step_ratios) == cache.ordering_offsets[-1]
        assert cache.sampled_increments >= 1
        assert 0 < len(cache.poly_increments) < cache.num_increments

        grid = gf.simplex_grid(ncomp, 0.1)
        checks = np.array([*np.eye(ncomp), *rng.dirichlet(np.ones(ncomp), size=3)])
        rand_logp = oracle_logps(stream, [gf.Random()], [[1.0]])[0]
        oracle = oracle_logps(stream, comps, np.concatenate((checks, grid)))
        for w, expect in zip(checks, oracle):
            sched = schedule_for(*zip((float(x) for x in w), comps))
            _, series = gf.score_stream(trace, sched, keep_series=True)
            assert_close([s.logp for s in series], expect)
            assert_close(cache_logratios(cache, w), expect - rand_logp)

        rand_vertex = np.eye(ncomp)[rand_at]
        assert np.all(cache_logratios(cache, rand_vertex) == 0.0)

        direct = oracle[len(checks) :].sum(axis=1)
        best = direct.max()
        first_best = int(np.flatnonzero(direct >= best - 1e-11 * max(1.0, abs(best)))[0])
        fit = gf.fit_intervals(cache, j=1, step=0.1)
        assert np.array_equal(fit.intervals[0]["weights"], grid[first_best].tolist())

    def test_large_star_stays_finite(self):
        # 1,200 existing targets of the lowest degree: every ordering's
        # linear-space product of BA ratios underflows to 0
        stream = gf.grow(gf.GrowthRecipe.constant("BA", increments=3000), seed=0)
        graph = stream.final_graph()
        n = graph.num_nodes
        low = sorted(range(n), key=lambda v: (graph.degrees[v], v))[:1200]
        t = stream.increments[-1].timestamp + 1
        star = gf.Increment(t, n, True, tuple(low), (False,) * 1200)
        stream = gf.GrowthStream(stream.seed_edges, [*stream.increments, star])
        ba = gf.DegreePower(1.0)
        trace = build_dp_trace(stream)
        expect = dp_trace_logp(trace, 1.0)[-1] - trace.logp_rand[-1]
        got = cache_logratios(build_choice_cache(stream, [ba]), np.array([1.0]))
        assert np.isfinite(got[-1])
        assert abs(got[-1] - expect) <= 1e-9 * abs(expect)

    def test_log_ratio_past_exp_overflow(self):
        # a new node linking to 300 hubs of 40 leaves each is about e^994
        # times likelier under BA than at random, past float64's e^709
        hubs, leaves = 300, 40
        seed_edges = [(h, hubs + leaves * h + j) for h in range(hubs) for j in range(leaves)]
        star = gf.Increment(0, hubs * (leaves + 1), True, tuple(range(hubs)), (False,) * hubs)
        stream = gf.GrowthStream(seed_edges, [star])
        ba = gf.DegreePower(1.0)
        _, series = gf.score_stream(stream, ba, keep_series=True)
        trace = build_dp_trace(stream)
        assert trace.sampled_increments == 1
        values = [
            series[0].logp - series[0].logp_rand,
            cache_logratios(build_choice_cache(stream, [ba]), np.array([1.0]))[0],
            dp_trace_logp(trace, 1.0)[0] - trace.logp_rand[0],
        ]
        assert np.isfinite(values).all()
        assert abs(values[0] - 994.16) < 0.01
        for value in values[1:]:
            assert abs(value - values[0]) <= 1e-9 * abs(values[0])
        fit = gf.fit_intervals(build_choice_cache(stream, [ba, gf.Random()]), j=1)
        assert math.isfinite(fit.loglik)


class TestDPTrace:
    def make_stream(self, spec="DP(1.5)", n=200):
        return gf.grow(
            gf.GrowthRecipe.constant(
                spec, increments=n, new_targets=3, internal_prob=0.15,
                internal_targets=2, seed_clique=5,
            ),
            seed=4,
        )

    def test_trace_matches_direct_scoring(self):
        stream = self.make_stream()
        trace = build_dp_trace(stream)
        for alpha in (-0.1, 0.0, 0.5, 1.0, 1.7, 2.1):
            sched = schedule_for((1.0, gf.DegreePower(alpha)))
            direct, _ = gf.score_stream(stream, sched)
            got = dp_trace_logp(trace, alpha).sum()
            assert abs(got - direct.loglik) <= 1e-9 * max(1.0, abs(direct.loglik))

    def test_trace_baseline_matches_direct(self):
        stream = self.make_stream(n=100)
        trace = build_dp_trace(stream)
        direct, _ = gf.score_stream(stream, schedule_for((1.0, gf.Random())))
        assert abs(trace.logp_rand.sum() - direct.loglik_rand) < 1e-9

    def test_flat_exponent_is_exactly_uniform(self):
        stream = self.make_stream(n=100)
        trace = build_dp_trace(stream)
        assert np.array_equal(dp_trace_logp(trace, 0.0), trace.logp_rand)

    def test_vectorized_grid_matches_single_evals(self):
        stream = self.make_stream(n=80)
        trace = build_dp_trace(stream)
        grid = np.array([0.0, 0.8, 1.0, 1.9])
        lls = gf.fit_degree_exponent(trace, grid).logliks
        for alpha, expect in zip(grid, lls):
            assert abs(dp_trace_logp(trace, float(alpha)).sum() - expect) < 1e-10


class TestSingleComponentsAgainstOracle:
    """The log-space reductions of one component, checked per increment against brute force."""

    SEEDS = (0, 1, 2)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dp_trace_logp(self, seed):
        stream = mixed_stream(np.random.default_rng(seed))
        trace = build_dp_trace(stream, ordering_samples=SAMPLES)
        assert trace.sampled_increments >= 1
        for alpha in (-0.1, 0.5, 1.0, 1.7, 2.1):
            expect = oracle_logps(stream, [gf.DegreePower(alpha)], [[1.0]])[0]
            assert_close(dp_trace_logp(trace, alpha), expect)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rank_scan(self, seed):
        stream = mixed_stream(np.random.default_rng(seed))
        grid = [0.3, 0.5, 1.0, 1.5]
        fit = gf.fit_component_family(stream, gf.RankPreference, grid)
        samples = DEFAULT_ORDERING_SAMPLES
        expect = [
            oracle_logps(stream, [gf.RankPreference(a)], [[1.0]], samples)[0].sum() for a in grid
        ]
        assert_close(fit.logliks, expect)
        assert fit.value == grid[int(np.argmax(expect))]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_triangle_scores(self, seed):
        stream = mixed_stream(np.random.default_rng(seed))
        tri = gf.TriangleClosure()
        trace = build_dp_trace(stream, ordering_samples=SAMPLES)
        _, series = gf.score_stream(trace, tri, keep_series=True)
        assert_close([s.logp for s in series], oracle_logps(stream, [tri], [[1.0]])[0])

    def test_zero_degree_fallback(self, monkeypatch):
        # Nodes 1..7 stay isolated and every other node neighbors hub 0, so
        # both stars at 0 choose among degree-0 nodes only and every step
        # falls back to uniform; under a cap of 5 choices the second star is
        # sampled.
        def star(t, center, targets, center_is_new=False):
            return gf.Increment(t, center, center_is_new, targets, (False,) * len(targets))

        stream = gf.GrowthStream(
            seed_edges=[(0, 8), (0, 9), (8, 9)],
            increments=[
                star(0, 10, (0, 9), True),
                star(1, 11, (0, 10), True),
                star(2, 0, (1, 2)),
                star(3, 0, (3, 4, 5, 6, 7)),
            ],
        )
        with monkeypatch.context() as patch:
            patch.setattr(likelihood, "MAX_EXHAUSTIVE_CHOICES", 5)
            trace = build_dp_trace(stream, ordering_samples=SAMPLES)
        assert trace.sampled.tolist() == [False, False, False, True]
        for alpha in (0.5, 1.0, 1.7):
            dp = gf.DegreePower(alpha)
            expect = oracle_logps(stream, [dp], [[1.0]], max_exhaustive_choices=5)[0]
            assert np.isfinite(expect).all()
            assert_close(dp_trace_logp(trace, alpha), expect)
            _, series = gf.score_stream(trace, dp, keep_series=True)
            assert_close([s.logp for s in series], expect)
        grid = [0.5, 1.0]
        fit = gf.fit_component_family(stream, gf.RankPreference, grid)
        expect = [
            oracle_logps(stream, [gf.RankPreference(a)], [[1.0]], DEFAULT_ORDERING_SAMPLES)[0].sum()
            for a in grid
        ]
        assert_close(fit.logliks, expect)

    @pytest.mark.parametrize("seed", [7, 8, None])
    def test_fallback_counts_match_oracle(self, seed):
        # Counted on the center and on the first ordering: an exhaustive
        # star's targets in their given order, a sampled star's first draw.
        if seed is None:
            stream = gf.GrowthStream(
                seed_edges=[(0, 8), (0, 9), (8, 9)],
                increments=[
                    gf.Increment(0, 10, True, (9, 0, 8, 1), (False,) * 4),
                    gf.Increment(1, 0, False, (1, 2, 3), (False,) * 3),
                    gf.Increment(2, 11, True, (4, 5), (False,) * 2),
                ],
            )
        else:
            stream = mixed_stream(np.random.default_rng(seed))
        comps = [gf.DegreePower(1.5), gf.TriangleClosure(), gf.Random()]
        specs = [oracle_spec(c) for c in comps]
        sched = schedule_for(*zip((0.4, 0.3, 0.3), comps))
        trace = build_dp_trace(stream, ordering_samples=SAMPLES)
        _, series = gf.score_stream(trace, sched, keep_series=True)
        edges = list(stream.seed_edges)
        num_nodes = stream.seed_graph().num_nodes
        for index, (inc, score) in enumerate(zip(stream.increments, series)):
            order = [t for t, new in zip(inc.targets, inc.targets_new) if not new]
            if score.sampled:
                first_draw = np.random.default_rng([0, index]).permutation(len(order))
                order = [order[j] for j in first_draw]
            counts = oracle_fallbacks(num_nodes, edges, inc.center, inc.center_is_new, specs, order)
            assert score.fallback_choices == sum(counts), index
            num_nodes += len(inc.new_nodes)
            edges += [(inc.center, t) for t in inc.targets]

    def test_zero_degree_fallback_on_anchored_lattices(self):
        # An external star under a mixture with triangle closure is scored
        # per first target; the first star takes node 1, of degree 0, only
        # after every node of positive degree, and the second star takes
        # two nodes of degree 0.
        def star(t, center, targets):
            return gf.Increment(t, center, True, targets, (False,) * len(targets))

        stream = gf.GrowthStream(
            seed_edges=[(0, 8), (0, 9), (8, 9)],
            increments=[star(0, 10, (9, 0, 8, 1)), star(1, 11, (1, 2))],
        )
        for alpha in (0.5, 1.0, 1.7):
            comps = [gf.DegreePower(alpha), gf.TriangleClosure()]
            for w in ([0.5, 0.5], [1.0, 0.0], [0.2, 0.8]):
                expect = oracle_logps(stream, comps, [w])[0]
                _, series = gf.score_stream(
                    stream, schedule_for(*zip(w, comps)), keep_series=True
                )
                assert_close([s.logp for s in series], expect)
        grid = [0.5, 1.0]
        fit = gf.fit_component_family(stream, gf.RankPreference, grid)
        expect = [
            oracle_logps(stream, [gf.RankPreference(a)], [[1.0]], DEFAULT_ORDERING_SAMPLES)[0].sum()
            for a in grid
        ]
        assert_close(fit.logliks, expect)

    def test_triangle_scan(self, monkeypatch):
        # grown under triangle closure, so every increment is possible
        recipe = gf.GrowthRecipe.constant(
            "TRI", increments=30, new_targets=6, internal_prob=0.3,
            internal_targets=4, seed_clique=8,
        )
        stream = gf.grow(recipe, seed=3)
        tri = gf.TriangleClosure()
        fit = gf.fit_component_family(stream, lambda _: tri, [0.0])
        expect = oracle_logps(stream, [tri], [[1.0]], DEFAULT_ORDERING_SAMPLES)
        assert_close([fit.loglik], [expect.sum()])
        # the same scan under a cap of 5 choices, where the 6-target stars are sampled
        monkeypatch.setattr(likelihood, "MAX_EXHAUSTIVE_CHOICES", 5)
        trace = build_dp_trace(stream)
        assert trace.sampled.any()
        fit = gf.fit_component_family(trace, lambda _: tri, [0.0])
        expect = oracle_logps(stream, [tri], [[1.0]], DEFAULT_ORDERING_SAMPLES, 5)
        assert_close([fit.loglik], [expect.sum()])


def six_and_seven_choice_stream(rng):
    """Stars of 6 and 7 choices, exhaustive at the default cap, on a 16-node seed graph.

    Hub 0 neighbours every node but the isolated nodes 1..6, so the first
    star, internal at 0 onto all six, has only degree-0 nodes to choose
    from.  Internal stars with 5 and 6 existing targets and external stars
    with 6 and 7 follow in random order, some with a new target too.
    """
    linked = list(range(7, 16))
    seed_edges = {(0, v) for v in linked}
    for _ in range(8):
        u, v = sorted(int(x) for x in rng.choice(linked, size=2, replace=False))
        seed_edges.add((u, v))
    graph = gf.graph_from_edges(sorted(seed_edges))
    shapes = [(False, 6, 0)] + [
        (new, q, int(rng.integers(0, 2)))
        for new, q in rng.permutation([(0, 5), (0, 6), (1, 6), (1, 7)]).tolist()
    ]
    incs = []
    for t, (center_is_new, q, n_new) in enumerate(shapes):
        n = graph.num_nodes
        if t == 0:
            center, existing = 0, list(range(1, 7))
        elif center_is_new:
            center, existing = n, rng.choice(n, size=q, replace=False).tolist()
        else:
            hosts = [v for v in range(n) if n - 1 - graph.degrees[v] >= q]
            center = int(rng.choice(hosts))
            pool = [x for x in range(n) if x != center and x not in graph.neighbors(center)]
            existing = rng.choice(pool, size=q, replace=False).tolist()
        first_new = n + bool(center_is_new)
        targets = tuple(existing) + tuple(range(first_new, first_new + n_new))
        inc = gf.Increment(t, center, bool(center_is_new), targets, (False,) * q + (True,) * n_new)
        gf.apply_increment(graph, inc)
        incs.append(inc)
    return gf.GrowthStream(seed_edges=sorted(seed_edges), increments=incs)



class TestSixAndSevenChoiceStars:
    """Stars now exact by default, checked per increment against brute force over every ordering."""

    COMPS = (
        gf.DegreePower(0.5), gf.DegreePower(1.5), gf.RankPreference(0.5),
        gf.TriangleClosure(), gf.Random(),
    )
    MIXTURES = ([0.3, 0.0, 0.2, 0.3, 0.2], [0.0, 0.4, 0.3, 0.3, 0.0], [0.2] * 5)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_path_matches_oracle(self, seed):
        stream = six_and_seven_choice_stream(np.random.default_rng(seed))
        trace = build_dp_trace(stream)
        assert trace.sampled_increments == 0
        assert trace.num_choices.tolist()[0] == 7
        assert sorted(trace.num_choices.tolist()[1:]) == [6, 6, 7, 7]
        rows = np.array([*np.eye(len(self.COMPS)), *self.MIXTURES])
        oracle = oracle_logps(stream, self.COMPS, rows)
        # only the triangle vertex may hold an impossible star
        assert np.isfinite(np.delete(oracle, 3, axis=0)).all()

        cache = build_choice_cache(stream, self.COMPS)
        assert cache.sampled_increments == 0
        assert_close(cache_logratios(cache, rows).T + cache.logp_rand, oracle, 1e-12)
        for w, expect in zip(rows, oracle):
            sched = schedule_for(*zip((float(x) for x in w), self.COMPS))
            _, series = gf.score_stream(stream, sched, keep_series=True)
            assert_close([s.logp for s in series], expect, 1e-12)
            # onto degree-0 nodes, both degree powers and triangle closure
            # fall back on every target step
            assert series[0].fallback_choices == 3 * 6
        for l, alpha in ((0, 0.5), (1, 1.5)):
            assert_close(dp_trace_logp(trace, alpha), oracle[l], 1e-12)


class TestScheduleMixing:
    """score_stream mixes each step's component ratios at its interval's weights, in log space.

    The weight-fitting cache scores the same points from polynomials in the
    weights, so the two engines check each other.
    """

    COMPS = (
        gf.DegreePower(1.0), gf.TriangleClosure(), gf.RankPreference(0.5),
        gf.DegreePower(1.5), gf.Random(),
    )
    INTERVALS = (
        (0.5, 0.3, 0.0, 0.0, 0.2),
        (0.0, 0.0, 0.4, 0.6, 0.0),
        (0.1, 0.2, 0.2, 0.2, 0.3),
    )

    def trace(self, seed):
        stream = mixed_stream(np.random.default_rng(seed), increments=24)
        trace = build_dp_trace(stream, ordering_samples=SAMPLES)
        degree = trace.existing_counts + 1
        # a sampled star collapsed to coefficients, and one on the row path
        assert (trace.sampled & (degree <= MAX_COLLAPSED_DEGREE)).any()
        assert (trace.sampled & (degree > MAX_COLLAPSED_DEGREE)).any()
        return trace

    def schedule(self, intervals, boundaries):
        mixtures = tuple(
            gf.MixtureInterval.of(*((w, c) for w, c in zip(row, self.COMPS) if w > 0.0))
            for row in intervals
        )
        return gf.ModelSchedule(mixtures, boundaries, gf.BoundaryMode.INDEX)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("num_intervals", [2, 3])
    def test_score_equals_cache_at_interval_weights(self, seed, num_intervals):
        trace = self.trace(seed)
        boundaries = (7.0, 15.0)[: num_intervals - 1]
        sched = self.schedule(self.INTERVALS[:num_intervals], boundaries)
        summary, series = gf.score_stream(trace, sched, keep_series=True)
        cache = build_choice_cache(trace, self.COMPS)
        expect = cache_logratios(cache, np.array(self.INTERVALS[:num_intervals]))
        which = np.searchsorted(boundaries, np.arange(cache.num_increments))
        expect = expect[np.arange(cache.num_increments), which] + cache.logp_rand
        assert np.isfinite(expect).all()
        assert_close([s.logp for s in series], expect, 1e-12)
        assert summary.sampled_increments == cache.sampled_increments >= 2

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("spec", ["RAND", "DP(0)", "0.5*RAND + 0.5*DP(0)"])
    def test_uniform_schedule_is_its_baseline(self, seed, spec):
        uniform = gf.parse_model_spec(spec)
        sched = gf.ModelSchedule((uniform, uniform), (11.0,), gf.BoundaryMode.INDEX)
        summary, series = gf.score_stream(self.trace(seed), sched, keep_series=True)
        assert [s.logp for s in series] == [s.logp_rand for s in series]
        assert summary.c0 == 1.0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_uniform_interval_is_its_baseline_beside_a_model(self, seed):
        uniform = gf.parse_model_spec("0.5*RAND + 0.5*DP(0)")
        model = gf.parse_model_spec("0.5*BA + 0.5*TRI")
        sched = gf.ModelSchedule((model, uniform), (11.0,), gf.BoundaryMode.INDEX)
        _, series = gf.score_stream(self.trace(seed), sched, keep_series=True)
        # the boundary 11 closes the first interval
        assert [s.logp for s in series[12:]] == [s.logp_rand for s in series[12:]]
        assert all(s.logp != s.logp_rand for s in series[:12])


def batched_stream(rng):
    """A stream of sampled stars of several sizes under a cap of 4 choices.

    Hub 0 neighbours every node of positive degree in the seed graph, so the
    first star, at 0, chooses among nodes of degree 0 only.  Then come
    external and internal stars of 4 to 8 existing targets, several of each
    size, and one new center attaching to 12 existing nodes (the row path).
    """
    seed_edges = [(0, 8), (0, 9), (8, 9), (0, 19)]
    graph = gf.graph_from_edges(seed_edges)
    incs = [gf.Increment(0, 0, False, tuple(range(1, 8)), (False,) * 7)]
    gf.apply_increment(graph, incs[0])
    for t, q in enumerate([4, 5, 6, 8, 12] + [4, 5, 6, 8] * 2, start=1):
        n = graph.num_nodes
        center_is_new = q == 12 or bool(rng.integers(0, 2))
        center = n if center_is_new else int(rng.integers(0, n))
        banned = set() if center_is_new else {center} | graph.neighbors(center)
        pool = [x for x in range(n) if x not in banned]
        existing = tuple(int(x) for x in rng.choice(pool, size=min(q, len(pool)), replace=False))
        inc = gf.Increment(t, center, center_is_new, existing, (False,) * len(existing))
        gf.apply_increment(graph, inc)
        incs.append(inc)
    return gf.GrowthStream(seed_edges=seed_edges, increments=incs)


class TestOrderingBatches:
    """Sampled stars are expanded a bounded batch at a time, and the batching changes no value."""

    COMPS = (gf.DegreePower(1.5), gf.TriangleClosure(), gf.RankPreference(0.5), gf.Random())
    WEIGHTS = (0.3, 0.3, 0.2, 0.2)
    CAP = 4

    def outputs(self, stream):
        sched = schedule_for(*zip(self.WEIGHTS, self.COMPS))
        trace = build_dp_trace(stream, ordering_samples=SAMPLES)
        _, series = gf.score_stream(trace, sched, keep_series=True)
        cache = build_choice_cache(trace, self.COMPS)
        scans = [
            likelihood._trace_logp(trace, [comp], [1.0])[0]
            for comp in (gf.DegreePower(0.5), gf.DegreePower(1.5), gf.RankPreference(0.5))
        ]
        batches = len(list(likelihood._ordering_batches(trace, len(self.COMPS))))
        return trace, series, cache, scans, batches

    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_star_per_batch_changes_no_bit(self, seed, monkeypatch):
        monkeypatch.setattr(likelihood, "MAX_EXHAUSTIVE_CHOICES", self.CAP)
        stream = batched_stream(np.random.default_rng(seed))
        trace, series, cache, scans, batches = self.outputs(stream)
        sampled = trace.existing_counts[trace.sampled]
        assert len(np.unique(sampled)) >= 4 and (sampled == 12).sum() == 1
        assert (trace.sampled & trace.center_new & (trace.existing_counts < 12)).any()
        # onto degree-0 nodes, the degree power and triangle closure fall back on every step
        assert series[0].sampled and series[0].fallback_choices == 2 * 7
        assert len(cache.row_increments) == 1
        monkeypatch.setattr(events, "_BUILD_CHUNK_ELEMENTS", 1)
        _, one_series, one_cache, one_scans, one_batches = self.outputs(stream)
        assert one_batches == trace.sampled_increments > batches
        assert [s.logp for s in one_series] == [s.logp for s in series]
        assert [s.fallback_choices for s in one_series] == [s.fallback_choices for s in series]
        for name, value in vars(cache).items():
            if isinstance(value, np.ndarray):
                assert value.tobytes() == getattr(one_cache, name).tobytes(), name
        assert one_cache.fallback_choices == cache.fallback_choices
        for got, expect in zip(one_scans, scans):
            assert got.tobytes() == expect.tobytes()

    def test_working_set_does_not_grow_with_orderings(self):
        stream = gf.grow(
            gf.GrowthRecipe.constant(
                "0.5*BA + 0.5*RAND", increments=400, new_targets=3, internal_prob=0.5,
                internal_targets=8, seed_clique=12,
            ),
            seed=1,
        )
        comps = [gf.DegreePower(1.0), gf.Random()]
        calls = {
            "build_choice_cache": lambda samples: build_choice_cache(
                build_dp_trace(stream, ordering_samples=samples), comps
            ),
            "score_stream": lambda samples: gf.score_stream(
                build_dp_trace(stream, ordering_samples=samples),
                gf.parse_model_spec("0.5*BA + 0.5*RAND"),
            ),
        }
        assert build_dp_trace(stream).sampled_increments > 150
        for name, call in calls.items():
            peaks = []
            for samples in (120, 480):
                call(samples)  # fills the lookup tables outside the measurement
                _, peak, retained = traced_peak(lambda: call(samples))
                peaks.append(peak)
                # runs of the build budget's steps, not 2**16 steps at a time
                assert peak - retained < 2e6, (name, samples, peak, retained)
            assert peaks[1] < 1.5 * peaks[0], (name, peaks)


class TestBuildChunks:
    """Scoring and the cache build work in bounded runs, and the runs change no value.

    Anchors, batches of exhaustive stars' lattices, subset-DP columns and
    vacancy masks, orderings, collapsed rows, lattice slabs and row-path
    batches run in ``events._BUILD_CHUNK_ELEMENTS``, the triangle table's
    wedges in a quarter of it.  Every value is formed from its own star's rows in a
    fixed order, so the cache, each increment's score in log space and each
    row-path lattice score keep their bits under any budget.  A collapsed
    increment's lattice score is a BLAS product of a slab's coefficient rows
    and the monomials, which rounds by the slab's height, so it is not
    compared.
    """

    COMPS = (gf.DegreePower(1.5), gf.TriangleClosure(), gf.RankPreference(0.5), gf.Random())
    WEIGHTS = (0.3, 0.3, 0.2, 0.2)

    def outputs(self, stream):
        """Anchors, cache, a J=2 fit and scores of a fresh replay, which keeps nothing from another.

        The scores are ``_trace_logp`` at the mixture and for one degree
        power alone, the ``score_stream`` series and the row-path rows of
        ``cache_logratios`` over a 35-point lattice.
        """
        trace = likelihood._replay(
            stream.seed_graph(), stream.columns, 0, 0, SAMPLES, MAX_EXHAUSTIVE_CHOICES
        )
        anchors = (*likelihood._triangle_anchors(trace), trace.events._triangles[1])
        cache = build_choice_cache(trace, self.COMPS)
        mixed = likelihood._trace_logp(trace, self.COMPS, self.WEIGHTS)
        alone = likelihood._trace_logp(trace, [gf.DegreePower(1.5)], [1.0])
        sched = schedule_for(*zip(self.WEIGHTS, self.COMPS))
        _, series = gf.score_stream(trace, sched, keep_series=True)
        lattice = cache_logratios(cache, gf.simplex_grid(4, 0.25))
        scores = {
            "mixed": [a.tobytes() for a in mixed],
            "alone": [a.tobytes() for a in alone],
            "series": [(s.logp, s.fallback_choices) for s in series],
            "lattice": lattice[cache.row_increments].tobytes(),
        }
        return anchors, cache, gf.fit_intervals(cache, 2, step=0.1), scores

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        sizes=st.lists(st.integers(0, 300), max_size=40),
        budget=st.one_of(st.just(1), st.integers(1, 1 << 10)),
    )
    def test_batches_cut_every_item_into_budgeted_runs(self, sizes, budget):
        # the one cutter of every bounded loop in the package
        sizes = np.array(sizes, dtype=np.int64)
        runs = events.batches(sizes, budget)
        assert (runs == []) == (len(sizes) == 0)
        assert [i for a, b in runs for i in range(a, b)] == list(range(len(sizes)))
        for a, b in runs:
            assert a < b and sizes[a : b - 1].sum() < budget

    # batched: sampled stars of 8 and 12 existing targets; six-and-seven:
    # exhaustive ones of up to 7, anchored under triangle closure
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "make, sampled",
        [(batched_stream, True), (six_and_seven_choice_stream, False)],
        ids=["batched", "six-and-seven"],
    )
    def test_budget_changes_no_value(self, make, sampled, seed, monkeypatch):
        stream = make(np.random.default_rng(seed))
        anchors, cache, fit, scores = self.outputs(stream)
        trace = build_dp_trace(stream)
        assert not trace.center_new.all() and trace.center_new.any()
        assert trace.num_choices[~trace.sampled].max() >= 6
        assert trace.sampled.any() == sampled
        # the batched stream's 12-target star is scored on the row path
        assert len(cache.row_increments) == sampled
        for budget in (1, 7, 256, 4096):
            monkeypatch.setattr(events, "_BUILD_CHUNK_ELEMENTS", budget)
            got_anchors, got_cache, got_fit, got_scores = self.outputs(stream)
            for got, expect in zip(got_anchors, anchors):
                assert np.array_equal(got, expect) and got.dtype == expect.dtype
            for name, value in vars(cache).items():
                if isinstance(value, np.ndarray):
                    assert value.tobytes() == getattr(got_cache, name).tobytes(), (budget, name)
            assert got_cache.fallback_choices == cache.fallback_choices
            assert got_fit.to_dict() == fit.to_dict()
            for name, value in scores.items():
                assert got_scores[name] == value, (budget, name)

    def test_transient_does_not_grow_with_the_stream(self):
        # With 4 existing targets a subset batch holds 682 anchored stars
        # (3 components x 4 anchors x 2**3 subset totals each), so both
        # streams fill one and their lattices have the same width.
        comps = [gf.DegreePower(1.0), gf.TriangleClosure(), gf.Random()]
        transients = []
        for increments in (2000, 8000):
            recipe = gf.GrowthRecipe.constant(
                "0.4*BA + 0.3*TRI + 0.3*RAND", increments=increments, new_targets=4
            )
            trace = build_dp_trace(gf.grow(recipe, seed=1))
            _, peak, retained = traced_peak(lambda: build_choice_cache(trace, comps))
            transients.append(peak - retained)
        assert transients[1] < 1.5 * transients[0], transients
        # runs of the budget's anchors or polynomial terms, and one batch's lattices
        assert max(transients) < 4e6, transients

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_subset_groups_do_not_depend_on_the_budget(self, seed, monkeypatch):
        stream = factoring_stream(np.random.default_rng(seed))

        def groups():
            trace = likelihood._replay(
                stream.seed_graph(), stream.columns, 0, 0, SAMPLES, MAX_EXHAUSTIVE_CHOICES
            )
            tables = [vars(group).values() for group in trace._subset_groups]
            return [[None if t is None else (t.dtype, t.tobytes()) for t in g] for g in tables]

        expect = groups()
        # stars onto degree-0 nodes leave subsets with no node of positive degree
        assert any(g[-1] is not None for g in expect)
        for budget in (1, 7, 256, 4096):
            monkeypatch.setattr(events, "_BUILD_CHUNK_ELEMENTS", budget)
            assert groups() == expect, budget

    def test_subset_groups_build_in_runs(self):
        # 3,000 exhaustive stars onto 7 existing nodes: their whole occupancy
        # product would be 127 x 3,000 float64 (3 MB), and its difference as much
        recipe = gf.GrowthRecipe.constant("0.5*BA + 0.5*RAND", increments=3000, new_targets=7)
        trace = build_dp_trace(gf.grow(recipe, seed=1))
        trace._occupied_base, trace._target_start  # read by the groups, kept apart
        _, peak, retained = traced_peak(lambda: trace._subset_groups)
        assert [(len(g.targets), len(g.incs)) for g in trace._subset_groups] == [(7, 3000)]
        # one run of the budget's values and the group's (q, n) tables
        assert peak - retained < 2e6, (peak, retained)


def factoring_stream(rng):
    """A small stream holding every step the factored subset DP corrects, and stars to sample.

    Hub 0 neighbours every seed node of positive degree, and nodes 1..4 are
    isolated, so the first star, at 0 onto 1, 2 and 3, has only degree-0
    nodes to choose from: each of its steps falls back to uniform.  Node 4
    keeps degree 0 until a star takes it, which a degree power calls
    impossible.  External stars onto two and onto four existing nodes
    (anchored under triangle closure), an internal star onto three and
    random stars of one to four existing targets follow in random order.
    """
    linked = list(range(5, 11))
    seed_edges = {(0, v) for v in linked}
    for _ in range(3):
        u, v = sorted(int(x) for x in rng.choice(linked, size=2, replace=False))
        seed_edges.add((u, v))
    seed_edges = sorted(seed_edges)
    graph = gf.graph_from_edges(seed_edges)
    incs = [gf.Increment(0, 0, False, (1, 2, 3), (False,) * 3)]
    gf.apply_increment(graph, incs[0])
    shapes = [(True, 2), (True, 4), (False, 3)]
    shapes += [(bool(rng.integers(0, 2)), int(rng.integers(1, 5))) for _ in range(5)]
    for t, k in enumerate(rng.permutation(len(shapes)).tolist(), start=1):
        center_is_new, q = shapes[k]
        n = graph.num_nodes
        if center_is_new:
            center, pool = n, list(range(n))
        else:
            center = int(rng.choice([v for v in range(n) if n - 1 - graph.degrees[v] >= q]))
            pool = [x for x in range(n) if x != center and x not in graph.neighbors(center)]
        existing = tuple(int(x) for x in rng.choice(pool, size=q, replace=False))
        n_new = int(rng.integers(0, 2))
        first_new = n + center_is_new
        targets = existing + tuple(range(first_new, first_new + n_new))
        inc = gf.Increment(t, center, center_is_new, targets, (False,) * q + (True,) * n_new)
        gf.apply_increment(graph, inc)
        incs.append(inc)
    return gf.GrowthStream(seed_edges=seed_edges, increments=incs)


def oracle_single_logps(stream, comp, max_exhaustive_choices):
    """Per-increment log-probability under one component, by ``oracle_increment_probability``.

    Stars above the cap sum the SAMPLES orderings drawn from the generator
    seeded (0, index), scaled by q! / SAMPLES.
    """
    mixture = [(1.0, oracle_spec(comp))]
    edges = list(stream.seed_edges)
    num_nodes = stream.seed_graph().num_nodes
    out = []
    for index, inc in enumerate(stream.increments):
        existing = [t for t, new in zip(inc.targets, inc.targets_new) if not new]
        orders, log_mult = None, 0.0
        if existing and len(existing) + (not inc.center_is_new) > max_exhaustive_choices:
            rng = np.random.default_rng([0, index])
            orders = [
                tuple(existing[j] for j in rng.permutation(len(existing))) for _ in range(SAMPLES)
            ]
            log_mult = math.log(math.factorial(len(existing))) - math.log(SAMPLES)
        p = oracle_increment_probability(
            num_nodes, edges, inc.center, inc.center_is_new,
            list(zip(inc.targets, inc.targets_new)), mixture, orders, log_mult,
        )
        out.append(math.log(p) if p > 0.0 else -math.inf)
        num_nodes += len(inc.new_nodes)
        edges += [(inc.center, t) for t in inc.targets]
    return np.array(out)


def capped_trace(stream, cap):
    """The stream's trace with SAMPLES orderings of every star of more than ``cap`` choices."""
    return likelihood._replay(stream.seed_graph(), stream.columns, 0, 0, SAMPLES, cap)


class TestFactoredSubsetDP:
    """One component at unit weight factors its targets' weights out of the subset DP."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alpha=st.sampled_from([-0.1, 0.0, 0.5, 2.1]),
        cap=st.sampled_from([3, MAX_EXHAUSTIVE_CHOICES]),
    )
    def test_single_component_matches_oracle(self, seed, alpha, cap):
        stream = factoring_stream(np.random.default_rng(seed))
        comps = [gf.DegreePower(alpha), gf.TriangleClosure()]
        if alpha > 0.0:
            comps.append(gf.RankPreference(alpha))
        trace = capped_trace(stream, cap)
        assert trace.sampled.any() == (cap == 3)
        # an external star with two or more existing targets is anchored under TRI
        assert (trace.center_new & (trace.existing_counts >= 2) & ~trace.sampled).any()
        for comp in comps:
            got, fallbacks = likelihood._trace_logp(trace, [comp], [1.0])
            assert_close(got, oracle_single_logps(stream, comp, cap), 1e-12)
            # the first star's three steps onto degree-0 nodes fall back to
            # uniform, except under the uniform model and rank preference
            falls_back = comp != gf.DegreePower(0.0) and not isinstance(comp, gf.RankPreference)
            assert fallbacks[0, 0] == 3 * falls_back

    @pytest.mark.parametrize("make, seed", [(factoring_stream, 0), (factoring_stream, 1),
                                            (mixed_stream, 0), (mixed_stream, 1)])
    def test_factored_equals_mixture_path(self, make, seed):
        # [c, c] at weights 0.5 each mixes every step's ratio to exactly r and logs it
        stream = make(np.random.default_rng(seed))
        # DP(60) and DP(100): large log-weights, whose factored terms must not cancel
        comps = [
            gf.DegreePower(-0.1), gf.DegreePower(0.5), gf.DegreePower(2.1),
            gf.DegreePower(60.0), gf.DegreePower(100.0), gf.RankPreference(0.5),
            gf.TriangleClosure(),
        ]
        trace = capped_trace(stream, 3)
        assert trace.sampled.any() and (trace.existing_counts[~trace.sampled] >= 2).any()
        for comp in comps:
            single, counted = likelihood._trace_logp(trace, [comp], [1.0])
            mixed, _ = likelihood._trace_logp(trace, [comp, comp], [0.5, 0.5])
            assert_close(single, mixed, 1e-12)
            scan, uncounted = likelihood._trace_logp(trace, [comp], [1.0], count_fallbacks=False)
            assert scan.tobytes() == single.tobytes() and uncounted is None

    def test_total_rounding_to_zero_falls_back_in_both_engines(self):
        # Under RP(60) node 0 weighs 1 and the rest of the graph under 1e-18,
        # so the total left after taking node 0 rounds to 0: the step to
        # node 1, of positive weight, falls back to uniform.
        stream = gf.GrowthStream(
            [(0, 1), (1, 2), (2, 3), (3, 4)], [gf.Increment(0, 5, True, (0, 1), (False, False))]
        )
        rp = gf.RankPreference(60.0)
        trace = build_dp_trace(stream)
        single, fallbacks = likelihood._trace_logp(trace, [rp], [1.0])
        mixed, _ = likelihood._trace_logp(trace, [rp, rp], [0.5, 0.5])
        assert fallbacks.tolist() == [[1]]
        assert abs(single[0] - math.log(0.25)) < 1e-12
        assert_close(single, mixed, 1e-12)

    @pytest.mark.parametrize(
        "totals",
        [
            # T(empty) / T(S) = 1e600 overflows float64
            [1e300, 1e-300, 1e-300],
            # a total left below 0 by rounding: the step from it falls back to uniform
            [1.0, -1e-17, 0.5],
        ],
    )
    def test_unfactorable_lattice_forms_every_step(self, totals):
        # the factored sums are not used: every step's ratio is formed, as for a mixture
        lattice = likelihood._Lattice(
            None, None, np.array([[0.6], [0.4]]), np.array(totals)[:, None],
            np.array([10.0]), np.array([math.log(10.0) + math.log(9.0)]),
        )
        got = likelihood._subset_logp([lattice], np.ones((1, 1)))
        expect = likelihood._subset_logp([lattice, lattice], np.full((1, 2), 0.5))
        assert np.isfinite(got).all()
        assert_close(got, expect, 1e-12)


class TestWeightRange:
    """Weights float64 cannot hold raise DegenerateModelError on every scoring path."""

    @pytest.fixture(scope="class")
    def stream(self):
        # the node of largest degree reaches 279 before the last increment
        recipe = gf.GrowthRecipe.constant("0.5*DP(1.5) + 0.5*RAND", increments=2000)
        return gf.grow(recipe, seed=1)

    def test_degree_power_overflow(self, stream):
        trace = build_dp_trace(stream)
        assert np.isfinite(dp_trace_logp(trace, 120.0).sum())
        calls = [
            lambda: dp_trace_logp(trace, 130.0),
            lambda: gf.fit_degree_exponent(trace, [120.0, 130.0]),
            lambda: gf.fit_dp_changepoint(trace, 1.5, 130.0),
            lambda: gf.score_stream(stream, gf.DegreePower(130.0)),
            lambda: gf.score_stream(stream, gf.parse_model_spec("0.5*DP(130) + 0.5*RAND")),
            lambda: build_choice_cache(stream, [gf.DegreePower(130.0), gf.Random()]),
        ]
        for call in calls:
            with pytest.raises(
                gf.DegenerateModelError,
                match=r"exponent 130\.0: the weight of the largest degree, 279, overflows float64",
            ):
                call()

    def test_degree_power_and_rank_underflow(self, stream):
        calls = {
            "degree, 279": [
                lambda: dp_trace_logp(build_dp_trace(stream), -300.0),
                lambda: gf.score_stream(stream, gf.DegreePower(-300.0)),
                lambda: build_choice_cache(stream, [gf.DegreePower(-300.0), gf.Random()]),
            ],
            "rank, 2003": [
                lambda: gf.fit_component_family(stream, gf.RankPreference, [0.5, 1000.0]),
                lambda: gf.score_stream(stream, gf.RankPreference(1000.0)),
                lambda: build_choice_cache(stream, [gf.RankPreference(1000.0), gf.Random()]),
            ],
        }
        for largest, group in calls.items():
            for call in group:
                with pytest.raises(gf.DegenerateModelError, match=f"largest {largest}, underflows"):
                    call()

    def test_degree_reached_at_the_last_increment_is_not_checked(self):
        # the hub reaches degree 101 only at the last increment, so no
        # score reads 101**154, which overflows; 100**154 = 1e308 does not
        alpha = 154.0
        assert math.isfinite(100.0**alpha) and alpha * math.log(101.0) > math.log(np.finfo(float).max)
        seed_edges = [(0, j) for j in range(1, 101)]
        star = gf.Increment(0, 101, True, (0,), (False,))
        trace = build_dp_trace(gf.GrowthStream(seed_edges, [star]))
        # the hub holds all but 100 of the graph's 1e308 weight
        assert abs(dp_trace_logp(trace, alpha)[0]) < 1e-12
        with pytest.raises(gf.DegenerateModelError, match="largest degree, 100, overflows"):
            dp_trace_logp(trace, 155.0)

    def test_total_overflow(self):
        # two hubs of 300 leaves: each hub's weight fits in float64, their sum does not
        alpha = math.log(1.2e308) / math.log(300.0)
        assert math.isfinite(300.0**alpha) and 2.0 * 300.0**alpha == math.inf
        seed_edges = [(h, 2 + 300 * h + j) for h in (0, 1) for j in range(300)]
        star = gf.Increment(0, 602, True, (2, 3), (False, False))
        stream = gf.GrowthStream(seed_edges, [star])
        with pytest.raises(gf.DegenerateModelError, match="total weight of the graph overflows"):
            gf.score_stream(stream, gf.DegreePower(alpha))
