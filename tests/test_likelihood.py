"""Tests for increment likelihoods, caches, and degree-power traces."""

import itertools
import math

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
    dp_trace_loglik,
    dp_trace_logp,
    orderings_for_increment,
    per_choice_ratio,
)
from oracles import oracle_choice_probabilities, oracle_increment_probability


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
        q = int(rng.integers(1, min(4, len(pool)) + 1))
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
        p_pkg = gf.increment_probability(graph, inc, schedule, max_exhaustive_choices=8)
        p_ref = oracle_increment_probability(n, edges, center, center_is_new, targets, mixture)
        return p_pkg, p_ref

    def test_randomized_increments_match(self):
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


class TestOrderings:
    def test_small_increments_enumerate_exhaustively(self):
        inc = gf.Increment(0, 9, True, (1, 2, 3), (False,) * 3)
        orders, sampled, log_mult = orderings_for_increment(inc, 0, 0, 5, 120)
        assert not sampled
        assert log_mult == 0.0
        assert sorted(orders) == sorted(itertools.permutations((1, 2, 3)))

    def test_large_increments_sample(self):
        inc = gf.Increment(0, 99, True, tuple(range(6)), (False,) * 6)
        orders, sampled, log_mult = orderings_for_increment(inc, 3, 7, 5, 50)
        assert sampled
        assert len(orders) == 50
        assert abs(log_mult - (math.log(math.factorial(6)) - math.log(50))) < 1e-12
        for order in orders:
            assert sorted(order) == list(range(6))

    def test_sampling_is_deterministic_in_seed_and_index(self):
        inc = gf.Increment(0, 99, True, tuple(range(6)), (False,) * 6)
        a = orderings_for_increment(inc, 3, 7, 5, 50)[0]
        b = orderings_for_increment(inc, 3, 7, 5, 50)[0]
        c = orderings_for_increment(inc, 4, 7, 5, 50)[0]
        assert a == b
        assert a != c

    def test_sampled_estimator_is_unbiased(self):
        graph = gf.graph_from_edges(
            [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 5), (2, 6)]
        )
        inc = gf.Increment(9, 7, True, (0, 2, 3, 4, 5, 6), (False,) * 6)
        sched = schedule_for((1.0, gf.DegreePower(1.0)))
        exact = gf.increment_probability(graph, inc, sched, max_exhaustive_choices=6)
        draws = np.array(
            [
                gf.increment_probability(graph, inc, sched, seed=k, ordering_samples=40)
                for k in range(400)
            ]
        )
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - exact) < 4.0 * se


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
        assert cache.sampled_increments == 0  # all stars here have <= 5 choices
        assert np.all(np.diff(cache.increment_offsets) >= 0)


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


def oracle_logps(stream, comps, weight_rows, ordering_samples=SAMPLES):
    """(C, I) log-probability of every increment at each weight row, by brute force.

    The stream is replayed as a plain edge list through the oracle; stars
    with too many choices are summed over the package's seeded ordering
    sample, scaled by its multiplier.
    """
    specs = [oracle_spec(c) for c in comps]
    weights = np.atleast_2d(np.asarray(weight_rows, dtype=float))
    edges = list(stream.seed_edges)
    num_nodes = stream.seed_graph().num_nodes
    out = np.empty((len(weights), len(stream.increments)))
    for index, inc in enumerate(stream.increments):
        orders, _, log_mult = orderings_for_increment(
            inc, index, 0, MAX_EXHAUSTIVE_CHOICES, ordering_samples
        )
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


def assert_close(got, expect):
    """Equal -inf pattern, finite values within 1e-9 relative (absolute below 1)."""
    got, expect = np.asarray(got), np.asarray(expect)
    assert np.array_equal(np.isinf(got), np.isinf(expect))
    fin = np.isfinite(expect)
    scale = np.maximum(1.0, np.abs(expect[fin]))
    assert np.all(np.abs(got[fin] - expect[fin]) <= 1e-9 * scale)


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
        cache = build_choice_cache(stream, comps, ordering_samples=SAMPLES)
        assert len(cache.row_increments) == 1
        assert cache.sampled_increments >= 1
        assert 0 < len(cache.poly_increments) < cache.num_increments

        grid = gf.simplex_grid(ncomp, 0.1)
        checks = np.array([*np.eye(ncomp), *rng.dirichlet(np.ones(ncomp), size=3)])
        rand_logp = oracle_logps(stream, [gf.Random()], [[1.0]])[0]
        oracle = oracle_logps(stream, comps, np.concatenate((checks, grid)))
        for w, expect in zip(checks, oracle):
            sched = schedule_for(*zip((float(x) for x in w), comps))
            _, series = gf.score_stream(stream, sched, ordering_samples=SAMPLES, keep_series=True)
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
        lls = dp_trace_loglik(trace, grid)
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
        _, series = gf.score_stream(stream, tri, ordering_samples=SAMPLES, keep_series=True)
        assert_close([s.logp for s in series], oracle_logps(stream, [tri], [[1.0]])[0])

    def test_zero_degree_fallback(self):
        # Nodes 1..7 stay isolated and every other node neighbors hub 0, so
        # both stars at 0 choose among degree-0 nodes only and every step
        # falls back to uniform; the second star is sampled.
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
        trace = build_dp_trace(stream, ordering_samples=SAMPLES)
        assert trace.sampled.tolist() == [False, False, False, True]
        for alpha in (0.5, 1.0, 1.7):
            dp = gf.DegreePower(alpha)
            expect = oracle_logps(stream, [dp], [[1.0]])[0]
            assert np.isfinite(expect).all()
            assert_close(dp_trace_logp(trace, alpha), expect)
            _, series = gf.score_stream(stream, dp, ordering_samples=SAMPLES, keep_series=True)
            assert_close([s.logp for s in series], expect)
        grid = [0.5, 1.0]
        fit = gf.fit_component_family(stream, gf.RankPreference, grid)
        expect = [
            oracle_logps(stream, [gf.RankPreference(a)], [[1.0]], DEFAULT_ORDERING_SAMPLES)[0].sum()
            for a in grid
        ]
        assert_close(fit.logliks, expect)

    def test_triangle_scan(self):
        # grown under triangle closure, so every increment is possible
        recipe = gf.GrowthRecipe.constant(
            "TRI", increments=30, new_targets=6, internal_prob=0.3,
            internal_targets=4, seed_clique=8,
        )
        stream = gf.grow(recipe, seed=3)
        fit = gf.fit_component_family(stream, lambda _: gf.TriangleClosure(), [0.0])
        expect = oracle_logps(stream, [gf.TriangleClosure()], [[1.0]], DEFAULT_ORDERING_SAMPLES)
        assert build_dp_trace(stream).sampled_increments >= 1
        assert_close([fit.loglik], [expect.sum()])
