"""Tests for grid fitting, interval partitions, changepoints, and model tests."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

import growthfit as gf
from growthfit import estimation, likelihood
from growthfit.estimation import (
    changepoint_grid,
    default_alpha_grid,
    partition_indices,
    simplex_grid,
)
from memory import traced_peak
from oracles import oracle_chi2_sf, oracle_simplex_grid
from test_likelihood import lattice_caches  # noqa: F401  (module fixture, shared)


class TestGrids:
    def test_alpha_grid_span_and_step(self):
        grid = default_alpha_grid()
        assert len(grid) == 221
        assert grid[0] == -0.1
        assert grid[-1] == 2.1
        assert np.allclose(np.diff(grid), 0.01)

    def test_simplex_grid_covers_simplex(self):
        grid = simplex_grid(2, 0.25)
        assert grid.tolist() == [
            [0.0, 1.0],
            [0.25, 0.75],
            [0.5, 0.5],
            [0.75, 0.25],
            [1.0, 0.0],
        ]

    def test_simplex_grid_three_components(self):
        grid = simplex_grid(3, 0.01)
        assert grid.shape == (5151, 3)
        assert np.all(grid >= 0.0)
        assert np.allclose(grid.sum(axis=1), 1.0, atol=1e-12)
        # ascending lexicographic order makes first-maximum ties reproducible
        as_tuples = [tuple(row) for row in np.round(grid, 10)]
        assert as_tuples == sorted(as_tuples)

    @pytest.mark.parametrize("num_components", [1, 2, 3, 4])
    @pytest.mark.parametrize("step", [0.5, 0.25, 0.1, 0.01])
    def test_simplex_grid_equals_recursive_definition(self, num_components, step):
        grid = simplex_grid(num_components, step)
        expect = oracle_simplex_grid(num_components, step)
        assert grid.dtype == expect.dtype
        assert np.array_equal(grid, expect)

    def test_simplex_grid_rejects_bad_arguments(self):
        with pytest.raises(gf.FitError, match="divide 1"):
            simplex_grid(3, 0.3)
        with pytest.raises(gf.FitError, match="at least one component"):
            simplex_grid(0)

    def test_changepoint_grid_is_inclusive_linspace(self):
        grid = changepoint_grid(0.0, 10.0, 5)
        assert grid.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]


class TestPartitions:
    def make_cache(self, n=10):
        stream = gf.grow(
            gf.GrowthRecipe.constant("RAND", increments=n, new_targets=2), seed=0
        )
        return gf.build_choice_cache(stream, [gf.Random()])

    def test_count_mode_balances_increments(self):
        cache = self.make_cache(10)
        assert partition_indices(cache, 3, "count") == [(0, 3), (3, 6), (6, 10)]
        assert partition_indices(cache, 1, "count") == [(0, 10)]

    def test_time_mode_splits_timestamp_span(self):
        cache = self.make_cache(10)
        assert partition_indices(cache, 2, "time") == [(0, 5), (5, 10)]

    def test_empty_group_raises(self):
        cache = self.make_cache(10)
        with pytest.raises(gf.IntervalUnderflowError):
            partition_indices(cache, 11, "count")

    def test_time_mode_with_identical_timestamps_raises(self):
        incs = [gf.Increment(5, 3 + i, True, (0,), (False,)) for i in range(4)]
        stream = gf.GrowthStream(seed_edges=[(0, 1), (1, 2), (0, 2)], increments=incs)
        cache = gf.build_choice_cache(stream, [gf.Random()])
        with pytest.raises(gf.IntervalUnderflowError):
            partition_indices(cache, 2, "time")

    def test_time_mode_rejects_decreasing_timestamps(self):
        incs = [
            gf.Increment(t, 3 + i, True, (0,), (False,)) for i, t in enumerate([5, 1, 9, 3, 7, 2])
        ]
        stream = gf.GrowthStream(seed_edges=[(0, 1), (1, 2), (0, 2)], increments=incs)
        cache = gf.build_choice_cache(stream, [gf.Random()])
        with pytest.raises(gf.FitError, match="non-decreasing: index 1 has 1, below 5"):
            partition_indices(cache, 2, "time")
        assert partition_indices(cache, 2, "count") == [(0, 3), (3, 6)]


class TestFitDegreeExponent:
    def test_recovers_exponent(self):
        stream = gf.grow(
            gf.GrowthRecipe.constant("DP(1.5)", increments=800, new_targets=3), seed=1
        )
        fit = gf.fit_degree_exponent(stream)
        assert abs(fit.value - 1.5) <= 0.1
        assert fit.loglik >= fit.loglik_rand

    def test_accepts_prebuilt_trace(self):
        stream = gf.grow(
            gf.GrowthRecipe.constant("BA", increments=300, new_targets=3), seed=2
        )
        trace = gf.build_dp_trace(stream)
        a = gf.fit_degree_exponent(stream)
        b = gf.fit_degree_exponent(trace)
        assert a.value == b.value
        assert a.loglik == b.loglik

    def test_custom_grid_argmax_is_first_maximum(self):
        stream = gf.grow(
            gf.GrowthRecipe.constant("RAND", increments=50, new_targets=2), seed=3
        )
        # exponent 0 is exactly uniform, so a grid of two zeros ties; the
        # first grid point must win
        fit = gf.fit_degree_exponent(stream, grid=np.array([0.0, -0.0]))
        assert fit.value == 0.0
        assert fit.logliks[0] == fit.logliks[1]

    @pytest.mark.parametrize("grid", [[], [np.nan], [0.5, np.inf], [[0.5, 1.0]]])
    def test_empty_or_non_finite_grid_is_a_fit_error(self, grid):
        stream = gf.grow(gf.GrowthRecipe.constant("BA", increments=30, new_targets=2), seed=1)
        trace = gf.build_dp_trace(stream)
        calls = [
            lambda: gf.fit_degree_exponent(trace, grid=grid),
            lambda: gf.fit_component_family(stream, gf.RankPreference, grid),
            lambda: gf.fit_dp_changepoint_joint(trace, alpha_grid=grid),
        ]
        for call in calls:
            with pytest.raises(gf.FitError, match="exponent grid"):
                call()

    def test_empty_stream_is_a_fit_error(self):
        # no increment scores any grid point, so no point is the first maximum
        empty = gf.GrowthStream([(0, 1), (1, 2)], [])
        for call in (
            lambda: gf.fit_degree_exponent(empty),
            lambda: gf.fit_degree_exponent(gf.build_dp_trace(empty), grid=[0.5]),
            lambda: gf.fit_component_family(empty, gf.RankPreference, [0.5, 1.0]),
        ):
            with pytest.raises(gf.FitError, match="empty stream"):
                call()


def scan_stream(rng, impossible=False):
    """A small stream whose scans cross a uniform fallback and sampled stars.

    Hub 0 neighbours nodes 9 to 14 and nodes 1 to 8 are isolated, so the
    first star, at 0 onto 1 and 2, chooses among nodes of degree 0 only:
    under a nonzero degree exponent both its steps fall back to uniform.
    Later stars take centers and existing targets of positive degree only.  Internal
    stars onto 8 of them have 9 choices, more than
    ``MAX_EXHAUSTIVE_CHOICES``, and are sampled; the other stars are
    internal or external with 1 to 3 existing targets, in random order
    after three external stars.  Every score is finite unless
    ``impossible``, where one later star takes isolated node 3 beside nodes
    of positive degree, which no nonzero degree exponent can choose.
    """
    seed_edges = sorted({(0, v) for v in range(9, 15)} | {(9, 10), (11, 12)})
    graph = gf.graph_from_edges(seed_edges)
    incs = [gf.Increment(0, 0, False, (1, 2), (False, False))]
    gf.apply_increment(graph, incs[0])
    shapes = [(True, 3)] * 3 + [(False, 8)] + [
        (bool(rng.integers(0, 2)), 8 if rng.random() < 0.3 else int(rng.integers(1, 4)))
        for _ in range(10)
    ]
    onto_isolated = int(rng.integers(1, len(shapes) + 1)) if impossible else None
    for t, (center_is_new, q) in enumerate(shapes, start=1):
        n = graph.num_nodes
        linked = [v for v in range(n) if graph.degrees[v] > 0]
        hosts = [v for v in linked if len(set(linked) - graph.neighbors(v) - {v}) >= q]
        if center_is_new or not hosts:
            center, center_is_new, pool = n, True, linked
        else:
            center = int(rng.choice(hosts))
            pool = [x for x in linked if x != center and x not in graph.neighbors(center)]
        existing = tuple(int(x) for x in rng.choice(pool, size=q, replace=False))
        if t == onto_isolated:
            existing = (3,) + existing[1:]
        n_new = int(rng.integers(0, 2))
        first_new = n + center_is_new
        targets = existing + tuple(range(first_new, first_new + n_new))
        inc = gf.Increment(t, center, center_is_new, targets, (False,) * q + (True,) * n_new)
        gf.apply_increment(graph, inc)
        incs.append(inc)
    return gf.GrowthStream(seed_edges, incs)


def point_logps(stream, comp):
    """One grid point scored alone, on a replay of its own: its first-use tables start empty."""
    trace = likelihood._replay(
        stream.seed_graph(), stream.columns, 0, 0,
        likelihood.DEFAULT_ORDERING_SAMPLES, likelihood.MAX_EXHAUSTIVE_CHOICES,
    )
    logp, _ = likelihood._trace_logp(trace, [comp], [1.0])
    return logp


def sum_in_order(values):
    """The sum of a list added left to right."""
    acc = 0.0
    for x in values:
        acc += x
    return acc


def finite_sum(values):
    """The sum of a list's finite entries, added left to right."""
    return sum_in_order(x for x in values if x != -math.inf)


def side_sum(values):
    """A side of a cut: -inf if it holds an impossible increment, else its sum."""
    return -math.inf if -math.inf in values else finite_sum(values)


def brute_force_split(pre_rows, post_rows, timestamps, grid):
    """(score, T, pre row, post row) of the best cut, every side summed directly, first maximum."""
    best = None
    for t in grid:
        split = sum(ts <= t for ts in timestamps)
        pre = [side_sum(row[:split]) for row in pre_rows]
        post = [side_sum(row[split:]) for row in post_rows]
        i, j = pre.index(max(pre)), post.index(max(post))
        if best is None or pre[i] + post[j] > best[0]:
            best = (pre[i] + post[j], t, i, j)
    return best


class TestScansReuseTables:
    """A scan builds its exponent-free tables once and scores every point as if alone."""

    EXPONENTS = [-0.5, -0.0, 0.0, 0.3, 1.0, 1.7, 2.5]

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        family=st.sampled_from(["DP", "RP"]),
        grid=st.lists(st.sampled_from(EXPONENTS), min_size=1, max_size=6),
    )
    def test_family_scan_equals_points_scored_alone(self, seed, family, grid):
        stream = scan_stream(np.random.default_rng(seed))
        trace = gf.build_dp_trace(stream)
        assert trace.sampled.any()
        # the first star's two steps fall back to uniform under a degree power
        logp, fallbacks = likelihood._trace_logp(trace, [gf.DegreePower(1.0)], [1.0])
        assert fallbacks[0, 0] == 2 and np.isfinite(logp).all()
        if family == "RP":
            make = gf.RankPreference
            grid = [a for a in grid if a > 0.0] or [0.3]
        else:
            make = gf.DegreePower
            grid = grid + [0.0, -0.0]
        fit = gf.fit_component_family(trace, make, grid)
        alone = [float(point_logps(stream, make(a)).sum()) for a in grid]
        assert fit.logliks.tobytes() == np.array(alone).tobytes()

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alphas=st.lists(st.sampled_from(EXPONENTS), min_size=1, max_size=5),
        t_grid=st.none() | st.lists(st.integers(-1, 14), min_size=1, max_size=6),
        impossible=st.booleans(),
    )
    def test_joint_fit_equals_brute_force(self, seed, alphas, t_grid, impossible):
        stream = scan_stream(np.random.default_rng(seed), impossible)
        alphas = alphas + [0.0, -0.0]
        series = [point_logps(stream, gf.DegreePower(a)).tolist() for a in alphas]
        assert any(-math.inf in logp for logp in series) == (impossible and any(alphas))
        timestamps = [inc.timestamp for inc in stream.increments]
        best = None
        for t in sorted(set(timestamps)) if t_grid is None else t_grid:
            split = sum(ts <= t for ts in timestamps)
            # A side holding an impossible increment is -inf.  Otherwise the
            # post sum is the sum of the row's finite entries less the pre
            # one, as the fit forms it.
            head = [finite_sum(logp[:split]) for logp in series]
            pre = [side_sum(logp[:split]) for logp in series]
            post = [
                -math.inf if -math.inf in logp[split:] else finite_sum(logp) - h
                for logp, h in zip(series, head)
            ]
            i, j = pre.index(max(pre)), post.index(max(post))
            if best is None or pre[i] + post[j] > best[0]:
                best = (pre[i] + post[j], t, alphas[i], alphas[j])
        joint = gf.fit_dp_changepoint_joint(stream, alpha_grid=alphas, t_grid=t_grid)
        assert (joint.loglik, joint.t_hat, joint.alpha_pre, joint.alpha_post) == best


class TestFitMixtureWeights:
    """Weight recovery by a one-interval fit."""

    def test_recovers_even_mixture(self):
        stream = gf.grow(
            gf.GrowthRecipe.constant("0.5*BA + 0.5*RAND", increments=900, new_targets=3),
            seed=4,
        )
        comps = [gf.DegreePower(1.0), gf.Random()]
        cache = gf.build_choice_cache(stream, comps)
        (interval,) = gf.fit_intervals(cache, 1).intervals
        assert abs(interval["weights"][0] - 0.5) <= 0.1
        assert abs(sum(interval["weights"]) - 1.0) < 1e-9

    def test_pure_component_hits_vertex(self):
        stream = gf.grow(
            gf.GrowthRecipe.constant("RAND", increments=400, new_targets=3), seed=5
        )
        comps = [gf.DegreePower(1.0), gf.Random()]
        cache = gf.build_choice_cache(stream, comps)
        (interval,) = gf.fit_intervals(cache, 1).intervals
        assert interval["weights"][1] >= 0.9

    def test_infeasible_stream_raises(self):
        inc = gf.Increment(0, 0, False, (4,), (False,))
        stream = gf.GrowthStream(
            seed_edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], increments=[inc]
        )
        cache = gf.build_choice_cache(stream, [gf.TriangleClosure()])
        with pytest.raises(gf.NoFeasibleFitError):
            gf.fit_intervals(cache, 1)


class TestFitIntervals:
    def make_two_phase(self, n=1200, seed=6):
        stream = gf.grow(
            gf.GrowthRecipe.two_phase(
                "0.2*BA + 0.8*RAND", "0.8*BA + 0.2*RAND", n / 2 - 1,
                increments=n, new_targets=3,
            ),
            seed=seed,
        )
        comps = [gf.DegreePower(1.0), gf.Random()]
        return stream, gf.build_choice_cache(stream, comps)

    def test_two_intervals_track_the_phases(self):
        _, cache = self.make_two_phase()
        fit = gf.fit_intervals(cache, 2)
        w_pre = fit.intervals[0]["weights"][0]
        w_post = fit.intervals[1]["weights"][0]
        assert w_pre < 0.45
        assert w_post > 0.55

    def test_loglik_never_decreases_with_doubling(self):
        _, cache = self.make_two_phase(n=600)
        f1 = gf.fit_intervals(cache, 1)
        f2 = gf.fit_intervals(cache, 2)
        f4 = gf.fit_intervals(cache, 4)
        assert f2.loglik >= f1.loglik - 1e-9
        assert f4.loglik >= f2.loglik - 1e-9

    def test_interval_bookkeeping(self):
        _, cache = self.make_two_phase(n=600)
        fit = gf.fit_intervals(cache, 3)
        assert [iv["increments"] for iv in fit.intervals] == [200, 200, 200]
        assert fit.intervals[0]["start_index"] == 0
        assert fit.intervals[-1]["end_index"] == 599
        assert fit.total_choices == cache.num_choices.sum()

    def test_schedule_round_trip_scores_identically(self):
        stream, cache = self.make_two_phase(n=600)
        fit = gf.fit_intervals(cache, 2)
        summary, _ = gf.score_stream(stream, fit.schedule())
        assert abs(summary.loglik - fit.loglik) < 1e-6

    @staticmethod
    def fit_json():
        return {
            "components": ["BA", "RAND"],
            "mode": "count",
            "intervals": [{"weights": [0.5, 0.5], "start_index": 0, "end_index": 9, "end_time": 9}],
            "logL": -12.5,
            "logL_rand": -13.0,
            "choices": 7,
        }

    def test_json_round_trip_keeps_numbers_and_infinity(self):
        _, cache = self.make_two_phase(n=300)
        fit = gf.fit_intervals(cache, 2)
        fit.loglik = -math.inf
        loaded = gf.FitResult.from_json(fit.to_json())
        assert loaded.loglik == -math.inf and loaded.loglik_rand == fit.loglik_rand
        assert loaded.intervals == fit.intervals
        assert loaded.schedule() == fit.schedule()

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("logL", "-12.5", "'logL'"),
            ("logL", True, "'logL'"),
            ("logL_rand", True, "'logL_rand'"),
            ("logL_rand", None, "'logL_rand'"),
            ("choices", 7.9, "'choices'"),
            ("choices", "7", "'choices'"),
            ("weights", ["0.5", 0.5], "'weights'"),
            ("weights", [True, 0.5], "'weights'"),
            ("weights", 0.5, "'weights'"),
            ("weights", [1.0], r"^interval 0: field 'weights' .* \(2\), got 1$"),
            ("weights", [0.5, 0.25, 0.25], r"^interval 0: field 'weights' .* \(2\), got 3$"),
            ("start_index", "0", "'start_index'"),
            ("end_index", 9.5, "'end_index'"),
            ("end_index", True, "'end_index'"),
            ("end_time", "9", "'end_time'"),
        ],
    )
    def test_json_number_of_the_wrong_kind_is_a_fit_error(self, field, value, named):
        fit = self.fit_json()
        if field in fit:
            fit[field] = value
        else:
            fit["intervals"][0][field] = value
        with pytest.raises(gf.FitError, match=named):
            gf.FitResult.from_json(json.dumps(fit))

    def test_bad_value_message_is_short_and_names_the_interval(self):
        fit = self.fit_json()
        fit["intervals"] = [
            {"weights": [0.5, 0.5], "start_index": k, "end_index": k, "end_time": k}
            for k in range(10)
        ]
        fit["intervals"][9]["weights"] = [0.5, "0.5"]
        with pytest.raises(gf.FitError) as info:
            gf.FitResult.from_json(json.dumps(fit))
        message = str(info.value)
        assert message.startswith("field 'intervals' cannot read ")
        assert message.endswith(
            "interval 9: field 'weights' cannot read [0.5, '0.5']: expected a number"
        )
        # each quoted value is cut to 80 characters, not all ten intervals
        assert len(message) <= 200 and message.count("start_index") < 10

    @pytest.mark.parametrize("field", ["weights", "start_index", "end_index", "end_time"])
    def test_interval_missing_a_field_is_a_fit_error(self, field):
        # compare_interval_fits reads start_index, schedule() the others
        fit = self.fit_json()
        del fit["intervals"][0][field]
        with pytest.raises(gf.FitError, match=f"'{field}' is missing"):
            gf.FitResult.from_json(json.dumps(fit))

    def test_scan_returns_one_fit_per_depth(self):
        _, cache = self.make_two_phase(n=600)
        fits = gf.scan_interval_counts(cache, 1, 4)
        assert [len(f.intervals) for f in fits] == [1, 2, 3, 4]


def fresh(cache):
    """The cache's arrays in a new cache that keeps no lattice sums yet."""
    return dataclasses.replace(cache)


class TestBlockSums:
    """Interval fits score a weight lattice once per cache, as sums over increment blocks."""

    LATTICE = simplex_grid(3, 0.01)

    def assert_matches_direct(self, cache, fits, lattice=LATTICE):
        """Each interval's weights are the first maximum of direct cache_loglik over its range."""
        for fit in fits:
            total = 0.0
            for iv in fit.intervals:
                lo, hi = iv["start_index"], iv["end_index"] + 1
                direct = gf.cache_loglik(cache, lattice, lo, hi)
                best = int(np.argmax(direct))
                assert iv["weights"] == lattice[best].tolist()
                total += direct[best]
            assert fit.loglik == pytest.approx(total, rel=1e-12, abs=0)

    @staticmethod
    def assert_close(got, direct):
        """Same -inf points, same first maximum, finite values within 1e-12 relative."""
        assert np.array_equal(np.isneginf(got), np.isneginf(direct))
        finite = np.isfinite(direct)
        assert np.allclose(got[finite], direct[finite], rtol=1e-12, atol=0)
        assert np.argmax(got) == np.argmax(direct)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        j=st.integers(1, 12),
        mode=st.sampled_from(["count", "time"]),
        which=st.sampled_from([0, 1]),
        min_rows=st.sampled_from([1, 16, estimation._MIN_BLOCK_INCREMENTS]),
        slab=st.sampled_from([likelihood._BUILD_CHUNK_ELEMENTS, 256 * 5]),
    )
    def test_block_path_matches_direct_scores(self, lattice_caches, j, mode, which, min_rows, slab):
        # The grown cache has 150 increments, the mixed one (with a row-path
        # star) 40: with at least one increment a block they get 50 and 40
        # blocks, with 16, 9 and 2, with 64, 2 and 1.  A slab of 256 * 5 values holds 5
        # rows of a degree for a 256-point chunk, so the block pass spans many
        # slabs and splits its larger ranges between them.
        cache = fresh(lattice_caches[which])
        try:
            groups = partition_indices(cache, j, mode)
        except gf.IntervalUnderflowError:
            assume(False)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimation, "_MIN_BLOCK_INCREMENTS", min_rows)
            mp.setattr(likelihood, "_BUILD_CHUNK_ELEMENTS", slab)
            kept = estimation._block_sums(cache, self.LATTICE, 0.01)
            scores = estimation._interval_logliks(cache, self.LATTICE, kept, groups)
        most = estimation._LATTICE_SUM_BUDGET // len(self.LATTICE)
        assert len(kept.sums) == max(1, min(cache.num_increments // min_rows, most))
        for (lo, hi), got in zip(groups, scores):
            self.assert_close(got, gf.cache_loglik(cache, self.LATTICE, lo, hi))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        which=st.sampled_from([0, 1]),
        slab=st.sampled_from([256, 256 * 5, 256 * 40, likelihood._BUILD_CHUNK_ELEMENTS]),
    )
    def test_range_sums_match_one_range_at_a_time(self, lattice_caches, data, which, slab):
        # Sorted, disjoint ranges that touch, leave gaps or are empty, scored
        # in slabs of 1, 5, 40 or 256 rows of a degree for a 256-point chunk.
        cache = lattice_caches[which]
        n = cache.num_increments
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=14)))
        keep = data.draw(st.lists(st.booleans(), min_size=len(cuts) - 1, max_size=len(cuts) - 1))
        ranges = [(a, b) for a, b, k in zip(cuts, cuts[1:], keep) if k] or [(cuts[0], cuts[-1])]
        starts, stops = np.array(ranges, dtype=np.int64).T
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(likelihood, "_BUILD_CHUNK_ELEMENTS", slab)
            got = likelihood._range_sums(cache, self.LATTICE, starts, stops)
        for (a, b), row in zip(ranges, got):
            direct = gf.cache_loglik(cache, self.LATTICE, a, b)
            if a == b:
                assert np.array_equal(row, direct) and not row.any()
            else:
                self.assert_close(row, direct)

    @pytest.mark.parametrize("mode", ["count", "time"])
    def test_fit_does_not_depend_on_earlier_fits(self, lattice_caches, mode):
        for cache in lattice_caches:
            alone, after = fresh(cache), fresh(cache)
            gf.fit_intervals(after, 1, mode)
            fit = gf.fit_intervals(alone, 10, mode).to_dict()
            assert fit == gf.fit_intervals(after, 10, mode).to_dict()

    def test_scan_equals_one_fit_per_j(self, lattice_caches):
        for cache in lattice_caches:
            scanned = gf.scan_interval_counts(fresh(cache), 1, 8)
            each = [gf.fit_intervals(fresh(cache), j) for j in range(1, 9)]
            assert [f.to_dict() for f in scanned] == [f.to_dict() for f in each]
            self.assert_matches_direct(cache, scanned)

    def test_pure_triangle_points_are_minus_infinity_without_nan(self, lattice_caches):
        possible = self.LATTICE[:, 1] < 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cache in lattice_caches:
                cache = fresh(cache)
                kept = estimation._block_sums(cache, self.LATTICE, 0.01)
                assert not np.isnan(kept.sums).any()
                for j in (1, 3, 7):
                    groups = partition_indices(cache, j)
                    scores = estimation._interval_logliks(cache, self.LATTICE, kept, groups)
                    scores = np.array(scores)
                    assert not np.isnan(scores).any()
                    assert np.isfinite(scores[:, possible]).all()
                    if j == 1:
                        assert np.isneginf(scores[0, 100])  # the TRI vertex (0, 1, 0)

    def test_single_block(self, lattice_caches, monkeypatch):
        monkeypatch.setattr(estimation, "_LATTICE_SUM_BUDGET", len(self.LATTICE) + 7)
        for cache in lattice_caches:
            cache = fresh(cache)
            fits = gf.scan_interval_counts(cache, 1, 5)
            (kept,) = cache._lattice_sums.values()
            assert kept.edges.tolist() == [0, cache.num_increments]
            assert kept.sums.shape == (1, len(self.LATTICE))
            self.assert_matches_direct(cache, fits)

    def test_one_increment_per_block(self, lattice_caches, monkeypatch):
        monkeypatch.setattr(estimation, "_MIN_BLOCK_INCREMENTS", 1)
        cache = fresh(lattice_caches[1])
        assert cache.num_increments < estimation._LATTICE_SUM_BUDGET // len(self.LATTICE)
        fits = gf.scan_interval_counts(cache, 1, 5) + [gf.fit_intervals(cache, 4, "time")]
        (kept,) = cache._lattice_sums.values()
        assert kept.edges.tolist() == list(range(cache.num_increments + 1))
        self.assert_matches_direct(cache, fits)

    def test_small_lattice_keeps_blocks_of_at_least_the_floor(self, lattice_caches):
        # 66 points would allow 3,971 blocks; 150 increments make 2 of 75.
        cache = fresh(lattice_caches[0])
        fit = gf.fit_intervals(cache, 3, step=0.1)
        (kept,) = cache._lattice_sums.values()
        assert np.diff(kept.edges).min() >= estimation._MIN_BLOCK_INCREMENTS
        assert len(kept.sums) == cache.num_increments // estimation._MIN_BLOCK_INCREMENTS
        assert fit.to_dict() == gf.fit_intervals(fresh(cache), 3, step=0.1).to_dict()
        self.assert_matches_direct(cache, [fit], simplex_grid(3, 0.1))

    def test_first_fit_peaks_at_the_kept_sums_plus_one_slab(self):
        stream = gf.grow(
            gf.GrowthRecipe.constant("0.5*BA + 0.5*RAND", increments=2000, new_targets=3), seed=3
        )
        cache = gf.build_choice_cache(stream, [gf.DegreePower(1.0), gf.Random()])
        # 10,001 weight vectors, so the 2 MB budget (26 blocks), not the
        # 64-increment floor (31 blocks), sets the block count.  The first
        # call builds the monomial tables outside the measurement.
        gf.fit_intervals(fresh(cache), 1, step=0.0001)
        _, peak, _ = traced_peak(lambda: gf.fit_intervals(cache, 1, step=0.0001))
        (kept,) = cache._lattice_sums.values()
        assert kept.sums.shape == (estimation._LATTICE_SUM_BUDGET // 10001, 10001)
        assert kept.sums.size <= estimation._LATTICE_SUM_BUDGET
        # Scoring the whole range directly would hold 2000 x 256 values at once (4 MB).
        slab = likelihood._BUILD_CHUNK_ELEMENTS * 8
        assert peak < kept.sums.nbytes + 1.5 * slab
        gf.fit_intervals(cache, 3, step=0.01)
        assert len(cache._lattice_sums) == 2
        budget = estimation._LATTICE_SUM_BUDGET
        assert all(k.sums.size <= budget for k in cache._lattice_sums.values())


class TestChangepoint:
    def test_exact_argmax_on_synthetic_series(self):
        ts = np.array([3, 5, 7, 9])
        pre = np.array([0.0, 0.0, -5.0, -5.0])
        post = np.array([-5.0, -5.0, 0.0, 0.0])
        cp = gf.fit_changepoint(pre, post, ts)
        assert cp.t_hat == 5.0
        assert cp.loglik == 0.0
        assert cp.logliks.tolist() == [-5.0, 0.0, -5.0, -10.0]

    def test_tied_series_picks_earliest_grid_point(self):
        ts = np.array([3, 5, 7, 9])
        series = np.array([-1.0, -2.0, -1.5, -0.5])
        cp = gf.fit_changepoint(series, series.copy(), ts)
        assert cp.t_hat == 3.0

    @pytest.mark.parametrize("seed", range(10))
    def test_equal_long_series_scan_exactly_flat(self, seed):
        # long sums of unequal terms: the tie must not hang on summation rounding
        x = -np.random.default_rng(seed).exponential(5.0, 2000)
        cp = gf.fit_changepoint(x, x.copy(), np.arange(2000))
        assert np.all(cp.logliks == cp.logliks[0])
        assert cp.t_hat == 0.0

    def test_decreasing_timestamps_are_a_fit_error(self):
        series = np.array([-1.0, -2.0, -1.5, -0.5, -1.0, -2.0])
        with pytest.raises(gf.FitError, match="non-decreasing: index 3 has 3, below 9"):
            gf.fit_changepoint(series, series[::-1].copy(), np.array([1, 5, 9, 3, 7, 12]))
        # equal timestamps are fine
        cp = gf.fit_changepoint(series, series.copy(), np.array([1, 1, 2, 2, 2, 3]))
        assert cp.t_hat == 1.0

    def test_empty_grid_is_a_fit_error(self):
        with pytest.raises(gf.FitError, match="empty grid"):
            gf.fit_changepoint(np.zeros(3), np.zeros(3), np.arange(3), grid=[])

    def test_custom_grid(self):
        ts = np.array([0, 10])
        pre = np.array([0.0, -1.0])
        post = np.array([-1.0, 0.0])
        cp = gf.fit_changepoint(pre, post, ts, grid=changepoint_grid(0.0, 10.0, 10))
        assert cp.t_hat == 0.0
        assert len(cp.grid) == 11

    def test_dp_changepoint_localizes_switch(self):
        stream = gf.grow(
            gf.GrowthRecipe.two_phase("DP(1.5)", "DP(0.5)", 999.0, increments=2000,
                                      new_targets=3),
            seed=0,
        )
        cp = gf.fit_dp_changepoint(stream, 1.5, 0.5)
        assert abs(cp.t_hat - 999.0) <= 100.0

    def test_joint_fit_recovers_exponent_pair(self):
        stream = gf.grow(
            gf.GrowthRecipe.two_phase("DP(1.5)", "DP(0.5)", 999.0, increments=2000,
                                      new_targets=3),
            seed=0,
        )
        joint = gf.fit_dp_changepoint_joint(
            stream, t_grid=np.arange(100.0, 1900.0, 50.0)
        )
        assert abs(joint.alpha_pre - 1.5) <= 0.15
        assert abs(joint.alpha_post - 0.5) <= 0.15
        assert abs(joint.t_hat - 999.0) <= 150.0

    def test_empty_stream_raises_fit_error(self):
        empty = gf.GrowthStream(seed_edges=[(0, 1), (1, 2)])
        for fit in (gf.fit_dp_changepoint, gf.fit_dp_changepoint_joint):
            args = (1.5, 0.5) if fit is gf.fit_dp_changepoint else ()
            with pytest.raises(gf.FitError, match="empty stream"):
                fit(empty, *args)

    def test_impossible_increment_stays_minus_inf(self):
        pre, post = [-1.0] * 4, [-math.inf, -0.5, -0.5, -0.5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cp = gf.fit_changepoint(pre, post, np.arange(4))
        assert (cp.t_hat, cp.loglik) == (0, -2.5)
        assert cp.logliks.tolist() == [-2.5, -3.0, -3.5, -4.0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        rows=st.integers(1, 8).flatmap(lambda n: st.lists(
            st.lists(st.sampled_from([-math.inf, -2.0, -1.25, -0.5, 0.0]), min_size=n, max_size=n),
            min_size=2, max_size=2,
        )),
        grid=st.none() | st.lists(st.integers(-1, 8), min_size=1, max_size=5),
    )
    def test_changepoint_with_impossible_increments_equals_brute_force(self, rows, grid):
        # quarter units add exactly in any order, so every score is exact
        pre, post = rows
        ts = list(range(len(pre)))
        best = brute_force_split([pre], [post], ts, sorted(set(ts)) if grid is None else grid)
        if best[0] == -math.inf:
            with pytest.raises(gf.NoFeasibleFitError):
                gf.fit_changepoint(pre, post, ts, grid=grid)
        else:
            cp = gf.fit_changepoint(pre, post, ts, grid=grid)
            assert (cp.loglik, cp.t_hat) == best[:2]

    def test_no_cut_without_an_impossible_side_is_infeasible(self):
        series = [0.0, -math.inf, 0.0]
        with pytest.raises(gf.NoFeasibleFitError, match="every grid point"):
            gf.fit_changepoint(series, series, np.arange(3))

    @pytest.mark.parametrize(
        "pre, post, named",
        [([0.0, math.nan, 0.0], [0.0] * 3, "nan at index 1"),
         ([0.0] * 3, [0.0, -math.inf, math.inf], "inf at index 2")],
    )
    def test_nan_or_plus_inf_score_is_a_fit_error(self, pre, post, named):
        with pytest.raises(gf.FitError, match=f"score series holds {named}"):
            gf.fit_changepoint(pre, post, np.arange(3))

    def test_isolated_seed_node_fits_equal_brute_force(self):
        # node 1 of the seed graph is isolated: the star onto it is impossible
        # under DP(1) and possible under DP(0)
        incs = [
            gf.Increment(t, 4 + t, True, (target,), (False,))
            for t, target in enumerate([0, 1, 2, 3])
        ]
        stream = gf.GrowthStream(seed_edges=[(0, 2), (2, 3), (0, 3)], increments=incs)
        rows = {a: gf.dp_trace_logp(gf.build_dp_trace(stream), a).tolist() for a in (0.0, 1.0)}
        assert rows[1.0][1] == -math.inf and np.isfinite(rows[0.0]).all()
        ts = list(range(4))
        for pair in [(1.0, 0.0), (0.0, 1.0)]:
            score, t, _, _ = brute_force_split([rows[pair[0]]], [rows[pair[1]]], ts, ts)
            fit = gf.fit_dp_changepoint(stream, *pair)
            assert fit.t_hat == t and fit.loglik == pytest.approx(score, rel=1e-12)
        alphas = [0.0, 1.0]
        both = [rows[a] for a in alphas]
        score, t, i, j = brute_force_split(both, both, ts, ts)
        joint = gf.fit_dp_changepoint_joint(stream, alpha_grid=alphas)
        assert (joint.t_hat, joint.alpha_pre, joint.alpha_post) == (t, alphas[i], alphas[j])
        assert joint.loglik == pytest.approx(score, rel=1e-12)

    # bools, NaN, text, complex, nested and ragged lists; a bool beside an int too
    BAD_SWITCH_GRIDS = [
        [True, False], [math.nan], ["a"], [1, True], [1 + 2j], [[1, 2]], [[1], [2, 3]],
    ]

    @pytest.fixture(scope="class")
    def small_stream(self):
        return gf.grow(gf.GrowthRecipe.constant("DP(1.5)", increments=30), seed=0)

    def test_changepoint_switch_grid_must_hold_numbers(self):
        x = np.zeros(3)
        for grid in self.BAD_SWITCH_GRIDS:
            with pytest.raises(gf.FitError, match="switch-time grid"):
                gf.fit_changepoint(x, x, np.arange(3), grid=grid)
        # numpy keeps ints past int64 exact as Python ints, and the grid stays valid
        assert gf.fit_changepoint(x, x, np.arange(3), grid=[2**70, 2]).t_hat == 2**70

    def test_dp_changepoint_switch_grid_must_hold_numbers(self, small_stream):
        for grid in self.BAD_SWITCH_GRIDS:
            with pytest.raises(gf.FitError, match="switch-time grid"):
                gf.fit_dp_changepoint(small_stream, 1.5, 0.5, grid=grid)
        fit = gf.fit_dp_changepoint(small_stream, 1.5, 0.5, grid=[2**64, 2**70])
        assert fit.t_hat == 2**64

    def test_joint_switch_grid_must_hold_numbers(self, small_stream):
        for grid in self.BAD_SWITCH_GRIDS:
            with pytest.raises(gf.FitError, match="switch-time grid"):
                gf.fit_dp_changepoint_joint(small_stream, alpha_grid=[0.5, 1.5], t_grid=grid)
        joint = gf.fit_dp_changepoint_joint(small_stream, alpha_grid=[0.5, 1.5], t_grid=[2**70])
        assert joint.t_hat == 2**70

    @pytest.mark.parametrize(
        "fit",
        [
            lambda s: gf.fit_dp_changepoint_joint(s, t_grid=[True]),
            lambda s: gf.fit_dp_changepoint_joint(s, alpha_grid=[0.5, math.nan]),
            lambda s: gf.fit_dp_changepoint_joint(s, alpha_grid=[]),
            lambda s: gf.fit_dp_changepoint(s, 1.5, 0.5, grid=[[1, 2]]),
        ],
        ids=["joint-switch", "joint-exponent", "joint-empty-exponents", "dp-switch"],
    )
    def test_grids_are_checked_before_the_replay_and_scores(self, fit, monkeypatch):
        stream = gf.grow(gf.GrowthRecipe.constant("DP(1.5)", increments=30), seed=0)
        calls = []

        def counted(trace, alpha):
            calls.append(alpha)
            return likelihood.dp_trace_logp(trace, alpha)

        monkeypatch.setattr(estimation, "dp_trace_logp", counted)
        with pytest.raises(gf.FitError):
            fit(stream)
        assert stream._traces == {} and calls == []

    def test_joint_fit_holds_one_score_table(self):
        recipe = gf.GrowthRecipe.constant("DP(1.0)", increments=2000, new_targets=3)
        trace = gf.build_dp_trace(gf.grow(recipe, seed=0))
        # the first call builds the trace's tables outside the measurement
        first = gf.fit_dp_changepoint_joint(trace)
        joint, peak, _ = traced_peak(lambda: gf.fit_dp_changepoint_joint(trace))
        assert joint == first
        # the (A, I + 1) prefix sums, then one side's (A, G) sums of them at a
        # time, where a list of rows, their stacked copy and a prefix held 3.2 tables
        table = len(default_alpha_grid()) * trace.num_increments * 8
        assert peak < 2.5 * table

    def test_series_from_cache_matches_logratios(self):
        stream = gf.grow(
            gf.GrowthRecipe.constant("0.5*BA + 0.5*RAND", increments=100, new_targets=3),
            seed=1,
        )
        comps = [gf.DegreePower(1.0), gf.Random()]
        cache = gf.build_choice_cache(stream, comps)
        w = np.array([0.5, 0.5])
        series = gf.changepoint_series_from_cache(cache, w)
        assert series.shape == (100,)
        assert np.allclose(series, gf.cache_logratios(cache, w) + cache.logp_rand)


class TestTimestampsPastFloat64:
    """Time-mode fits are exact at nanosecond-epoch timestamps, which float64 cannot hold."""

    OFFSET = 2**60

    @pytest.fixture(scope="class")
    def streams(self):
        """A grown stream with timestamps k = 0, 1, ..., and the same stream at 2**60 + k."""
        recipe = gf.GrowthRecipe.two_phase("0.2*BA + 0.8*RAND", "0.8*BA + 0.2*RAND", 99.0,
                                           increments=200, new_targets=3)
        stream = gf.grow(recipe, seed=2)
        shifted = [dataclasses.replace(inc, timestamp=self.OFFSET + inc.timestamp)
                   for inc in stream.increments]
        return stream, gf.GrowthStream(stream.seed_edges, shifted)

    def test_interval_fit_cuts_and_rescoring(self, streams):
        comps = [gf.DegreePower(1.0), gf.Random()]
        fits = [gf.fit_intervals(gf.build_choice_cache(s, comps), 2, mode="time") for s in streams]
        base, fit = fits
        assert [iv["end_index"] for iv in fit.intervals] == [99, 199]
        assert fit.intervals[0]["end_time"] == self.OFFSET + 99
        assert fit.loglik == base.loglik
        assert [iv["weights"] for iv in fit.intervals] == [iv["weights"] for iv in base.intervals]
        summaries = [gf.score_stream(s, f.schedule())[0] for s, f in zip(streams, fits)]
        assert summaries[1].loglik == summaries[0].loglik
        assert abs(summaries[1].loglik - fit.loglik) <= 1e-9 * abs(fit.loglik)

    def test_changepoint_grids_keep_every_timestamp(self, streams):
        stream, shifted = streams
        pre, post = (gf.score_stream(shifted, gf.parse_model_spec(m), keep_series=True)[1]
                     for m in ("0.2*BA + 0.8*RAND", "0.8*BA + 0.2*RAND"))
        pre, post = (np.array([s.logp for s in series]) for series in (pre, post))
        ts = np.array([inc.timestamp for inc in shifted.increments])
        cp = gf.fit_changepoint(pre, post, ts)
        base = gf.fit_changepoint(pre, post, np.arange(200))
        assert cp.grid.tolist() == (self.OFFSET + np.arange(200)).tolist()
        assert cp.logliks.tolist() == base.logliks.tolist()
        given = gf.fit_changepoint(pre, post, ts, grid=ts)
        assert given.logliks.tolist() == base.logliks.tolist()
        # a float candidate is searched by its floor, not by rounding the timestamps
        at = gf.fit_changepoint(pre, post, ts, grid=[float(self.OFFSET), float(self.OFFSET + 256)])
        assert at.logliks.tolist() == [base.logliks[0], base.logliks[199]]
        joint, base_joint = (gf.fit_dp_changepoint_joint(s, alpha_grid=[0.5, 1.0, 1.5])
                             for s in (shifted, stream))
        assert joint.t_hat == self.OFFSET + base_joint.t_hat
        assert joint.loglik == base_joint.loglik

    def test_switch_times_are_exact_integers(self, streams):
        # 2**60 + k rounds to 2**60 in float64 for every k < 128
        stream, shifted = streams
        ts = np.array([inc.timestamp for inc in shifted.increments])
        x = np.zeros(len(ts))
        x[:150] = 1.0
        fits = [
            (gf.fit_changepoint(x, -x, ts), gf.fit_changepoint(x, -x, np.arange(len(ts)))),
            tuple(gf.fit_dp_changepoint(s, 1.5, 0.5) for s in (shifted, stream)),
            tuple(gf.fit_dp_changepoint_joint(s, alpha_grid=[0.5, 1.5]) for s in (shifted, stream)),
        ]
        assert fits[0][1].t_hat == 149
        for fit, base in fits:
            assert type(fit.t_hat) is int and type(base.t_hat) is int
            assert fit.t_hat == self.OFFSET + base.t_hat
        # a float grid keeps float switch times, and ints past int64 stay exact
        on_floats = gf.fit_changepoint(x, -x, np.arange(len(ts)), grid=[10.0, 149.5, 160.0])
        assert type(on_floats.t_hat) is float and on_floats.t_hat == 149.5
        assert gf.fit_changepoint(x, -x, ts, grid=[2**70, 2**71]).t_hat == 2**70


class TestWilks:
    def test_statistic_and_pvalue(self):
        report = gf.wilks_test(-100.0, -95.0, 2)
        assert report.statistic == 10.0
        assert abs(report.p_value - oracle_chi2_sf(10.0, 2)) < 1e-12

    def test_tiny_negative_statistic_clamps_to_zero(self):
        report = gf.wilks_test(-100.0, -100.0 - 1e-9, 1)
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_nesting_violation_raises(self):
        with pytest.raises(gf.NestingViolationError):
            gf.wilks_test(-100.0, -101.0, 1)

    def test_sf_matches_quadrature_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            df = int(rng.integers(1, 31))
            stat = float(rng.uniform(0.0, 100.0))
            assert abs(gf.chi_square_sf(stat, df) - oracle_chi2_sf(stat, df)) < 1e-6

    def test_sf_matches_scipy_gammaincc_on_a_wide_grid(self):
        """df 1..1000, stat from 0 to 1e5: finite everywhere, within 1e-14
        absolute, and within 1e-12 relative wherever the tail is >= 1e-300."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for df in range(1, 1001):
                fixed = [0.0, 1e-8, 0.5, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5]
                near = [df * f for f in (0.01, 0.1, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0)]
                for stat in fixed + near:
                    got = gf.chi_square_sf(stat, df)
                    want = float(special.gammaincc(df / 2.0, stat / 2.0))
                    assert math.isfinite(got), (stat, df)
                    assert abs(got - want) <= 1e-14, (stat, df, got, want)
                    if want >= 1e-300:
                        assert abs(got - want) <= 1e-12 * want, (stat, df, got, want)

    def test_sf_input_contract(self):
        assert gf.chi_square_sf(0.0, 3) == 1.0
        assert gf.chi_square_sf(-2.5, 3) == 1.0
        assert gf.chi_square_sf(math.inf, 3) == 0.0
        assert gf.chi_square_sf(1e5, 1000) == 0.0
        assert gf.chi_square_sf(3.0, np.int64(2)) == gf.chi_square_sf(3.0, 2)
        with pytest.raises(gf.FitError, match="NaN"):
            gf.chi_square_sf(math.nan, 2)
        for df in (0, -1, 2.0, True):
            with pytest.raises(gf.FitError, match="degrees of freedom"):
                gf.chi_square_sf(1.0, df)

    @pytest.mark.parametrize(
        "null, alt",
        [(math.nan, -1.0), (-1.0, math.nan), (-math.inf, -math.inf), (math.inf, math.inf)],
    )
    def test_undefined_statistic_raises_naming_both_values(self, null, alt):
        with pytest.raises(gf.FitError, match=f"null {null} and alternative {alt}"):
            gf.wilks_test(null, alt, 2)

    def test_impossible_null_against_possible_alternative(self):
        report = gf.wilks_test(-math.inf, -3.0, 2)
        assert report.statistic == math.inf
        assert report.p_value == 0.0

    def test_compare_interval_fits_degrees_of_freedom(self):
        stream = gf.grow(
            gf.GrowthRecipe.constant(
                "0.4*BA + 0.3*TRI + 0.3*RAND", increments=400, new_targets=3
            ),
            seed=7,
        )
        comps = [gf.DegreePower(1.0), gf.TriangleClosure(), gf.Random()]
        cache = gf.build_choice_cache(stream, comps)
        f1 = gf.fit_intervals(cache, 1)
        f3 = gf.fit_intervals(cache, 3)
        report = gf.compare_interval_fits(f1, f3)
        # two extra intervals, each with two free weights
        assert report.df == 4
        assert report.statistic >= 0.0

    def test_compare_interval_fits_rejects_partitions_that_are_not_nested(self):
        stream = gf.grow(
            gf.GrowthRecipe.constant("0.5*BA + 0.5*RAND", increments=300, new_targets=3),
            seed=7,
        )
        cache = gf.build_choice_cache(stream, [gf.DegreePower(1.0), gf.Random()])
        f2, f3, f4 = (gf.fit_intervals(cache, j) for j in (2, 3, 4))
        # equal counts cut at 150 for J=2 and at 100, 200 for J=3
        with pytest.raises(gf.NestingViolationError, match=r"not nested.*\[150\]"):
            gf.compare_interval_fits(f2, f3)
        # 150 is also a J=4 cut (75, 150, 225)
        assert gf.compare_interval_fits(f2, f4).df == 2
