"""Acceptance battery: one test per release criterion.

Each test name states the behaviour it certifies, so ``pytest -v`` prints a
single pass/fail line per criterion.  Protocols are deterministic (fixed
seeds), so every tolerance below was verified with margin before freezing.
"""

import time

import numpy as np
import pytest

import growthfit as gf
from growthfit import likelihood
from memory import traced_peak

BA = gf.parse_component("BA")
RAND = gf.parse_component("RAND")


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def two_phase_cache():
    """10,000-increment stream switching 0.3/0.7 -> 0.7/0.3 BA/RAND mid-way."""
    recipe = gf.GrowthRecipe.two_phase(
        "0.3*BA + 0.7*RAND", "0.7*BA + 0.3*RAND", 4999.0,
        increments=10000, new_targets=3, seed_clique=5,
    )
    stream = gf.grow(recipe, seed=0)
    return gf.build_choice_cache(stream, [BA, RAND])


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


class TestCriterion01WorkedExample:
    def test_criterion_01_path_graph_increment_probability_exact(self):
        """New node joining both ends of a 3-path: 5/12 under BA, 1/3 uniform."""
        graph = gf.graph_from_edges([(0, 1), (1, 2)])
        inc = gf.Increment(0, 3, True, (1, 2), (False, False))
        p_ba = gf.increment_probability(graph, inc, gf.MixtureInterval.single(BA))
        p_rand = gf.increment_probability(graph, inc, gf.MixtureInterval.single(RAND))
        assert p_ba == pytest.approx(5.0 / 12.0, abs=1e-12)
        assert p_rand == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestCriterion02BaselineIdentity:
    def test_criterion_02_uniform_model_scores_c0_of_one_on_100k_increments(self):
        """c0(uniform) == 1 on mixed-shape streams up to 1e5 increments, <1 min."""
        small = gf.GrowthRecipe.constant(
            "RAND", increments=2000, new_targets=3,
            internal_prob=0.25, internal_targets=2, seed_clique=6,
        )
        summary, _ = gf.score_stream(
            gf.grow(small, seed=3), gf.MixtureInterval.single(RAND)
        )
        assert abs(summary.c0 - 1.0) <= 1e-12

        start = time.monotonic()
        big = gf.GrowthRecipe.constant("RAND", increments=100_000, new_targets=3)
        summary, _ = gf.score_stream(
            gf.grow(big, seed=0), gf.MixtureInterval.single(RAND)
        )
        elapsed = time.monotonic() - start
        assert abs(summary.c0 - 1.0) <= 1e-12
        assert elapsed < 60.0


class TestCriterion03ClosedFormSimilarity:
    def test_criterion_03_uniform_vs_degree_similarity_closed_form(self):
        """sigma(RAND, BA)^2 == <k>^2/<k^2> on 100 graphs; 1 exactly on regular."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(4, 51))
            m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            idx = rng.choice(len(pairs), size=m, replace=False)
            graph = gf.graph_from_edges([pairs[i] for i in idx], num_nodes=n)
            deg = np.asarray(graph.degrees, dtype=float)
            closed = float(np.mean(deg) ** 2 / np.mean(deg**2))
            sigma = gf.model_similarity(RAND, BA, graph)
            assert abs(sigma**2 - closed) <= 1e-12
        for n in (3, 4, 5, 8, 12, 20):
            cycle = gf.graph_from_edges([(i, (i + 1) % n) for i in range(n)])
            assert gf.model_similarity(RAND, BA, cycle) == 1.0
            assert gf.model_similarity(RAND, BA, gf.clique_graph(n)) == 1.0


class TestCriterion04ExponentRecovery:
    def test_criterion_04_degree_exponent_recovered_without_bias(self):
        """alpha in {0.5,1,1.5,2}, m in {1,3}, 10 seeds: |bias|<=0.05, RMSE<=0.15."""
        for m in (1, 3):
            for alpha in (0.5, 1.0, 1.5, 2.0):
                recipe = gf.GrowthRecipe.constant(
                    f"DP({alpha})", increments=1000, new_targets=m
                )
                estimates = np.array([
                    gf.fit_degree_exponent(gf.grow(recipe, seed=seed)).value
                    for seed in range(10)
                ])
                bias = estimates.mean() - alpha
                rmse = float(np.sqrt(np.mean((estimates - alpha) ** 2)))
                assert abs(bias) <= 0.05, (m, alpha, bias)
                assert rmse <= 0.15, (m, alpha, rmse)


class TestCriterion05MixtureWeightRecovery:
    def test_criterion_05_ba_vs_rank_weight_recovered(self):
        """beta in {0,.25,.5,.75,1} BA/RP(0.5) mix: |mean bias| <= 0.1,
        with smaller error at the pinned endpoints."""
        specs = {
            0.0: "RP(0.5)",
            0.25: "0.25*BA + 0.75*RP(0.5)",
            0.5: "0.5*BA + 0.5*RP(0.5)",
            0.75: "0.75*BA + 0.25*RP(0.5)",
            1.0: "BA",
        }
        components = [BA, gf.parse_component("RP(0.5)")]
        mae = {}
        for beta, spec in specs.items():
            recipe = gf.GrowthRecipe.constant(
                spec, increments=1000, new_targets=3, seed_clique=5
            )
            estimates = []
            for seed in range(10):
                cache = gf.build_choice_cache(gf.grow(recipe, seed=seed), components)
                estimates.append(gf.fit_intervals(cache, 1).intervals[0]["weights"][0])
            estimates = np.array(estimates)
            assert abs(estimates.mean() - beta) <= 0.1, (beta, estimates.mean())
            mae[beta] = float(np.abs(estimates - beta).mean())
        endpoint = max(mae[0.0], mae[1.0])
        interior = max(mae[0.25], mae[0.5], mae[0.75])
        assert endpoint < interior, mae


class TestCriterion06ChangepointRecovery:
    def test_criterion_06_exponent_changepoint_located(self):
        """10k increments, change at midpoint: median error <= 10% of the span
        for 1.2->1.0, and strictly larger for the closer pair 1.0->0.9."""
        t_true = 4999.0
        medians = {}
        for pair in ((1.2, 1.0), (1.0, 0.9)):
            recipe = gf.GrowthRecipe.two_phase(
                f"DP({pair[0]})", f"DP({pair[1]})", t_true,
                increments=10000, new_targets=3,
            )
            errors = []
            for seed in range(10):
                fit = gf.fit_dp_changepoint(gf.grow(recipe, seed=seed), *pair)
                errors.append(abs(fit.t_hat - t_true))
                span = fit.grid[-1] - fit.grid[0]
            medians[pair] = float(np.median(errors))
        assert medians[(1.2, 1.0)] <= 0.10 * span, medians
        assert medians[(1.0, 0.9)] > medians[(1.2, 1.0)], medians


class TestCriterion07NoChangeDiagonal:
    def test_criterion_07_identical_exponents_leave_changepoint_unidentified(self):
        """With equal exponents every candidate time ties, so the earliest-tie
        estimate misses a central nominal change time by half the searched
        span -- RMSE equals span/2 within 10%."""
        recipe = gf.GrowthRecipe.constant("DP(1.0)", increments=2000, new_targets=3)
        errors = []
        for seed in range(10):
            fit = gf.fit_dp_changepoint(gf.grow(recipe, seed=seed), 1.0, 1.0)
            grid = np.asarray(fit.grid, dtype=float)
            logliks = np.asarray(fit.logliks)
            # the scan is informationless: exactly flat, so the first tie wins
            assert np.all(logliks == logliks[0])
            assert fit.t_hat == grid[0]
            t_nominal = (grid[0] + grid[-1]) / 2.0
            half_span = (grid[-1] - grid[0]) / 2.0
            errors.append(abs(fit.t_hat - t_nominal))
        rmse = float(np.sqrt(np.mean(np.square(errors))))
        assert abs(rmse - half_span) <= 0.10 * half_span


class TestCriterion08IntervalFitRecovery:
    def test_criterion_08_piecewise_fit_recovers_switched_weights(self, two_phase_cache):
        """J=1 averages to BA weight 0.5 +- 0.1; J=2 recovers each phase within
        +- 0.1; c0 alternates between even and odd J."""
        fits = gf.scan_interval_counts(two_phase_cache, jmin=1, jmax=8)
        by_j = {fit.num_intervals: fit for fit in fits}
        assert by_j[1].intervals[0]["weights"][0] == pytest.approx(0.5, abs=0.1)
        first, second = (iv["weights"][0] for iv in by_j[2].intervals)
        assert first == pytest.approx(0.29, abs=0.1)
        assert second == pytest.approx(0.69, abs=0.1)
        for j in range(2, 9):
            went_up = by_j[j].c0 > by_j[j - 1].c0
            assert went_up == (j % 2 == 0), (j, by_j[j].c0, by_j[j - 1].c0)


class TestCriterion09WilksSignificance:
    def test_criterion_09_nested_model_test_separates_real_and_null_changes(
        self, two_phase_cache
    ):
        """J=2 over J=1 is significant (p < 1e-4) on the switched stream; on
        changeless streams p > 0.01 in >= 8/10 seeds; tails match quadrature."""
        fits = gf.scan_interval_counts(two_phase_cache, jmin=1, jmax=2)
        report = gf.compare_interval_fits(fits[0], fits[1])
        assert report.p_value < 1e-4

        recipe = gf.GrowthRecipe.constant(
            "0.3*BA + 0.7*RAND", increments=3000, new_targets=3, seed_clique=5
        )
        null_ps = []
        for seed in range(10):
            cache = gf.build_choice_cache(gf.grow(recipe, seed=seed), [BA, RAND])
            null_ps.append(
                gf.compare_interval_fits(
                    gf.fit_intervals(cache, j=1), gf.fit_intervals(cache, j=2)
                ).p_value
            )
        assert sum(p > 0.01 for p in null_ps) >= 8, null_ps

        from oracles import oracle_chi2_sf

        rng = np.random.default_rng(17)
        for _ in range(40):
            df = int(rng.integers(1, 12))
            stat = float(rng.uniform(0.0, 8.0 * df))
            assert gf.chi_square_sf(stat, df) == pytest.approx(
                oracle_chi2_sf(stat, df), abs=1e-6
            )


class TestCriterion10OrderingSampler:
    def test_criterion_10_sampled_star_probability_is_unbiased(self, monkeypatch):
        """Six-target star: mean of 10,000 sampled evaluations within 3 SE of
        the exhaustive 720-ordering value."""
        edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                 (6, 7), (7, 8), (8, 9), (1, 5), (2, 7), (3, 9), (0, 9), (4, 8)]
        graph = gf.graph_from_edges(edges)
        inc = gf.Increment(10, 10, True, (0, 2, 4, 5, 7, 9), (False,) * 6)
        schedule = gf.MixtureInterval.single(gf.DegreePower(1.0))
        monkeypatch.setattr(likelihood, "MAX_EXHAUSTIVE_CHOICES", 6)
        exact = gf.increment_probability(graph, inc, schedule)
        monkeypatch.setattr(likelihood, "MAX_EXHAUSTIVE_CHOICES", 5)
        samples = np.array([
            gf.increment_probability(graph, inc, schedule, seed=k)
            for k in range(10000)
        ])
        stderr = samples.std(ddof=1) / np.sqrt(len(samples))
        assert abs(samples.mean() - exact) <= 3.0 * stderr


class TestCriterion11GeneratorDistributions:
    def test_criterion_11_sampler_frequencies_match_exact_probabilities(self):
        """Chi-square at 0.001 for all four component models on 10 graphs."""
        rng = np.random.default_rng(2026)
        graphs = []
        for _ in range(10):
            n = int(rng.integers(8, 31))
            p = float(rng.uniform(0.15, 0.5))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p]
            graphs.append(gf.graph_from_edges(edges or [(0, 1)], num_nodes=n))
        models = [
            (gf.Random(), False),
            (gf.DegreePower(1.0), False),
            (gf.RankPreference(0.5), False),
            (gf.TriangleClosure(), True),
        ]
        for gi, graph in enumerate(graphs):
            for model, needs_anchor in models:
                anchor = int(np.argmax(graph.degrees)) if needs_anchor else None
                excluded = {anchor} if anchor is not None else set()
                eligible = [v for v in range(graph.num_nodes) if v not in excluded]
                counts = gf.sample_choice_frequencies(
                    graph, model, 10000, seed=100 * gi + 7,
                    anchor=anchor, excluded=excluded,
                )
                probs = gf.node_probabilities(
                    gf.MixtureInterval.single(model), 0, graph, eligible,
                    anchor=anchor,
                )
                expected = probs * counts[eligible].sum()
                mask = expected > 0
                assert counts[eligible][~mask].sum() == 0
                stat = float(np.sum(
                    (counts[eligible][mask] - expected[mask]) ** 2 / expected[mask]
                ))
                p_value = gf.chi_square_sf(stat, int(mask.sum()) - 1)
                assert p_value > 0.001, (gi, type(model).__name__, p_value)


class TestLargeScalePipeline:
    def test_full_ingest_and_ten_interval_fit_on_100k_edges_under_30_min(
        self, tmp_path
    ):
        """A 1e5-edge TSV round-trips through ingest and completes a
        three-component J=10 fit well inside the 30-minute budget."""
        start = time.monotonic()
        recipe = gf.GrowthRecipe.constant(
            "0.4*BA + 0.3*TRI + 0.3*RAND", increments=33336, new_targets=3,
        )
        stream = gf.grow(recipe, seed=1)
        path = tmp_path / "large.tsv"
        gf.write_edge_file(path, gf.stream_edge_records(stream))

        ingested, report = gf.ingest_edge_file(path)
        assert report.kept >= 100_000
        components = [BA, gf.parse_component("TRI"), RAND]
        cache = gf.build_choice_cache(ingested, components)
        fit = gf.fit_intervals(cache, j=10)
        elapsed = time.monotonic() - start

        assert fit.num_intervals == 10
        assert np.isfinite(fit.loglik)
        assert fit.c0 > 1.0
        assert elapsed < 1800.0, f"pipeline took {elapsed:.0f}s"

        # Scoring the whole stream directly holds one slab, not the stream's
        # 33k rows x 256 lattice values (68 MB).
        _, peak, _ = traced_peak(lambda: gf.cache_loglik(cache, gf.simplex_grid(3, 0.01)))
        assert peak < 4e6
