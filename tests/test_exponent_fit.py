"""Exponent fits by certified bisection: the log-concavity they rest on, the full scan they keep.

Under one degree-power or rank-preference component a star's log-probability
is concave in the exponent, so ``fit_component_family`` finds the first grid
maximum from O(log G) scored points and certifies it.  These tests check the
concavity against brute force, and that every fit, fast or not, returns the
full scan's value, log-likelihood and profile bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import growthfit as gf
from growthfit import estimation, likelihood
from oracles import oracle_increment_probability

MAX_AMPLIFICATION = 2.0**20
FAMILIES = {"DP": gf.DegreePower, "RP": gf.RankPreference}


def point_score(trace, comp):
    """One grid point as the full scan scores it: the log-likelihood under ``comp`` alone."""
    return float(likelihood._trace_logp(trace, [comp], [1.0], count_fallbacks=False)[0].sum())


def full_scan(trace, family, grid):
    """Every grid point's score, in grid order."""
    return np.array([point_score(trace, family(float(a))) for a in grid])


def assert_full_scan(fit, trace, family, grid):
    """``fit`` holds the full scan's first maximum, its score and the whole profile, bit for bit."""
    full = full_scan(trace, family, grid)
    best = int(np.argmax(full))
    assert np.float64(fit.value).tobytes() == np.float64(grid[best]).tobytes()
    assert np.float64(fit.loglik).tobytes() == full[best].tobytes()
    assert fit.loglik_rand == float(trace.logp_rand.sum())
    assert fit.total_choices == trace.total_choices
    assert fit.logliks.tobytes() == full.tobytes()


@pytest.fixture
def scored(monkeypatch):
    """The exponents the fits score, in call order, by wrapping the per-point scorer."""
    alphas = []
    score = estimation._point_loglik

    def counted(trace, comp):
        alphas.append(comp.alpha)
        return score(trace, comp)

    monkeypatch.setattr(estimation, "_point_loglik", counted)
    return alphas


# ---------------------------------------------------------------------------
# the theorem: per-star log-probability is concave in the exponent
# ---------------------------------------------------------------------------


def hub_star(hubs, q, internal, picks):
    """A stream of one star onto q existing nodes of a seed graph with hubs of the given degrees.

    Nodes 0 .. H - 1 are the hubs, the oldest, so they dominate under a
    positive degree or rank exponent; nodes H .. H + 4 a path hanging off
    hub 0; the rest are leaves, leaf j a neighbour of every hub of degree
    above j.  The center is new, or an existing hub or path node, and the
    targets come from the hubs, the path and the first six leaves, as
    ``picks`` (integers) index what is eligible.
    """
    h = len(hubs)
    path = list(range(h, h + 5))
    leaves = h + 5 + np.arange(max(hubs))
    edges = [(a, int(leaves[j])) for a, d in enumerate(hubs) for j in range(d)]
    edges += [(0, path[0])] + list(zip(path, path[1:]))
    graph = gf.graph_from_edges(edges)
    pool = list(range(h)) + path + [int(x) for x in leaves[:6]]
    if internal:
        center = pool[picks[0] % (h + 5)]
        pool = [v for v in pool if v != center and v not in graph.neighbors(center)]
    else:
        center = graph.num_nodes
    assume(len(pool) >= q)
    targets = []
    for pick in picks[1 : q + 1]:
        targets.append(pool.pop(pick % len(pool)))
    star = gf.Increment(0, center, not internal, tuple(targets), (False,) * q)
    return gf.GrowthStream(edges, [star]), graph.num_nodes, edges


class TestLogConcavity:
    """P(S) of a star is an exponential race won by S: log-concave in the exponent (Prékopa)."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        hubs=st.lists(st.integers(1, 5000), min_size=1, max_size=3),
        q=st.integers(1, 6),
        internal=st.booleans(),
        picks=st.lists(st.integers(0, 2**16), min_size=7, max_size=7),
        at=st.integers(1, 198),
    )
    def test_star_log_probability_is_concave(self, family, hubs, q, internal, picks, at):
        stream, num_nodes, edges = hub_star(hubs, q, internal, picks)
        trace = gf.build_dp_trace(stream)
        assert not trace.sampled.any()
        make = FAMILIES[family]
        grid = np.round(np.arange(-50, 150) * 0.02, 10) if family == "DP" else np.round(
            np.arange(1, 201) * 0.02, 10
        )
        logp = np.array([point_score(trace, make(float(a))) for a in grid])
        amp = np.array([likelihood._subset_amplification(trace, make(float(a))) for a in grid])
        assert np.isfinite(logp).all()
        # the scores the fast fit trusts are the oracle's
        if amp[at] <= MAX_AMPLIFICATION:
            inc = stream.increments[0]
            spec = (family.lower(), float(grid[at]))
            expect = math.log(
                oracle_increment_probability(
                    num_nodes, edges, inc.center, inc.center_is_new,
                    list(zip(inc.targets, inc.targets_new)), [(1.0, spec)],
                )
            )
            assert abs(logp[at] - expect) <= 1e-9 * max(1.0, abs(expect))
        # and they are concave wherever they are that accurate
        trusted = (amp[:-2] <= MAX_AMPLIFICATION) & (amp[1:-1] <= MAX_AMPLIFICATION)
        trusted &= amp[2:] <= MAX_AMPLIFICATION
        second = logp[2:] - 2.0 * logp[1:-1] + logp[:-2]
        bound = 1e-9 * np.maximum(1.0, np.abs(logp[1:-1]))
        assert (second[trusted] <= bound[trusted]).all()

    def test_sampled_estimate_is_not_concave(self, scored):
        # Eight targets are more than MAX_EXHAUSTIVE_CHOICES choices, so the
        # star is scored from 120 drawn orderings; a sum over some of the
        # orderings is no exponential race, and its log need not be concave.
        hubs = [2154, 2835, 4120]
        leaves = 3 + np.arange(max(hubs))
        edges = [(a, int(leaves[j])) for a, d in enumerate(hubs) for j in range(d)]
        targets = (58, 1916, 390, 2562, 1, 2, 0, 92)
        star = gf.Increment(0, 3 + max(hubs), True, targets, (False,) * 8)
        trace = gf.build_dp_trace(gf.GrowthStream(edges, [star]))
        assert trace.sampled.all()
        grid = np.round(np.arange(100, 171) * 0.01, 10)
        logp = full_scan(trace, gf.DegreePower, grid)
        assert max(likelihood._subset_amplification(trace, gf.DegreePower(a)) for a in grid) < 200
        second = logp[2:] - 2.0 * logp[1:-1] + logp[:-2]
        assert second.max() > 1e-4
        # so a trace with a sampled star keeps the full scan
        scored.clear()
        assert_full_scan(gf.fit_degree_exponent(trace, grid), trace, gf.DegreePower, grid)
        assert len(scored) == len(grid)


# ---------------------------------------------------------------------------
# the fast fit returns the full scan's answer
# ---------------------------------------------------------------------------


def grown(model, seed, increments=40):
    recipe = gf.GrowthRecipe.constant(
        model, increments=increments, new_targets=2, internal_prob=0.3,
        internal_targets=2, seed_clique=4,
    )
    return gf.grow(recipe, seed=seed)


class TestFastFitIsTheFullScan:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        model=st.sampled_from(["DP(0.5)", "DP(1.8)", "RP(0.7)", "RP(2.0)", "0.5*BA + 0.5*RAND"]),
        family=st.sampled_from(sorted(FAMILIES)),
        start=st.integers(-40, 60),
        step=st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.5]),
        size=st.integers(1, 40),
    )
    def test_random_streams_and_grids(self, seed, model, family, start, step, size):
        stream = grown(model, seed)
        trace = gf.build_dp_trace(stream)
        make = FAMILIES[family]
        lo = start * 0.05 if family == "DP" else 0.05 + abs(start) * 0.05
        grid = np.round(lo + np.arange(size) * step, 10)
        assert_full_scan(gf.fit_component_family(trace, make, grid), trace, make, grid)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize(
        "grid",
        [[1.0], [0.5, 1.5], [0.2, 0.9, 1.6], [0.02, 0.03, 0.04, 0.05], [2.5, 3.0, 3.5, 4.0]],
        ids=["one", "two", "three", "optimum-at-end", "optimum-at-start"],
    )
    def test_small_grids_and_optimum_at_either_end(self, family, grid, scored):
        stream = grown("0.5*DP(1.0) + 0.5*RP(0.8)", seed=4, increments=120)
        trace = gf.build_dp_trace(stream)
        make = FAMILIES[family]
        fit = gf.fit_component_family(trace, make, grid)
        assert len(scored) == len(set(scored))  # no point is scored twice
        assert_full_scan(fit, trace, make, grid)
        if len(grid) == 4:
            assert fit.value == (grid[-1] if grid[0] < 1.0 else grid[0])

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_flat_profile(self, family, scored):
        # every star takes every eligible node, so each has probability 1 at
        # every exponent and the profile is 0 up to rounding: the window
        # grows over the whole grid, and the first maximum of the rounding wins
        stars = [
            gf.Increment(t, t + 2, True, tuple(range(t + 2)), (False,) * (t + 2)) for t in range(4)
        ]
        stream = gf.GrowthStream([(0, 1)], stars)
        trace = gf.build_dp_trace(stream)
        make = FAMILIES[family]
        grid = np.round(np.arange(1, 31) * 0.1, 10)
        assert np.abs(full_scan(trace, make, grid)).max() < 1e-12
        scored.clear()
        fit = gf.fit_component_family(trace, make, grid)
        assert len(scored) == len(grid)
        assert_full_scan(fit, trace, make, grid)

    def test_grow_scan_sized_stream_scores_few_points(self, scored):
        # the perfbench grow-scan stream: 20,000 increments of a two-phase
        # DP/RP/TRI mixture, no sampled star
        recipe = gf.GrowthRecipe.two_phase(
            "0.4*DP(0.5) + 0.3*RP(0.5) + 0.3*TRI",
            "0.4*DP(1.5) + 0.3*RP(0.5) + 0.3*TRI",
            9999.0, increments=20_000, internal_prob=0.2,
        )
        trace = gf.build_dp_trace(gf.grow(recipe, seed=1))
        grid = estimation.default_alpha_grid()
        scored.clear()
        fit = gf.fit_degree_exponent(trace)
        points = len(set(scored))
        assert points == len(scored)  # no point is scored twice
        # the window: the points within the margin of the best, one more each side
        profile = fit.logliks
        best = int(np.argmax(profile))
        near = profile >= profile[best] - 1e-9 * abs(profile[best])
        lo = hi = best
        while lo > 0 and near[lo - 1]:
            lo -= 1
        while hi < len(grid) - 1 and near[hi + 1]:
            hi += 1
        window = min(hi + 1, len(grid) - 1) - max(lo - 1, 0) + 1
        assert points <= 2 * math.ceil(math.log2(len(grid))) + window
        assert (fit.value, fit.loglik) == (0.97, -470514.4863894157)
        assert_full_scan(fit, trace, gf.DegreePower, grid)


class TestFallbacksAreTheFullScan:
    """Where the fast fit cannot vouch for its answer it scores every point, as before."""

    def test_repeated_zero(self, scored):
        stream = grown("RAND", seed=3)
        trace = gf.build_dp_trace(stream)
        grid = np.array([0.0, -0.0])
        fit = gf.fit_degree_exponent(trace, grid)
        assert len(scored) == 2 and fit.value == 0.0
        assert_full_scan(fit, trace, gf.DegreePower, grid)

    def test_unsorted_grid(self, scored):
        trace = gf.build_dp_trace(grown("DP(1.0)", seed=5))
        grid = [1.5, 0.5, 1.0, 0.0]
        fit = gf.fit_degree_exponent(trace, grid)
        assert len(scored) == 4
        assert_full_scan(fit, trace, gf.DegreePower, np.array(grid))

    def test_sampled_stars(self, scored, monkeypatch):
        monkeypatch.setattr(likelihood, "MAX_EXHAUSTIVE_CHOICES", 2)
        trace = gf.build_dp_trace(grown("DP(1.0)", seed=6))
        assert trace.sampled.any()
        grid = np.round(np.arange(0, 21) * 0.1, 10)
        fit = gf.fit_degree_exponent(trace, grid)
        assert len(scored) == len(grid)
        assert_full_scan(fit, trace, gf.DegreePower, grid)

    @pytest.mark.parametrize("isolated", ["seed node", "empty star"])
    def test_node_of_degree_zero(self, scored, isolated):
        # A node of degree 0 weighs 1 at exponent 0 and 0 at any other, so the
        # profile is not concave across 0.  Node 3 is left out of the seed
        # edges, or a first star with no targets adds a node of degree 0;
        # later stars take nodes of positive degree only.
        seed_edges = [(0, 1), (1, 2)]
        if isolated == "seed node":
            seed_edges += [(0, 2), (2, 4)]
        graph = gf.graph_from_edges(seed_edges)
        stars = [] if isolated == "seed node" else [gf.Increment(0, graph.num_nodes, True, (), ())]
        for star in stars:
            gf.apply_increment(graph, star)
        rng = np.random.default_rng(7)
        for t in range(1, 30):
            linked = [v for v in range(graph.num_nodes) if graph.degrees[v] > 0]
            targets = tuple(int(v) for v in rng.choice(linked, size=2, replace=False))
            stars.append(gf.Increment(t, graph.num_nodes, True, targets, (False, False)))
            gf.apply_increment(graph, stars[-1])
        trace = gf.build_dp_trace(gf.GrowthStream(seed_edges, stars))
        assert trace.h0[0] == (isolated == "seed node")
        grid = np.round(np.arange(-5, 16) * 0.1, 10)
        fit = gf.fit_degree_exponent(trace, grid)
        assert len(scored) == len(grid)
        assert_full_scan(fit, trace, gf.DegreePower, grid)

    def test_lambda_family(self, scored):
        trace = gf.build_dp_trace(grown("DP(1.0)", seed=8))
        grid = np.round(np.arange(0, 21) * 0.1, 10)
        fit = gf.fit_component_family(trace, lambda a: gf.DegreePower(a), grid)
        assert len(scored) == len(grid)
        assert_full_scan(fit, trace, gf.DegreePower, grid)

    def test_overflowing_endpoint_names_the_first_failing_exponent(self, scored):
        # a node reaches degree 279, and 279**130 overflows float64
        recipe = gf.GrowthRecipe.constant("0.5*DP(1.5) + 0.5*RAND", increments=2000)
        trace = gf.build_dp_trace(gf.grow(recipe, seed=1))
        with pytest.raises(
            gf.DegenerateModelError,
            match=r"^degree-power exponent 130\.0: the weight of the largest degree, 279, "
            r"overflows float64$",
        ):
            gf.fit_degree_exponent(trace, [100.0, 110.0, 120.0, 130.0, 140.0])
        assert scored == [100.0, 110.0, 120.0, 130.0]

    def test_rank_cancellation(self, scored, monkeypatch):
        # At rank exponents near 14 the oldest nodes hold nearly all the
        # weight, and a subset total that is the base less the targets taken
        # keeps few correct bits: the computed profile dips in the middle of
        # this grid.  Bisection alone would return its last point.
        recipe = gf.GrowthRecipe.constant(
            "RP(2.0)", increments=25, new_targets=3, internal_prob=0.5,
            internal_targets=3, seed_clique=4,
        )
        trace = gf.build_dp_trace(gf.grow(recipe, seed=0))
        grid = np.array([13.7, 13.75, 13.8])
        profile = full_scan(trace, gf.RankPreference, grid)
        assert profile[1] < profile[2] < profile[0]
        assert likelihood._subset_amplification(trace, gf.RankPreference(13.7)) > MAX_AMPLIFICATION
        fit = gf.fit_component_family(trace, gf.RankPreference, grid)
        assert fit.value == 13.7 and len(scored) == 3
        assert_full_scan(fit, trace, gf.RankPreference, grid)
        monkeypatch.setattr(estimation, "_MAX_AMPLIFICATION", math.inf)
        assert gf.fit_component_family(trace, gf.RankPreference, grid).value == 13.8

    def test_logliks_are_scored_on_first_read(self, scored):
        trace = gf.build_dp_trace(grown("DP(1.2)", seed=9, increments=200))
        grid = estimation.default_alpha_grid()
        fit = gf.fit_degree_exponent(trace, grid)
        few = len(scored)
        assert few < len(grid)
        profile = fit.logliks
        assert len(scored) == len(grid)  # each point once: the fit's are reused
        assert fit.logliks is profile
        assert_full_scan(fit, trace, gf.DegreePower, grid)
