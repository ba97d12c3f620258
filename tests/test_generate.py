"""Tests for the growth generator and its samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growthfit as gf
from growthfit.generate import (
    SORTED_BASE,
    MixtureSampler,
    _EndpointListSampler,
    _Excluded,
    _VectorSampler,
    _WedgeSampler,
    sample_choice_frequencies,
)
from growthfit.models import degree_power_weight
from growthfit.stream import extract_operation_schedule


def chi_square_stat(counts, probs):
    expected = probs * counts.sum()
    mask = expected > 0
    assert counts[~mask].sum() == 0, "draws landed on zero-probability nodes"
    return float(((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum()), int(
        mask.sum() - 1
    )


class TestGrowthRecipe:
    def test_json_round_trip(self):
        recipe = gf.GrowthRecipe.two_phase(
            "0.3*BA + 0.7*RAND", "BA", 99.0, increments=200, new_targets=2,
            internal_prob=0.1, internal_targets=1, seed_clique=5,
        )
        assert gf.GrowthRecipe.from_json(recipe.to_json()) == recipe

    def test_seed_defaults_to_one_more_than_star_size(self):
        assert gf.GrowthRecipe.constant("BA", new_targets=4).seed_size() == 5
        assert gf.GrowthRecipe.constant("BA", new_targets=3, seed_clique=9).seed_size() == 9

    def test_bad_spec_fails_at_construction(self):
        with pytest.raises(gf.ModelSpecError):
            gf.GrowthRecipe.constant("0.5*BA + 0.6*RAND").schedule()


class TestGrow:
    def test_same_seed_reproduces_stream(self):
        recipe = gf.GrowthRecipe.constant(
            "0.5*BA + 0.5*RAND", increments=120, new_targets=3,
            internal_prob=0.2, internal_targets=2, seed_clique=6,
        )
        a = gf.grow(recipe, seed=7)
        b = gf.grow(recipe, seed=7)
        c = gf.grow(recipe, seed=8)
        assert a.increments == b.increments
        assert a.increments != c.increments

    def test_external_star_shape(self):
        stream = gf.grow(gf.GrowthRecipe.constant("BA", increments=50, new_targets=3), seed=0)
        for inc in stream.increments:
            assert inc.center_is_new
            assert len(inc.existing_targets) == 3
        final = stream.final_graph()
        assert final.num_nodes == 4 + 50
        assert final.edge_count == 6 + 150

    def test_timestamps_are_increment_indices(self):
        stream = gf.grow(gf.GrowthRecipe.constant("RAND", increments=30, new_targets=2), seed=0)
        assert [inc.timestamp for inc in stream.increments] == list(range(30))

    def test_internal_stars_appear_and_are_valid(self):
        stream = gf.grow(
            gf.GrowthRecipe.constant(
                "RAND", increments=200, new_targets=2, internal_prob=0.3,
                internal_targets=2, seed_clique=5,
            ),
            seed=1,
        )
        internals = [i for i in stream.increments if not i.center_is_new]
        assert internals, "expected internal stars at 30% draw rate"
        stream.final_graph().check_invariants()

    def test_infeasible_internal_becomes_external_on_clique(self):
        # a growth run drawing internal stars on the seed clique cannot host
        # them (every node is adjacent to every other), so they fall back to
        # external stars instead of stalling
        recipe = gf.GrowthRecipe.constant(
            "RAND", increments=3, new_targets=2, internal_prob=1.0,
            internal_targets=1, seed_clique=5,
        )
        stream = gf.grow(recipe, seed=3)
        assert stream.increments[0].center_is_new

    def test_replayed_infeasible_shape_raises(self):
        donor = gf.grow(
            gf.GrowthRecipe.constant(
                "RAND", increments=5, new_targets=2, internal_prob=0.4,
                internal_targets=1, seed_clique=8,
            ),
            seed=5,
        )
        ops = extract_operation_schedule(donor)
        internal_rows = [r for r in ops.rows if not r.center_new]
        assert internal_rows, "donor run should contain an internal star"
        # replay onto a recipe whose seed clique is complete and too small
        # to ever host the internal star
        tiny = gf.GrowthRecipe.constant("RAND", seed_clique=2)
        from growthfit.stream import OperationSchedule

        with pytest.raises(gf.GrowthStallError):
            gf.grow(tiny, seed=0, op_schedule=OperationSchedule(rows=internal_rows))

    def test_two_phase_switch_changes_mechanism(self):
        recipe = gf.GrowthRecipe.two_phase("RAND", "DP(2.0)", 499.0, increments=1000,
                                           new_targets=2)
        stream = gf.grow(recipe, seed=2)
        pre = gf.fit_dp_changepoint(stream, 0.0, 2.0)
        assert abs(pre.t_hat - 499.0) <= 100.0


class TestSamplerDistributions:
    """Empirical draw frequencies against the model probability vectors."""

    def frozen_graph(self):
        return gf.grow(
            gf.GrowthRecipe.constant("0.5*BA + 0.5*RAND", increments=60, new_targets=3),
            seed=9,
        ).final_graph()

    def check_model(self, model, anchor=None, draws=20000):
        graph = self.frozen_graph()
        # an anchor is never itself eligible (it is the star's center or an
        # already-chosen target), so exclude it like real growth does
        excluded = set() if anchor is None else {anchor}
        eligible = [v for v in range(graph.num_nodes) if v not in excluded]
        counts = sample_choice_frequencies(
            graph, model, draws, seed=11, anchor=anchor, excluded=excluded
        )
        assert counts[sorted(excluded)].sum() == 0 if excluded else True
        mix = model if isinstance(model, gf.MixtureInterval) else gf.MixtureInterval.single(model)
        probs = gf.node_probabilities(mix, 0, graph, eligible, anchor=anchor)
        stat, df = chi_square_stat(counts[eligible], probs)
        assert gf.chi_square_sf(stat, df) > 0.001

    def test_uniform_sampler(self):
        self.check_model(gf.Random())

    def test_linear_degree_sampler(self):
        self.check_model(gf.DegreePower(1.0))

    def test_superlinear_degree_sampler(self):
        self.check_model(gf.DegreePower(1.6))

    def test_rank_sampler(self):
        self.check_model(gf.RankPreference(1.0))

    def test_triangle_sampler_with_anchor(self):
        self.check_model(gf.TriangleClosure(), anchor=0)

    def test_mixture_sampler(self):
        mix = gf.MixtureInterval(
            (0.4, 0.6), (gf.DegreePower(1.0), gf.Random())
        )
        self.check_model(mix)

    def test_zero_probability_nodes_never_drawn(self):
        graph = gf.graph_from_edges([(0, 1), (1, 2)], num_nodes=5)
        counts = sample_choice_frequencies(graph, gf.DegreePower(1.0), 4000, seed=3)
        assert counts[3] == 0 and counts[4] == 0

    def test_excluded_nodes_never_drawn(self):
        graph = self.frozen_graph()
        counts = sample_choice_frequencies(
            graph, gf.Random(), 2000, seed=4, excluded={0, 1, 2}
        )
        assert counts[:3].sum() == 0


class TestUnknownNodes:
    """Ids outside the graph fail with a typed error naming the id."""

    GRAPH_EDGES = [(0, 1), (1, 2)]

    @pytest.mark.parametrize(
        "model",
        [gf.Random(), gf.DegreePower(1.0), gf.DegreePower(1.5), gf.RankPreference(0.5),
         gf.TriangleClosure()],
        ids=repr,
    )
    def test_excluded_id_outside_graph(self, model):
        graph = gf.graph_from_edges(self.GRAPH_EDGES, num_nodes=3)
        with pytest.raises(gf.UnknownNodeError, match="7"):
            sample_choice_frequencies(graph, model, 10, seed=0, excluded={0, 1, 7})

    @pytest.mark.parametrize("anchor", [-1, 3])
    def test_anchor_outside_graph(self, anchor):
        graph = gf.graph_from_edges(self.GRAPH_EDGES, num_nodes=3)
        with pytest.raises(gf.UnknownNodeError, match=str(anchor)):
            sample_choice_frequencies(graph, gf.TriangleClosure(), 10, seed=0, anchor=anchor)


def fenwick_prefix(tree, i):
    """Sum of the first ``i`` weights read off a 1-based Fenwick tree."""
    total = 0.0
    while i > 0:
        total += tree[i]
        i -= i & -i
    return total


class _FixedUniform:
    """Stands in for the generator: ``random`` returns ``u``; ``integers`` is counted."""

    def __init__(self, u, fallback):
        self.u = u
        self.fallback = fallback
        self.uniform_calls = 0

    def random(self):
        return self.u

    def integers(self, n):
        self.uniform_calls += 1
        return self.fallback


@st.composite
def weighted_draws(draw):
    """Sampler weights (some updated by point deltas), an exclusion and a uniform."""
    n = draw(st.integers(1, 160))
    kind = draw(st.sampled_from(["DP", "RP"]))
    alpha = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.5, 2.0]))
    if kind == "DP":
        degrees = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
        weights = [degree_power_weight(k, alpha) for k in degrees]
    else:
        weights = [float(v + 1) ** -alpha for v in range(n)]
    # later weights for a few nodes, applied to the built tree as point updates
    degrees = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 60), max_size=8))
    updates = {v: degree_power_weight(k, alpha) for v, k in degrees.items()}
    # exclusions from a few nodes, through about half, to all but a few
    mode = draw(st.sampled_from(["few", "half", "most"]))
    if mode == "few":
        excluded = draw(st.sets(st.integers(0, n - 1), max_size=min(4, n - 1)))
    elif mode == "half":
        mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        excluded = {v for v, out in enumerate(mask) if out} - {draw(st.integers(0, n - 1))}
    else:
        kept = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4))
        excluded = set(range(n)) - kept
    chosen = draw(st.sets(st.sampled_from(sorted(excluded)), max_size=3)) if excluded else set()
    u = draw(st.floats(0.0, 1.0, exclude_max=True))
    return weights, updates, excluded, chosen, u


class TestVectorDraws:
    """Fenwick-tree draws against the dense cumsum / searchsorted reference."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=weighted_draws())
    def test_tree_draw_matches_dense_reference(self, case):
        weights, updates, excluded, chosen, u = case
        n = len(weights)
        current = list(weights)
        graph = gf.graph_from_edges([], num_nodes=n)
        eligible = [v for v in range(n) if v not in excluded]
        rng = _FixedUniform(u, fallback=eligible[0])
        sampler = _VectorSampler(graph, rng, lambda v: current[v])
        if updates:
            for v, w in updates.items():
                current[v] = w
            touched = list(updates)
            sampler.catch_up([gf.Increment(0, touched[0], False, tuple(touched[1:]),
                                           (False,) * (len(touched) - 1))])
        assert sampler.weights[:n].tolist() == current
        # as a star's target draws see it: a fixed base plus chosen targets
        base, chosen = excluded - chosen, sorted(chosen)
        exclusion = _Excluded(base, chosen) if len(base) > SORTED_BASE else set(base)
        exclusion.update(chosen)
        got = sampler.sample(exclusion, None, False)

        dense = np.array(current)
        dense[sorted(excluded)] = 0.0
        cs = np.cumsum(dense)
        if cs[-1] <= 0.0:
            assert rng.uniform_calls > 0 and got == eligible[0]
            return
        assert rng.uniform_calls == 0
        assert got not in excluded and current[got] > 0.0
        assert got == int(np.searchsorted(cs, u * cs[-1], side="right"))

    def test_fallback_reads_an_exact_count_not_a_float_total(self):
        # Every node with an edge is excluded, and the isolated node 7 has
        # weight 0 under DP(0.5), so every draw must fall back to uniform.
        # The tree total less the excluded prefix sum is 1.8e-15 here, not 0.
        edges = [(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (3, 6), (4, 5), (5, 6)]
        graph = gf.graph_from_edges(edges, num_nodes=8)
        counts = sample_choice_frequencies(
            graph, gf.DegreePower(0.5), 50, seed=0, excluded=set(range(7))
        )
        assert counts[7] == 50


class TestSamplerState:
    """Samplers caught up increment by increment hold what a fresh build reads off the graph."""

    SPEC = "0.2*DP(0.5) + 0.2*DP(0) + 0.2*RP(0.5) + 0.2*BA + 0.2*TRI"

    def assert_same_state(self, grown, fresh, graph):
        n = graph.num_nodes
        endpoints = sorted(x for edge in graph.edges() for x in edge)
        for comp, a in grown._samplers.items():
            b = fresh._samplers[comp]
            if isinstance(a, _VectorSampler):
                assert np.array_equal(a.weights[:n], b.weights[:n]), comp
                assert a.positive == b.positive == np.count_nonzero(a.weights[:n])
                # tree prefix sums agree with a sequential cumsum of the weights
                prefix = [fenwick_prefix(a.tree, i) for i in range(1, a.capacity + 1)]
                np.testing.assert_allclose(prefix, np.cumsum(a.weights), rtol=1e-12, atol=0)
            elif isinstance(a, _WedgeSampler):
                for v in range(n):
                    block = a.pool[a.start[v] : a.start[v] + a.size[v]].tolist()
                    assert sorted(block) == sorted(graph.adj[v]), v
            else:
                assert isinstance(a, _EndpointListSampler)
                assert sorted(a.endpoints) == endpoints

    def test_state_after_each_increment_matches_fresh_build(self):
        # external and internal stars, each with existing and new targets
        rows = [
            gf.OperationRow(t, t % 3 != 2, 1 + t % 2, 1 + t % 3 if t % 3 != 2 else 2)
            for t in range(60)
        ]
        recipe = gf.GrowthRecipe.constant(self.SPEC, seed_clique=5)
        stream = gf.grow(recipe, seed=6, op_schedule=gf.OperationSchedule(rows))
        assert any(not inc.center_is_new and inc.new_nodes for inc in stream.increments)
        # no draws are made, so the samplers need no generator
        schedule = recipe.schedule()
        graph = stream.seed_graph()
        grown = MixtureSampler(graph, schedule, None)
        capacities = set()
        for inc in stream.increments:
            gf.apply_increment(graph, inc)
            grown.on_applied(inc)
            grown.catch_up()
            capacities.add(grown._samplers[gf.DegreePower(0.5)].capacity)
            self.assert_same_state(grown, MixtureSampler(graph, schedule, None), graph)
        # the replay crosses capacity doublings, where the tree is rebuilt
        assert len(capacities) >= 3

    def test_updates_wait_for_the_next_draw(self):
        # a component the interval does not draw from reads nothing until it
        # draws or is caught up, and then matches a fresh build
        stream = gf.grow(gf.GrowthRecipe.constant("BA", increments=40, new_targets=2), seed=4)
        graph = stream.seed_graph()
        schedule = gf.GrowthRecipe.constant("0.5*DP(1.5) + 0.5*RP(0.5)").schedule()
        sampler = MixtureSampler(graph, schedule, np.random.default_rng(0))
        only_rp = gf.MixtureInterval.single(gf.RankPreference(0.5))
        for inc in stream.increments:
            gf.apply_increment(graph, inc)
            sampler.on_applied(inc)
            sampler.draw(only_rp, set(), None)
        dp = sampler._samplers[gf.DegreePower(1.5)]
        rp = sampler._samplers[gf.RankPreference(0.5)]
        assert np.count_nonzero(dp.weights) == 3
        assert np.count_nonzero(rp.weights) == graph.num_nodes
        sampler.catch_up()
        fresh = MixtureSampler(graph, schedule, None)
        self.assert_same_state(sampler, fresh, graph)

    def test_degree_zero_weights(self):
        # node 2 is isolated: weight 1 under DP(0), 0 under DP(0.5)
        graph = gf.graph_from_edges([(0, 1)], num_nodes=3)
        sampler = MixtureSampler(graph, gf.GrowthRecipe.constant(self.SPEC).schedule(), None)
        weights = {c: s.weights[:3].tolist() for c, s in sampler._samplers.items()
                   if isinstance(s, _VectorSampler)}
        assert weights[gf.DegreePower(0.0)] == [1.0, 1.0, 1.0]
        assert weights[gf.DegreePower(0.5)] == [1.0, 1.0, 0.0]
        assert weights[gf.RankPreference(0.5)] == [1.0, 2.0**-0.5, 3.0**-0.5]
