"""Tests for the growth generator and its samplers."""

import hashlib
import json
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import growthfit as gf
from growthfit.generate import (
    SORTED_BASE,
    MixtureSampler,
    _EndpointListSampler,
    _Excluded,
    _GraphState,
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

    @pytest.mark.parametrize(
        "field, value",
        [("boundary_mode", "indx"), ("increments", -3), ("new_targets", -1),
         ("internal_targets", -2), ("seed_clique", -1), ("internal_prob", -0.1),
         ("internal_prob", 1.5), ("internal_prob", float("nan"))],
    )
    def test_bad_field_is_a_model_error_naming_it(self, field, value):
        with pytest.raises(gf.ModelError, match=field):
            gf.GrowthRecipe.constant("BA", **{field: value})

    def test_no_interval_is_a_model_error(self):
        with pytest.raises(gf.ModelError, match="intervals"):
            gf.GrowthRecipe(intervals=[])

    @pytest.mark.parametrize(
        "field, value",
        [("increments", 3.7), ("new_targets", True), ("internal_targets", "2"),
         ("seed_clique", False), ("internal_prob", "0.5"), ("internal_prob", True)],
    )
    def test_json_number_of_the_wrong_kind_is_a_model_error(self, field, value):
        text = json.dumps({"intervals": [{"model": "BA"}], field: value})
        with pytest.raises(gf.ModelError, match=f"'{field}'"):
            gf.GrowthRecipe.from_json(text)

    @pytest.mark.parametrize(
        "intervals, named",
        [
            ([{"model": 5}], "'model'"),
            ([{"until": 3}], "'model'"),
            ([{"model": "BA", "until": "3"}, {"model": "RAND"}], "'until'"),
            ([{"model": "BA", "until": True}, {"model": "RAND"}], "'until'"),
            (["BA"], "interval 0"),
            ({"model": "BA"}, "'intervals'"),
        ],
    )
    def test_malformed_interval_is_a_model_error(self, intervals, named):
        with pytest.raises(gf.ModelError, match=named):
            gf.GrowthRecipe.from_json(json.dumps({"intervals": intervals}))

    def test_json_interval_boundaries_are_read(self):
        text = '{"intervals": [{"model": "BA", "until": 3}, {"model": "RAND", "until": null}]}'
        recipe = gf.GrowthRecipe.from_json(text)
        assert recipe.intervals == [("BA", 3.0), ("RAND", None)]
        assert type(recipe.intervals[0][1]) is float

    def test_json_integral_numbers_are_read(self):
        text = '{"intervals": [{"model": "BA"}], "increments": 40.0, "internal_prob": 1}'
        recipe = gf.GrowthRecipe.from_json(text)
        assert recipe == gf.GrowthRecipe.constant("BA", increments=40, internal_prob=1.0)
        assert type(recipe.increments) is int and type(recipe.internal_prob) is float

    @pytest.mark.parametrize(
        "shape, named",
        [
            ({"new_targets": 0}, "new_targets"),
            ({"new_targets": 0, "internal_prob": 1.0}, "new_targets"),
            ({"internal_prob": 0.5, "internal_targets": 0}, "internal_targets"),
        ],
    )
    def test_star_without_targets_is_a_model_error(self, shape, named):
        with pytest.raises(gf.ModelError, match=named):
            gf.grow(gf.GrowthRecipe.constant("BA", increments=5, **shape))

    def test_unused_internal_targets_may_be_zero(self):
        recipe = gf.GrowthRecipe.constant("BA", increments=5, internal_targets=0)
        assert len(gf.grow(recipe).increments) == 5

    def test_edge_values_are_accepted(self):
        recipe = gf.GrowthRecipe.constant(
            "BA", increments=0, new_targets=0, internal_targets=0, internal_prob=1.0,
            boundary_mode="timestamp",
        )
        assert recipe.schedule().boundary_mode is gf.BoundaryMode.TIMESTAMP
        assert gf.grow(recipe).increments == []


class TestGrow:
    def test_negative_seed_is_a_model_error(self):
        graph = gf.graph_from_edges([(0, 1), (1, 2)], num_nodes=3)
        calls = (
            lambda: gf.grow(gf.GrowthRecipe.constant("BA", increments=5), seed=-1),
            lambda: sample_choice_frequencies(graph, gf.Random(), 10, seed=-1),
        )
        for call in calls:
            with pytest.raises(gf.ModelError, match="seed .*-1"):
                call()

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
def simple_graphs(draw, max_nodes):
    """A node count and a set of edges (u < v) among those nodes, with isolated nodes and hubs."""
    n = draw(st.integers(1, max_nodes))
    if n == 1:
        return n, []
    # a few hubs joined to many nodes, and scattered edges
    hubs = draw(st.lists(st.integers(0, n - 1), max_size=3))
    pairs = {(min(h, v), max(h, v)) for h in hubs for v in
             draw(st.sets(st.integers(0, n - 1), max_size=n)) if v != h}
    pairs |= {(min(u, v), max(u, v)) for u, v in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)) if u != v}
    return n, sorted(pairs)


@st.composite
def weighted_draws(draw):
    """A sampler's graph and a star logged after its tree is built, an exclusion and a uniform."""
    n, edges = draw(simple_graphs(160))
    rank = draw(st.booleans())
    alphas = [0.5, 1.0, 1.5, 2.0] if rank else [-1.0, -0.5, 0.0, 0.5, 1.5, 2.0]
    alpha = draw(st.sampled_from(alphas))
    # an internal star from one node to a few non-neighbours and new nodes,
    # read by the sampler's catch-up as point updates
    star = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=8))
    new = draw(st.integers(0, 3))
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
    return n, edges, rank, alpha, star, new, excluded, chosen, u


def star_exclusion(base, chosen):
    """A star's exclusions as ``MixtureSampler.draw`` makes them, after ``chosen`` were drawn."""
    chosen = sorted(chosen)
    exclusion = _Excluded(base, chosen) if len(base) > SORTED_BASE else set(base)
    exclusion.update(chosen)
    return exclusion


class TestVectorDraws:
    """Fenwick-tree draws against the dense cumsum / searchsorted reference."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=weighted_draws())
    def test_tree_draw_matches_dense_reference(self, case):
        n, edges, rank, alpha, star, new, excluded, chosen, u = case
        state = _GraphState(n, edges)
        degrees = [sum(v in edge for edge in edges) for v in range(n)]
        rng = _FixedUniform(u, fallback=None)
        sampler = _VectorSampler(state, rng, alpha, rank)
        if star[1:] or new:
            center = star[0] if star else 0
            nbrs = {v for edge in edges if center in edge for v in edge}
            targets = (*(v for v in star[1:] if v not in nbrs), *range(n, n + new))
            state.apply(0, center, False, targets, (False,) * (len(targets) - new) + (True,) * new)
            degrees += [0] * new
            for v in targets:
                degrees[v] += 1
                degrees[center] += 1
            sampler.catch_up()
        size = len(degrees)
        if rank:
            current = [float(v + 1) ** -alpha for v in range(size)]
        else:
            current = [degree_power_weight(k, alpha) for k in degrees]
        assert sampler.weights[:size] == current
        eligible = [v for v in range(size) if v not in excluded]
        rng.fallback = eligible[0]
        # as a star's target draws see it: a fixed base plus chosen targets
        got = sampler.sample(star_exclusion(excluded - chosen, chosen), None, False)

        dense = np.array(current)
        dense[sorted(excluded)] = 0.0
        cs = np.cumsum(dense)
        if cs[-1] <= 0.0:
            assert rng.uniform_calls > 0 and got == eligible[0]
            return
        assert rng.uniform_calls == 0
        assert got not in excluded and current[got] > 0.0
        assert got == int(np.searchsorted(cs, u * cs[-1], side="right"))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(graph=simple_graphs(120), rank=st.booleans(),
           alpha=st.sampled_from([-0.5, 0.0, 0.5, 1.5]), data=st.data())
    def test_base_prefixes_are_the_numpy_cumsum(self, graph, rank, alpha, data):
        # the list-held prefix sums of a large base are the sequential sums
        # that numpy's cumsum adds, bit for bit
        n, edges = graph
        sampler = _VectorSampler(_GraphState(n, edges), None, abs(alpha) if rank else alpha, rank)
        base = data.draw(st.sets(st.integers(0, n - 1), min_size=min(n, SORTED_BASE + 1)))
        chosen = data.draw(st.lists(st.sampled_from(sorted(set(range(n)) - base)), unique=True,
                                    max_size=3)) if len(base) < n else []
        assume(len(base) > SORTED_BASE)
        ids, prefix, positive = sampler._base_exclusion(star_exclusion(base, chosen))
        assert ids == sorted(base)
        w = np.array([sampler.weights[v] for v in ids])
        assert np.array(prefix).tobytes() == np.concatenate(([0.0], np.cumsum(w))).tobytes()
        assert positive == np.count_nonzero(w)

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

    def test_choice_frequencies_prepare_a_large_base_once(self, monkeypatch):
        # Each draw is a one-target star over the caller's one exclusion, so
        # each sampler sorts it, and weighs or masks it, once in all the draws.
        graph = gf.grow(GOLDEN_GROWTH["ba-tri-rand-internal"][0], seed=2).final_graph()
        calls = []
        sorted_base = _Excluded.sorted_base
        monkeypatch.setattr(_Excluded, "sorted_base", lambda self: calls.append(self.base)
                            or sorted_base(self))
        excluded = set(range(1, graph.num_nodes, 3))
        model = gf.parse_model_spec("0.5*DP(1.5) + 0.5*TRI")
        counts = sample_choice_frequencies(graph, model, 400, seed=1, anchor=0, excluded=excluded)
        assert counts.sum() == 400 and not counts[sorted(excluded)].any()
        assert len(calls) == 2 and calls[0] is calls[1]


@st.composite
def wedge_draws(draw):
    """A graph, an anchor with neighbours, a star's base and chosen targets, and a uniform."""
    n, edges = draw(simple_graphs(60))
    assume(edges)
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    anchor = draw(st.sampled_from([v for v in range(n) if adj[v]]))
    kind = draw(st.sampled_from(["internal", "below", "above"]))
    if kind == "internal":
        # an internal star's base: its center, the anchor, and the center's neighbours
        base = {anchor, *adj[anchor]}
    else:
        assume(kind == "below" or n > SORTED_BASE + 1)
        small = st.integers(0, min(n, SORTED_BASE))
        size = draw(small if kind == "below" else st.integers(SORTED_BASE + 1, n))
        base = set(draw(st.permutations(range(n)))[:size])
    # chosen targets among the anchor's neighbours and their neighbours
    near = sorted({*adj[anchor], *(x for w in adj[anchor] for x in adj[w])} - base)
    chosen = draw(st.lists(st.sampled_from(near), unique=True, max_size=4)) if near else []
    ends = st.sampled_from([0.0, 1.0 - 2.0**-53])
    u = draw(st.one_of(ends, st.floats(0.0, 1.0, exclude_max=True)))
    return n, edges, adj, anchor, base, chosen, u


class TestWedgeDraws:
    """Triangle-closure draws against the explicitly filtered 2-hop multiset."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=wedge_draws())
    def test_draw_is_the_kth_smallest_eligible_wedge_end(self, case):
        n, edges, adj, anchor, base, chosen, u = case
        excluded = base | set(chosen)
        assume(len(excluded) < n)
        rng = _FixedUniform(u, fallback=min(set(range(n)) - excluded))
        got = _WedgeSampler(_GraphState(n, edges), rng).sample(
            star_exclusion(base, chosen), anchor, False
        )
        # each 2-hop end once per wedge, less the anchor and the excluded nodes
        ends = sorted(x for w in adj[anchor] for x in adj[w] if x != anchor and x not in excluded)
        if not ends:
            assert rng.uniform_calls > 0 and got == rng.fallback
            return
        assert rng.uniform_calls == 0
        assert got == ends[int(u * len(ends))]

    def test_one_mask_serves_star_after_star(self):
        # The sampler keeps one mask from star to star and from base to
        # base, on a graph that grows under it: each draw still equals the
        # k-th smallest eligible wedge end, and the mask is False on the
        # current base alone.
        recipe = gf.GrowthRecipe.constant(
            "0.6*TRI + 0.4*BA", increments=400, internal_prob=0.5, internal_targets=3
        )
        stream = gf.grow(recipe, seed=3)
        graph = stream.seed_graph()
        state = _GraphState(graph.num_nodes, stream.seed_edges)
        rng = _FixedUniform(0.0, fallback=None)
        sampler = _WedgeSampler(state, rng)
        pick = np.random.default_rng(5)
        anchor, base = 0, set()
        for i, inc in enumerate(stream.increments):
            n = graph.num_nodes
            if i % 3:  # every third star reuses the last anchor and base object
                anchor = int(pick.integers(n))
                base = {anchor, *graph.adj[anchor], *pick.integers(n, size=SORTED_BASE).tolist()}
            if SORTED_BASE < len(base) < n:
                rng.u = float(pick.random())
                rng.fallback = min(set(range(n)) - base)
                got = sampler.sample(star_exclusion(base, []), anchor, False)
                ends = sorted(x for w in graph.adj[anchor] for x in graph.adj[w]
                              if x != anchor and x not in base)
                assert got == (ends[int(rng.u * len(ends))] if ends else rng.fallback)
                if graph.degrees[anchor]:
                    mask = sampler._outside[:n]
                    assert np.flatnonzero(~mask).tolist() == sorted(base)
                    assert sampler._outside[n:].all()
            gf.apply_increment(graph, inc)
            state.apply(*astuple(inc))


class TestSamplerState:
    """The graph state that ``grow`` updates, and its samplers, against a reference graph."""

    SPEC = "0.2*DP(0.5) + 0.2*DP(0) + 0.2*RP(0.5) + 0.2*BA + 0.2*TRI"

    def assert_same_state(self, sampler, schedule, graph):
        state = sampler.state
        n = graph.num_nodes
        assert state.degrees == graph.degrees
        assert state.size[:n].tolist() == state.degrees
        for v in range(n):
            assert sorted(state.neighbors(v)) == sorted(graph.adj[v]), v
        fresh = MixtureSampler(_GraphState(n, graph.edges()), schedule, None)
        endpoints = sorted(x for edge in graph.edges() for x in edge)
        for comp, a in sampler._samplers.items():
            b = fresh._samplers[comp]
            if isinstance(a, _VectorSampler):
                assert np.array_equal(a.weights[:n], b.weights[:n]), comp
                assert a.positive == b.positive == np.count_nonzero(a.weights[:n])
                # tree prefix sums agree with a sequential cumsum of the weights
                prefix = [fenwick_prefix(a.tree, i) for i in range(1, a.capacity + 1)]
                np.testing.assert_allclose(prefix, np.cumsum(a.weights), rtol=1e-12, atol=0)
            elif isinstance(a, _EndpointListSampler):
                assert sorted(a.endpoints) == endpoints
            else:
                # the wedge sampler reads the state's blocks and keeps no graph
                # of its own, only the mask of the last large base it read
                assert isinstance(a, _WedgeSampler)
                assert vars(a).keys() == {"state", "rng", "seen", "_outside", "_masked"}

    def test_state_after_each_increment_matches_fresh_build(self):
        # external and internal stars, each with existing and new targets
        rows = [
            gf.OperationRow(t, t % 3 != 2, 1 + t % 2, 1 + t % 3 if t % 3 != 2 else 2)
            for t in range(60)
        ]
        recipe = gf.GrowthRecipe.constant(self.SPEC, seed_clique=5)
        stream = gf.grow(recipe, seed=6, op_schedule=gf.OperationSchedule(rows))
        assert any(not inc.center_is_new and inc.new_nodes for inc in stream.increments)
        graph = stream.seed_graph()
        schedule = recipe.schedule()
        # no draws are made, so the samplers need no generator
        sampler = MixtureSampler(_GraphState(graph.num_nodes, stream.seed_edges), schedule, None)
        self.assert_same_state(sampler, schedule, graph)
        capacities = set()
        for inc in stream.increments:
            gf.apply_increment(graph, inc)
            sampler.state.apply(*astuple(inc))
            sampler.catch_up()
            capacities.add(sampler._samplers[gf.DegreePower(0.5)].capacity)
            self.assert_same_state(sampler, schedule, graph)
        assert sampler.state.stream().increments == stream.increments
        # the replay crosses capacity doublings, where the tree is rebuilt
        assert len(capacities) >= 3

    def test_updates_wait_for_the_next_draw(self):
        # a component the interval does not draw from reads nothing until it
        # draws or is caught up, and then matches a fresh build
        stream = gf.grow(gf.GrowthRecipe.constant("BA", increments=40, new_targets=2), seed=4)
        graph = stream.seed_graph()
        schedule = gf.GrowthRecipe.constant("0.5*DP(1.5) + 0.5*RP(0.5)").schedule()
        state = _GraphState(graph.num_nodes, stream.seed_edges)
        sampler = MixtureSampler(state, schedule, np.random.default_rng(0))
        only_rp = gf.MixtureInterval.single(gf.RankPreference(0.5))
        for inc in stream.increments:
            gf.apply_increment(graph, inc)
            state.apply(*astuple(inc))
            sampler.draw(only_rp, 1, (), None)
        dp = sampler._samplers[gf.DegreePower(1.5)]
        rp = sampler._samplers[gf.RankPreference(0.5)]
        assert np.count_nonzero(dp.weights) == 3
        assert np.count_nonzero(rp.weights) == graph.num_nodes
        sampler.catch_up()
        self.assert_same_state(sampler, schedule, graph)

    def test_catch_up_with_nothing_logged(self):
        # before the first increment, and again right after a catch-up,
        # there is nothing to read and every sampler stays as it is
        stream = gf.grow(gf.GrowthRecipe.constant("BA", increments=30, new_targets=2), seed=6)
        graph = stream.seed_graph()
        schedule = gf.GrowthRecipe.constant(self.SPEC).schedule()
        state = _GraphState(graph.num_nodes, stream.seed_edges)
        sampler = MixtureSampler(state, schedule, np.random.default_rng(0))
        sampler.catch_up()
        sampler.catch_up()
        self.assert_same_state(sampler, schedule, graph)
        for inc in stream.increments:
            gf.apply_increment(graph, inc)
            state.apply(*astuple(inc))
        sampler.catch_up()
        sampler.catch_up()
        self.assert_same_state(sampler, schedule, graph)

    def test_degree_zero_weights(self):
        # node 2 is isolated: weight 1 under DP(0), 0 under DP(0.5)
        schedule = gf.GrowthRecipe.constant(self.SPEC).schedule()
        sampler = MixtureSampler(_GraphState(3, [(0, 1)]), schedule, None)
        weights = {c: s.weights[:3] for c, s in sampler._samplers.items()
                   if isinstance(s, _VectorSampler)}
        assert weights[gf.DegreePower(0.0)] == [1.0, 1.0, 1.0]
        assert weights[gf.DegreePower(0.5)] == [1.0, 1.0, 0.0]
        assert weights[gf.RankPreference(0.5)] == [1.0, 2.0**-0.5, 3.0**-0.5]


def stream_sha256(stream):
    """SHA-256 over each increment's (timestamp, center, targets, targets_new) tuple."""
    digest = hashlib.sha256()
    for inc in stream.increments:
        digest.update(repr((inc.timestamp, inc.center, inc.targets, inc.targets_new)).encode())
    return digest.hexdigest()


def golden_replay_rows(n):
    """External and internal stars, with existing and new targets in turn."""
    return [
        gf.OperationRow(t, t % 3 != 2, t % 2 + (t % 3 == 2), 1 + t % 3 if t % 3 != 2 else 2)
        for t in range(n)
    ]


GOLDEN_GROWTH = {
    "dp-rp-tri-switch": (
        gf.GrowthRecipe.two_phase(
            "0.4*DP(0.5) + 0.3*RP(0.5) + 0.3*TRI", "0.4*DP(1.5) + 0.3*RP(0.5) + 0.3*TRI",
            299.0, increments=600, internal_prob=0.2,
        ),
        1,
        None,
        "4e39a93aca68d15c40c9a5ec158e7b6c989ca77b14d6de42c23b233b9db427b9",
    ),
    "ba-tri-rand-internal": (
        gf.GrowthRecipe.constant(
            "0.4*BA + 0.3*TRI + 0.3*RAND", increments=600, new_targets=3,
            internal_prob=0.3, internal_targets=2,
        ),
        2,
        None,
        "912189e9706dfd7fb1a5099bb6d27e9917ac8e504cc237a9a6ae1b0b7fed64df",
    ),
    "dp-rp-internal-heavy": (
        gf.GrowthRecipe.constant(
            "0.5*DP(-0.5) + 0.5*RP(1.0)", increments=400, new_targets=2,
            internal_prob=0.5, internal_targets=3, seed_clique=6,
        ),
        3,
        None,
        "7adfd24cfbd4d158c97a7ee7d6b1d36582f08228d9be6670667808660b9abb9e",
    ),
    "rand-to-dp-switch": (
        gf.GrowthRecipe.two_phase("RAND", "DP(2.0)", 199.0, increments=400, new_targets=2),
        4,
        None,
        "3fb9133ed4aee452d4c5939e567281c831e1aa682c424d091bda4454883cf902",
    ),
    "op-schedule-new-targets": (
        gf.GrowthRecipe.constant(
            "0.2*DP(0.5) + 0.2*DP(0) + 0.2*RP(0.5) + 0.2*BA + 0.2*TRI", seed_clique=5
        ),
        6,
        300,
        "3c28956261c5a1837e74d781a6a84c42cf24d27cbbc7e8a63c5678d5c3f9e18e",
    ),
    # internal stars whose centers have more than SORTED_BASE neighbours
    "dp-rp-tri-large-exclusions": (
        gf.GrowthRecipe.constant(
            "0.4*DP(1.5) + 0.3*RP(0.5) + 0.3*TRI", increments=3000,
            internal_prob=0.5, internal_targets=4,
        ),
        5,
        None,
        "fe5084386c5c24ba7aea7b9662cd35fcb5e0a8744d50eac0f112639cb70836a7",
    ),
}

GOLDEN_FREQUENCIES = {
    "RAND": (gf.Random(), None),
    "BA": (gf.DegreePower(1.0), None),
    "DP(1.5)": (gf.DegreePower(1.5), None),
    "RP(0.5)": (gf.RankPreference(0.5), None),
    "TRI": (gf.TriangleClosure(), 0),
}

GOLDEN_FREQUENCY_DIGESTS = {
    ("BA", "every-third"): "0affcf02807082e22316dee9c68baa22bd2479f2d9421d4bf6c87b8698a6fe5d",
    ("BA", "all-but-ten"): "23c955325e37d28ca4f529416d9d6c5f3eb89bc20b5e9aafe3743388cdd93a75",
    ("DP(1.5)", "every-third"): "309878b2b2da311d1f898986fa9ff1a45fee775921bf986ed25a46423c34646a",
    ("DP(1.5)", "all-but-ten"): "541a47f61d621a7cb11b2c38b66271b452694aeca04278dbc6b6c468adacab4d",
    ("RAND", "every-third"): "9d41033349c500c74a3395786254aa5f3bf49d01dc705138d5505ead832f8368",
    ("RAND", "all-but-ten"): "07488af2a44209af640e2446536376f23361b22207b6e49ac0cd2d79134904e6",
    ("RP(0.5)", "every-third"): "dac590edde3126e42164c6927f2abb64b86e20c3d1125c90c18d11c484298e76",
    ("RP(0.5)", "all-but-ten"): "1474c93d6a5fe2781dae8c65e478bbf8350b5a8aea5ab1e729958a05fcdc67c3",
    ("TRI", "every-third"): "9f23c231ba35bf4ac67a67dafb19c74afa083475aa8f4aa8999c37c6f0dfa61d",
    ("TRI", "all-but-ten"): "bd3fbf99e4f14d6de8c40315ebbb6d491310fb8111d47cd2e595095ec3cbb889",
}


class TestGoldenStreams:
    """Seed determinism: fixed seeds give these streams and draw counts bit for bit.

    The digests were recorded before the generator kept one graph state;
    any change to them is a change to every seeded result downstream.
    """

    @pytest.mark.parametrize("name", sorted(GOLDEN_GROWTH))
    def test_grow_stream_digest(self, name):
        recipe, seed, rows, expected = GOLDEN_GROWTH[name]
        ops = None if rows is None else gf.OperationSchedule(golden_replay_rows(rows))
        stream = gf.grow(recipe, seed=seed, op_schedule=ops)
        assert stream_sha256(stream) == expected

    def test_large_exclusion_golden_draws_past_many_bases(self):
        # the golden above is only a check of the large-base draws if its
        # stream holds many stars that exclude a center and its neighbours
        recipe, seed, _, _ = GOLDEN_GROWTH["dp-rp-tri-large-exclusions"]
        stream = gf.grow(recipe, seed=seed)
        graph = stream.seed_graph()
        large = 0
        for inc in stream.increments:
            large += not inc.center_is_new and 1 + graph.degrees[inc.center] > SORTED_BASE
            gf.apply_increment(graph, inc)
        assert large >= 500

    @pytest.mark.parametrize("name", sorted(GOLDEN_FREQUENCIES))
    @pytest.mark.parametrize("exclusion", ["every-third", "all-but-ten"])
    def test_choice_frequency_digest(self, name, exclusion):
        model, anchor = GOLDEN_FREQUENCIES[name]
        graph = gf.grow(GOLDEN_GROWTH["ba-tri-rand-internal"][0], seed=2).final_graph()
        n = graph.num_nodes
        if exclusion == "every-third":
            excluded = set(range(1, n, 3))
        else:
            excluded = set(range(n)) - set(range(5, n, n // 10))
        if anchor is not None:
            excluded.add(anchor)
        assert len(excluded) > SORTED_BASE
        counts = sample_choice_frequencies(
            graph, model, 1500, seed=8, anchor=anchor, excluded=excluded
        )
        digest = hashlib.sha256(repr(counts.tolist()).encode()).hexdigest()
        assert digest == GOLDEN_FREQUENCY_DIGESTS[name, exclusion]
