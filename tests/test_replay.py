"""The whole-array replay against the graph-walking oracle, field by field and error by error."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growthfit as gf
from growthfit import likelihood
from growthfit.events import StreamColumns
from growthfit.likelihood import DPTrace, _replay, _sampled_positions
from oracles import OracleRejection, oracle_trace

def replay(graph, incs, *args):
    """``_replay`` of a list of increments applied to ``graph``."""
    return _replay(graph, StreamColumns.of(incs, graph.num_nodes), *args)


def random_stream(rng, increments, big_star=False):
    """(seed nodes, seed edges, increments) of a valid stream over a seed with isolated nodes.

    Stars are internal or external, with existing and new targets; with
    ``big_star`` the last increment takes 12 existing targets when 12 are
    eligible.
    """
    n = first_nodes = int(rng.integers(3, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.random(len(pairs)) < 0.4
    edges = [p for p, k in zip(pairs, keep) if k]
    neigh = [set() for _ in range(n)]
    for u, v in edges:
        neigh[u].add(v)
        neigh[v].add(u)
    incs = []
    big_at = increments - 1 if big_star else -1
    t = 0
    for k in range(increments):
        n = len(neigh)
        center_new = bool(rng.random() < 0.5)
        center = n if center_new else int(rng.integers(n))
        banned = set() if center_new else {center} | neigh[center]
        pool = [x for x in range(n) if x not in banned]
        if k == big_at and len(pool) >= 12:
            q = 12
        else:
            q = int(rng.integers(0, min(len(pool), 6) + 1))
        existing = [int(x) for x in rng.choice(pool, size=q, replace=False)] if q else []
        first_new = n + center_new
        fresh = list(range(first_new, first_new + int(rng.integers(0, 4))))
        if not existing and not fresh:
            fresh = [first_new]
        flags = [False] * len(existing) + [True] * len(fresh)
        order = rng.permutation(len(flags))
        targets = tuple((existing + fresh)[i] for i in order)
        targets_new = tuple(flags[i] for i in order)
        # new ids must follow list order
        renumber = iter(range(first_new, first_new + len(fresh)))
        targets = tuple(next(renumber) if new else x for x, new in zip(targets, targets_new))
        t += int(rng.integers(0, 3))
        inc = gf.Increment(t, center, center_new, targets, targets_new)
        incs.append(inc)
        for _ in range(len(inc.new_nodes)):
            neigh.append(set())
        for x in targets:
            neigh[center].add(x)
            neigh[x].add(center)
    return first_nodes, edges, incs


def assert_same_array(got, want, name):
    assert got.dtype == want.dtype, (name, got.dtype, want.dtype)
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


# Every field but the edge events, and what is derived from the trace on first read.
TRACE_ARRAYS = [f.name for f in fields(DPTrace) if f.name != "events"] + [
    "anchor_offsets",
    "anchor_total",
    "anchor_common",
    "chosen_deg",
]


def assert_same_trace(trace: DPTrace, expected: dict):
    for name in TRACE_ARRAYS:
        got, want = getattr(trace, name), expected[name]
        if isinstance(want, tuple):
            assert isinstance(got, tuple) and len(got) == len(want), name
            for k, (part, expect) in enumerate(zip(got, want)):
                assert_same_array(part, expect, (name, k))
        else:
            assert_same_array(got, want, name)


class TestTraceMatchesOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        increments=st.integers(0, 30),
        big_star=st.booleans(),
        max_exhaustive=st.sampled_from([2, 3, 5]),
        samples=st.sampled_from([1, 3, 7]),
        first_index=st.sampled_from([0, 17]),
    )
    def test_every_field_equals_the_graph_walk(
        self, seed, increments, big_star, max_exhaustive, samples, first_index
    ):
        rng = np.random.default_rng(seed)
        n, edges, incs = random_stream(rng, increments, big_star)
        trace = replay(
            gf.graph_from_edges(edges, num_nodes=n),
            incs,
            first_index,
            seed % 1000,
            samples,
            max_exhaustive,
        )
        expected = oracle_trace(n, edges, incs, first_index, seed % 1000, max_exhaustive, samples)
        assert_same_trace(trace, expected)

    def test_grown_triangle_stream_with_sampled_stars(self):
        recipe = gf.GrowthRecipe.constant(
            "0.4*BA + 0.3*TRI + 0.3*RAND", increments=300, new_targets=4, internal_prob=0.3
        )
        stream = gf.grow(recipe, seed=3)
        graph = stream.seed_graph()
        trace = replay(graph, stream.increments, 0, 1, 5, 3)
        assert trace.sampled.any() and (~trace.center_new).any()
        expected = oracle_trace(graph.num_nodes, stream.seed_edges, stream.increments, 0, 1, 3, 5)
        assert_same_trace(trace, expected)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_twelve_target_row_path_star(self, seed):
        n, edges, incs = random_stream(np.random.default_rng(seed), 30, big_star=True)
        trace = replay(gf.graph_from_edges(edges, num_nodes=n), incs, 0, seed, 120, 5)
        assert trace.existing_counts[-1] == 12 and trace.sampled[-1]
        assert_same_trace(trace, oracle_trace(n, edges, incs, 0, seed, 5, 120))

    def test_replay_leaves_the_graph_alone(self):
        rng = np.random.default_rng(5)
        n, edges, incs = random_stream(rng, 10)
        graph = gf.graph_from_edges(edges, num_nodes=n)
        replay(graph, incs, 0, 0, 120, 5).anchor_common
        assert graph.num_nodes == n and sorted(graph.edges()) == sorted(edges)


def unchecked_increment(timestamp, center, center_is_new, targets, targets_new):
    """An increment past ``Increment``'s own checks, which forbid repeated targets.

    Repeating a target is the only way an increment passes
    ``events.first_rejection`` with more existing targets than eligible nodes.
    """
    inc = object.__new__(gf.Increment)
    for name, value in zip(
        ("timestamp", "center", "center_is_new", "targets", "targets_new"),
        (timestamp, center, center_is_new, targets, targets_new),
    ):
        object.__setattr__(inc, name, value)
    return inc


def corrupt(kind, inc, n, neigh):
    """``inc`` made invalid for a graph of ``n`` nodes with adjacency ``neigh``."""
    if kind == "unknown target":
        return replace(inc, targets=(*inc.targets, n + 10), targets_new=(*inc.targets_new, False))
    if kind == "unknown center":
        return replace(inc, center=-1 if inc.center % 2 else n + 10, center_is_new=False)
    if kind == "duplicate edge":
        hub = max(range(n), key=lambda v: len(neigh[v]))
        old = min(neigh[hub])
        return gf.Increment(inc.timestamp, hub, False, (old,), (False,))
    if kind == "new center id":
        return gf.Increment(inc.timestamp, n + 1, True, (0,), (False,))
    if kind == "new target id":
        return gf.Increment(inc.timestamp, 0, False, (n, n + 2), (True, True))
    assert kind == "too many targets"
    return unchecked_increment(inc.timestamp, n, True, tuple(range(n)) * 2, (False,) * (2 * n))


KINDS = (
    "unknown target",
    "unknown center",
    "duplicate edge",
    "new center id",
    "new target id",
    "too many targets",
)


class TestRejectionsMatchOracle:
    def stream(self):
        rng = np.random.default_rng(11)
        return random_stream(rng, 24)

    def state_before(self, n, edges, incs, k):
        neigh = [set() for _ in range(n)]
        for u, v in edges:
            neigh[u].add(v)
            neigh[v].add(u)
        for inc in incs[:k]:
            for _ in inc.new_nodes:
                neigh.append(set())
            for t in inc.targets:
                neigh[inc.center].add(t)
                neigh[t].add(inc.center)
        return len(neigh), neigh

    def outcome(self, n, edges, incs, first_index):
        with pytest.raises(gf.GraphError) as got:
            replay(gf.graph_from_edges(edges, num_nodes=n), incs, first_index, 0, 3, 5)
        with pytest.raises(OracleRejection) as want:
            oracle_trace(n, edges, incs, first_index, 0, 5, 3)
        return (type(got.value).__name__, str(got.value)), (want.value.kind, want.value.message)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("at", [0, 9, 23])
    def test_same_error_at_the_same_increment(self, kind, at):
        n, edges, incs = self.stream()
        size, neigh = self.state_before(n, edges, incs, at)
        bad = list(incs)
        bad[at] = corrupt(kind, incs[at], size, neigh)
        got, want = self.outcome(n, edges, bad, 40)
        assert got == want

    def test_the_lowest_of_two_rejections_is_reported(self):
        n, edges, incs = self.stream()
        bad = list(incs)
        for at, kind in ((17, "unknown center"), (6, "duplicate edge")):
            size, neigh = self.state_before(n, edges, incs, at)
            bad[at] = corrupt(kind, incs[at], size, neigh)
        got, want = self.outcome(n, edges, bad, 0)
        assert got == want and got[0] == "RejectedIncrementError"


class TestBatchedOrderingDraws:
    @pytest.mark.parametrize("q", range(5, 13))
    @pytest.mark.parametrize("samples", [1, 120])
    def test_rows_are_successive_permutation_draws(self, q, samples):
        for seed, index in ((0, 0), (7, 3), (123, 45_678)):
            rng = np.random.default_rng([seed, index])
            loop = np.array([rng.permutation(q) for _ in range(samples)])
            batched = _sampled_positions(q, index, seed, samples)
            assert batched.dtype == loop.dtype
            assert np.array_equal(batched, loop)


def sampled_triangle_stream(seed):
    """A grown stream with sampled stars (9 choices) and triangle anchors, of its own."""
    recipe = gf.GrowthRecipe.constant(
        "0.4*BA + 0.3*TRI + 0.3*RAND", increments=120, new_targets=3, internal_prob=0.3,
        internal_targets=8, seed_clique=12,
    )
    return gf.grow(recipe, seed=seed)


def arrays_in(value):
    """Every array in a value: itself, or in its dict, tuple, list or fields, at any depth."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from arrays_in(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)
    elif hasattr(value, "__dict__"):
        yield from arrays_in(vars(value))


class TestKeptTrace:
    """A stream keeps one replay per set of replay options, and that replay is read-only."""

    def counted_replays(self, monkeypatch) -> list:
        calls = []

        def counting(*args):
            calls.append(args[3:])
            return _replay(*args)

        monkeypatch.setattr(likelihood, "_replay", counting)
        return calls

    def test_every_scorer_shares_one_replay(self, monkeypatch):
        stream = sampled_triangle_stream(1)
        calls = self.counted_replays(monkeypatch)
        for spec in ("0.2*BA + 0.8*RAND", "0.8*BA + 0.2*TRI"):
            gf.score_stream(stream, gf.parse_model_spec(spec), keep_series=True)
        gf.build_choice_cache(stream, [gf.DegreePower(1.0), gf.TriangleClosure(), gf.Random()])
        gf.fit_degree_exponent(stream, grid=[0.5, 1.0])
        gf.fit_dp_changepoint(stream, 0.5, 1.5)
        defaults = (0, likelihood.DEFAULT_ORDERING_SAMPLES, likelihood.MAX_EXHAUSTIVE_CHOICES)
        assert calls == [defaults]
        assert gf.build_dp_trace(stream) is gf.build_dp_trace(stream, 0, 120)

    def test_each_option_set_replays_once(self, monkeypatch):
        stream = sampled_triangle_stream(2)
        calls = self.counted_replays(monkeypatch)
        trace = gf.build_dp_trace(stream)
        reseeded = gf.build_dp_trace(stream, seed=5)
        fewer = gf.build_dp_trace(stream, ordering_samples=7)
        with monkeypatch.context() as patch:
            patch.setattr(likelihood, "MAX_EXHAUSTIVE_CHOICES", 2)
            capped = gf.build_dp_trace(stream)
            assert gf.score_stream(stream, gf.parse_model_spec("BA"))[0].sampled_increments == (
                capped.sampled_increments
            )
        assert len({id(t) for t in (trace, reseeded, fewer, capped)}) == 4
        assert capped.sampled_increments > trace.sampled_increments > 0
        assert not np.array_equal(reseeded.orderings[0], trace.orderings[0])
        assert fewer.orderings[0].shape[1] == 7
        for key, kept in zip(calls, (trace, reseeded, fewer)):
            assert gf.build_dp_trace(stream, *key[:2]) is kept
        assert gf.build_dp_trace(stream, np.int64(5), np.int16(120)) is reseeded
        assert len(calls) == 4
        # equal as a key, but the replay refuses it
        for options in ({"seed": 0.0}, {"ordering_samples": 120.0}):
            with pytest.raises(TypeError):
                gf.build_dp_trace(stream, **options)

    def test_a_replay_that_raises_keeps_nothing(self, monkeypatch):
        stream = gf.GrowthStream([(0, 1)], [gf.Increment(0, 0, False, (5,), (False,))])
        calls = self.counted_replays(monkeypatch)
        for _ in range(2):
            with pytest.raises(gf.UnknownNodeError):
                gf.score_stream(stream, gf.parse_model_spec("BA"))
            with pytest.raises(gf.ModelError, match="ordering_samples"):
                gf.build_dp_trace(gf.GrowthStream([(0, 1)], []), ordering_samples=0)
        assert len(calls) == 4 and stream._traces == {}

    FIRST_USE_TABLES = {
        "_ordering_count", "_baseline_offset", "_float_nodes", "_grown_degrees", "_target_start",
        "_subset_groups", "_anchored_groups", "_occupied_base", "_largest_degree", "_anchors",
        "_anchor_rows",
    }

    def test_every_array_is_read_only(self):
        # 8 targets make sampled stars; 3 put internal and external stars in one subset group
        for internal_targets in (8, 3):
            recipe = gf.GrowthRecipe.constant(
                "0.4*BA + 0.3*TRI + 0.3*RAND", increments=120, new_targets=3, internal_prob=0.3,
                internal_targets=internal_targets, seed_clique=12,
            )
            stream = gf.grow(recipe, seed=3)
            trace = gf.build_dp_trace(stream)
            # a triangle-closure score and an exponent scan build every first-use table
            gf.score_stream(stream, gf.parse_model_spec("0.4*BA + 0.3*TRI + 0.3*RAND"))
            gf.fit_degree_exponent(stream, grid=[0.5, 1.5])
            assert self.FIRST_USE_TABLES <= vars(trace).keys()
            assert "_pairs" in vars(trace.events) and len(trace.events._triangles[1])
            if internal_targets == 8:
                assert trace.orderings and len(trace.anchor_total)
            else:
                assert len(trace._anchored_groups) > len(trace._subset_groups)
            arrays = list(arrays_in([vars(trace), vars(trace.events)]))
            assert len(arrays) > len(fields(DPTrace))
            for values in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    values[...] = 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_kept_trace_equals_a_fresh_replay(self, seed):
        stream = sampled_triangle_stream(seed)
        spec = gf.parse_model_spec("0.4*BA + 0.3*TRI + 0.3*RAND")
        kept = gf.build_dp_trace(stream, seed=seed)
        # every first-use table is built and kept before the comparison
        gf.score_stream(kept, spec)
        gf.build_choice_cache(kept, spec.components)
        assert gf.build_dp_trace(stream, seed=seed) is kept
        fresh = _replay(
            stream.seed_graph(), stream.columns, 0, seed, likelihood.DEFAULT_ORDERING_SAMPLES,
            likelihood.MAX_EXHAUSTIVE_CHOICES,
        )
        assert kept.sampled.any() and len(kept.anchor_total)
        assert_same_trace(kept, {name: getattr(fresh, name) for name in TRACE_ARRAYS})
        for name, values in vars(fresh.events).items():
            if isinstance(values, np.ndarray):
                assert_same_array(getattr(kept.events, name), values, name)
