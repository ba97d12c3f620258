"""Tests for incremental network statistics."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import growthfit as gf
from growthfit.events import EdgeEvents, graph_ends
from growthfit.netstats import (
    STAT_FIELDS,
    aggregate_series,
    default_checkpoints,
    graph_stats,
    stats_series,
    t_quantile,
    write_stats_csv,
)
from oracles import (
    oracle_assortativity,
    oracle_clustering,
    oracle_t_quantile,
    oracle_triangle_count,
)


def random_graph(rng, n):
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(0, v)), v))
    for _ in range(int(rng.integers(0, 2 * n))):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((int(u), int(v)))
    return sorted(edges)


class TestGraphStats:
    def test_against_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(4, 25))
            edges = random_graph(rng, n)
            g = gf.graph_from_edges(edges, num_nodes=n)
            row = graph_stats(g)
            assert row.nodes == n
            assert row.edges == len(edges)
            assert row.triangles == oracle_triangle_count(n, edges)
            assert abs(row.clustering - oracle_clustering(n, edges)) < 1e-12
            expected_r = oracle_assortativity(n, edges)
            if expected_r is None:
                assert row.assortativity is None
            else:
                assert abs(row.assortativity - expected_r) < 1e-12

    def test_triangle_free_graph(self):
        g = gf.graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        row = graph_stats(g)
        assert row.triangles == 0
        assert row.clustering == 0.0

    def test_regular_graph_has_undefined_assortativity(self):
        g = gf.graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert graph_stats(g).assortativity is None

    def test_degree_moments(self):
        g = gf.graph_from_edges([(0, 1), (0, 2), (0, 3)])
        row = graph_stats(g)
        assert row.mean_degree == 1.5
        assert row.mean_sq_degree == 3.0
        assert row.max_degree == 3


def prefix_edges(stream, count):
    """The seed graph and the first ``count`` increments as (node count, edge list)."""
    n = max((max(e) for e in stream.seed_edges), default=-1) + 1
    edges = list(stream.seed_edges)
    for inc in stream.increments[:count]:
        n += len(inc.new_nodes)
        edges += [(inc.center, t) for t in inc.targets]
    return n, edges


class TestStatsSeries:
    def test_checkpoints_match_replayed_prefixes(self):
        stream = gf.grow(
            gf.GrowthRecipe.constant(
                "0.5*BA + 0.5*TRI", increments=60, new_targets=2,
                internal_prob=0.3, internal_targets=2, seed_clique=4,
            ),
            seed=3,
        )
        assert stream.seed_edges
        assert any(not inc.center_is_new for inc in stream.increments)
        rows = stats_series(stream, checkpoints=[60, 0, 1, 2, 7, 10, 30, 45, 59, 7])
        assert [row.increments for row in rows] == [0, 1, 2, 7, 10, 30, 45, 59, 60]
        for row in rows:
            n, edges = prefix_edges(stream, row.increments)
            degrees = np.bincount(np.array(edges).ravel(), minlength=n)
            assert row.nodes == n
            assert row.edges == len(edges)
            assert row.timestamp == (
                stream.increments[row.increments - 1].timestamp if row.increments else None
            )
            assert row.mean_degree == degrees.mean()
            assert row.mean_sq_degree == (degrees.astype(float) ** 2).mean()
            assert row.max_degree == degrees.max()
            assert row.triangles == oracle_triangle_count(n, edges)
            assert abs(row.clustering - oracle_clustering(n, edges)) < 1e-12
            expected_r = oracle_assortativity(n, edges)
            if expected_r is None:
                assert row.assortativity is None
            else:
                assert abs(row.assortativity - expected_r) < 1e-12

    @pytest.mark.parametrize("bad", [-1, 31, 999])
    def test_checkpoint_outside_the_stream_is_rejected(self, bad):
        stream = gf.grow(gf.GrowthRecipe.constant("BA", increments=30, new_targets=2), seed=4)
        with pytest.raises(gf.CheckpointError, match=f"checkpoint {bad} "):
            stats_series(stream, checkpoints=[10, bad, 20])

    @pytest.mark.parametrize(
        "inc",
        [
            gf.Increment(5, 1, False, (3, 0), (True, False)),
            gf.Increment(5, 3, False, (0,), (False,)),
            gf.Increment(5, 0, False, (3,), (False,)),
            gf.Increment(5, 5, True, (0,), (False,)),
            gf.Increment(5, 0, False, (4, 2), (True, False)),
        ],
        ids=[
            "duplicate edge", "unknown center", "unknown target", "new center id", "new target id"
        ],
    )
    def test_invalid_stream_raises_what_scoring_raises(self, inc):
        valid = gf.Increment(4, 0, False, (2,), (False,))
        stream = gf.GrowthStream(seed_edges=[(0, 1), (1, 2)], increments=[valid, inc, valid])
        with pytest.raises(gf.GrowthFitError) as scored:
            gf.score_stream(stream, gf.Random())
        with pytest.raises(gf.GrowthFitError) as got:
            stats_series(stream, checkpoints=[1])
        assert type(got.value) is type(scored.value)
        assert str(got.value) == str(scored.value)
        with pytest.raises(gf.GrowthFitError) as built:
            stream.final_graph()
        assert type(built.value) is type(scored.value)
        assert str(built.value) == str(scored.value)

    def test_default_checkpoints_are_even_deciles(self):
        assert default_checkpoints(100) == [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        assert default_checkpoints(7, count=3) == [2, 5, 7]

    def test_timestamps_recorded(self):
        stream = gf.grow(gf.GrowthRecipe.constant("RAND", increments=20, new_targets=2), seed=0)
        rows = stats_series(stream, checkpoints=[20])
        assert rows[0].timestamp == stream.increments[-1].timestamp


def edge_events(stream):
    """A fresh ``EdgeEvents`` of a stream, with no table built."""
    return EdgeEvents(*graph_ends(stream.seed_graph()), stream.columns)


def whole_graph_triangles(stream, nodes, incs):
    """``triangles_before`` read off the whole graph's table, built by one more query at the end."""
    events = edge_events(stream)
    counts = events.triangles_before(np.append(nodes, 0), np.append(incs, len(stream.increments)))
    assert events._triangles[0] == len(events.edge_u)
    return counts[:-1]


class TestTriangleTables:
    """Triangle counts from the edges a query can see, against the whole graph's table."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 1000), data=st.data())
    def test_prefix_tables_count_as_the_whole_graph(self, seed, data):
        recipe = gf.GrowthRecipe.constant(
            "0.5*TRI + 0.5*RAND", increments=data.draw(st.integers(1, 80)), new_targets=2,
            internal_prob=0.3, internal_targets=2, seed_clique=data.draw(st.integers(3, 6)),
        )
        stream = gf.grow(recipe, seed=seed)
        total = len(stream.increments)
        events = edge_events(stream)
        n = events.num_nodes
        seen = 0
        # calls at horizons in any order: a shorter one after a longer one
        # reads the longer table, a longer one builds a new table
        for horizon in data.draw(st.lists(st.integers(0, total), min_size=1, max_size=5)):
            nodes = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=30)))
            incs = np.array(data.draw(st.lists(
                st.integers(0, horizon), min_size=len(nodes), max_size=len(nodes))))
            incs[-1] = horizon
            got = events.triangles_before(nodes, incs)
            assert got.tolist() == whole_graph_triangles(stream, nodes, incs).tolist()
            seen = max(seen, int(np.searchsorted(events.edge_event, horizon, side="right")))
            assert events._triangles[0] == seen

    def test_early_queries_build_a_table_of_the_early_edges(self):
        # as an ingested stream's first internal centers ask, at increments 1 and 2
        recipe = gf.GrowthRecipe.constant("0.5*TRI + 0.5*RAND", increments=300, new_targets=3)
        stream = gf.grow(recipe, seed=1)
        events = edge_events(stream)
        nodes, incs = np.array([0, 1]), np.array([1, 2])
        got = events.triangles_before(nodes, incs)
        assert got.tolist() == whole_graph_triangles(stream, nodes, incs).tolist() and got.all()
        assert events._triangles[0] == np.searchsorted(events.edge_event, 2, side="right")
        assert events._triangles[0] < len(events.edge_u) / 50

    @pytest.mark.parametrize("checkpoints", [None, [5, 40, 80], [3, 17]])
    def test_stats_series_builds_one_table(self, checkpoints, monkeypatch):
        stream = gf.grow(
            gf.GrowthRecipe.constant("0.5*TRI + 0.5*BA", increments=80, new_targets=2), seed=2
        )
        built = []
        build = EdgeEvents._triangles_of

        def counted(events, m):
            built.append(m)
            return build(events, m)

        monkeypatch.setattr(EdgeEvents, "_triangles_of", counted)
        rows = stats_series(stream, checkpoints=checkpoints)
        # one table, of the edges the last checkpoint sees
        assert built == [rows[-1].edges]
        if checkpoints is None:
            assert built == [stream.final_graph().edge_count]


class TestCsvAndAggregation:
    def test_csv_round_trip(self, tmp_path):
        stream = gf.grow(gf.GrowthRecipe.constant("BA", increments=25, new_targets=2), seed=1)
        rows = stats_series(stream, checkpoints=[5, 25])
        path = tmp_path / "stats.csv"
        write_stats_csv(path, rows)
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert len(got) == 2
        assert tuple(got[0]) == STAT_FIELDS
        assert int(got[0]["nodes"]) == rows[0].nodes
        assert float(got[1]["clustering"]) == rows[1].clustering

    def test_undefined_assortativity_written_as_text(self, tmp_path):
        g = gf.graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        path = tmp_path / "stats.csv"
        write_stats_csv(path, [graph_stats(g)])
        with open(path, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert got[0]["assortativity"] == "undefined"

    def test_aggregate_mean_and_half_width(self):
        recipe = gf.GrowthRecipe.constant("BA", increments=40, new_targets=2)
        runs = [
            stats_series(gf.grow(recipe, seed=s), checkpoints=[20, 40]) for s in range(5)
        ]
        cells = aggregate_series(runs, fields=("clustering",))
        assert len(cells) == 2
        cell = cells[0]["clustering"]
        values = [r[0].clustering for r in runs]
        assert abs(cell.mean - np.mean(values)) < 1e-12
        assert cell.runs == 5
        assert cell.half_width > 0.0
        sem = np.std(values, ddof=1) / np.sqrt(5)
        assert cell.half_width == pytest.approx(oracle_t_quantile(0.975, 4) * sem, rel=1e-13)

    def test_aggregate_rejects_runs_at_different_checkpoints(self):
        """BA runs of 40 and 100 increments have default checkpoints at
        4, 8, ... and at 10, 20, ...; their rows must not be paired."""
        short = stats_series(gf.grow(gf.GrowthRecipe.constant("BA", increments=40), seed=0))
        long = stats_series(gf.grow(gf.GrowthRecipe.constant("BA", increments=100), seed=0))
        with pytest.raises(gf.CheckpointError, match="run 1 is at 10 increments at position 0"):
            aggregate_series([short, long])

    def test_aggregate_rejects_runs_of_different_lengths(self):
        recipe = gf.GrowthRecipe.constant("BA", increments=40, new_targets=2)
        full = stats_series(gf.grow(recipe, seed=0), checkpoints=[10, 20, 40])
        part = stats_series(gf.grow(recipe, seed=1), checkpoints=[10, 20])
        with pytest.raises(gf.CheckpointError, match="differ from position 2"):
            aggregate_series([full, part])
        with pytest.raises(gf.CheckpointError, match="differ from position 2"):
            aggregate_series([part, full])


class TestTQuantile:
    def test_matches_quadrature_oracle(self):
        for df in list(range(1, 31)) + list(range(40, 1001, 40)) + [999]:
            assert t_quantile(0.975, df) == pytest.approx(
                oracle_t_quantile(0.975, df), rel=1e-13
            ), df

    def test_matches_scipy_ppf(self):
        for df in range(1, 1001):
            assert t_quantile(0.975, df) == pytest.approx(
                float(sps.t.ppf(0.975, df)), rel=1e-13
            ), df

    @pytest.mark.parametrize("prob, df", [(0.5, 3), (0.025, 3), (1.0, 3), (0.975, 0)])
    def test_rejects_arguments_outside_its_domain(self, prob, df):
        with pytest.raises(ValueError):
            t_quantile(prob, df)
