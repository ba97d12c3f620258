"""Tests for the dynamic graph and star-increment plumbing."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import growthfit as gf
from oracles import OracleRejection, _check_increment, oracle_triangle_count


class TestDynamicGraph:
    def test_add_nodes_and_edges(self):
        g = gf.DynamicGraph()
        assert g.add_node() == 0
        assert g.add_node() == 1
        assert g.add_node() == 2
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert g.num_nodes == 3
        assert g.edge_count == 2
        assert g.degrees == [1, 2, 1]
        assert sorted(g.neighbors(1)) == [0, 2]
        assert sorted(g.edges()) == [(0, 1), (1, 2)]
        g.check_invariants()

    def test_rejects_self_loops_and_duplicates(self):
        g = gf.clique_graph(3)
        with pytest.raises(gf.RejectedIncrementError):
            g.add_edge(1, 1)
        with pytest.raises(gf.RejectedIncrementError):
            g.add_edge(0, 1)

    def test_rejects_unknown_endpoints(self):
        g = gf.clique_graph(2)
        with pytest.raises(gf.UnknownNodeError):
            g.add_edge(0, 5)

    def test_common_neighbor_count(self):
        g = gf.graph_from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert g.common_neighbor_count(0, 3) == 2
        assert g.common_neighbor_count(0, 1) == 1
        assert g.common_neighbor_count(1, 2) == 2

    def test_clique_graph(self):
        g = gf.clique_graph(4)
        assert g.num_nodes == 4
        assert g.edge_count == 6
        assert oracle_triangle_count(4, list(g.edges())) == 4

    def test_graph_from_edges_with_isolates(self):
        g = gf.graph_from_edges([(0, 2)], num_nodes=5)
        assert g.num_nodes == 5
        assert g.degrees == [1, 0, 1, 0, 0]


class TestIncrement:
    def test_properties(self):
        inc = gf.Increment(
            timestamp=7,
            center=5,
            center_is_new=True,
            targets=(1, 6, 2),
            targets_new=(False, True, False),
        )
        assert inc.existing_targets == (1, 2)
        assert inc.new_nodes == (5, 6)
        assert inc.num_choices == 2

    def test_internal_center_counts_as_choice(self):
        inc = gf.Increment(
            timestamp=0,
            center=3,
            center_is_new=False,
            targets=(1, 2),
            targets_new=(False, False),
        )
        assert inc.new_nodes == ()
        assert inc.num_choices == 3

    def test_rejects_duplicate_targets(self):
        with pytest.raises(gf.RejectedIncrementError):
            gf.Increment(0, 4, True, (1, 1), (False, False))

    def test_rejects_center_in_targets(self):
        with pytest.raises(gf.RejectedIncrementError):
            gf.Increment(0, 2, False, (2, 3), (False, False))

    def test_target_tag_count_mismatch_is_a_stream_error(self):
        with pytest.raises(gf.StreamError, match="2 targets but 1 new-target tags"):
            gf.Increment(4, 3, True, (0, 1), (False,))
        rows = [(0, 3, True, (0, 1), (False, False)), (1, 4, True, (2,), (False, True))]
        with pytest.raises(gf.StreamError, match="t=1 has 1 targets but 2 new-target tags"):
            gf.GrowthStream([(0, 1), (1, 2)], (gf.Increment(*row) for row in rows))


class TestApplyIncrement:
    def test_external_star(self):
        g = gf.clique_graph(3)
        inc = gf.Increment(1, 3, True, (0, 2, 4), (False, False, True))
        gf.apply_increment(g, inc)
        assert g.num_nodes == 5
        assert g.degrees == [3, 2, 3, 3, 1]
        assert sorted(g.neighbors(3)) == [0, 2, 4]
        g.check_invariants()

    def test_internal_star(self):
        g = gf.graph_from_edges([(0, 1), (1, 2), (2, 3)])
        inc = gf.Increment(5, 0, False, (2, 3), (False, False))
        gf.apply_increment(g, inc)
        assert g.edge_count == 5
        assert sorted(g.neighbors(0)) == [1, 2, 3]

    def test_new_ids_must_be_sequential(self):
        g = gf.clique_graph(3)
        bad = gf.Increment(1, 9, True, (0, 1), (False, False))
        with pytest.raises(gf.UnknownNodeError):
            gf.apply_increment(g, bad)

    def test_new_target_ids_follow_center(self):
        g = gf.clique_graph(3)
        inc = gf.Increment(1, 3, True, (4, 0), (True, False))
        gf.apply_increment(g, inc)
        assert g.num_nodes == 5
        assert sorted(g.neighbors(3)) == [0, 4]

    def test_duplicate_edge_rejected(self):
        g = gf.clique_graph(3)
        inc = gf.Increment(1, 0, False, (1,), (False,))
        with pytest.raises(gf.RejectedIncrementError):
            gf.apply_increment(g, inc)


def path_graph():
    return gf.graph_from_edges([(0, 1), (1, 2), (2, 3)])


def snapshot(graph):
    return graph.num_nodes, graph.edge_count, list(graph.degrees), sorted(graph.edges())


def assert_applies_as_oracle(graph, inc):
    """apply_increment raises the reference check's error and leaves the graph, or applies."""
    before = snapshot(graph)
    try:
        after = _check_increment(graph.adj, inc)
    except OracleRejection as rejection:
        with pytest.raises(gf.GraphError) as got:
            gf.apply_increment(graph, inc)
        assert (type(got.value).__name__, str(got.value)) == (rejection.kind, rejection.message)
        assert snapshot(graph) == before
        return
    gf.apply_increment(graph, inc)
    assert graph.num_nodes == after
    assert graph.edge_count == before[1] + len(inc.targets)
    graph.check_invariants()


class TestApplyIncrementErrors:
    @pytest.mark.parametrize(
        "inc",
        [
            gf.Increment(1, 9, True, (0, 1), (False, False)),  # new center skips an id
            gf.Increment(1, 7, False, (0,), (False,)),  # existing center past the graph
            gf.Increment(1, -1, False, (0,), (False,)),  # negative existing center
            gf.Increment(1, 4, True, (6, 0), (True, False)),  # new target skips an id
            gf.Increment(1, 0, False, (5,), (True,)),  # new target after an existing center
            gf.Increment(1, 4, True, (0, 8), (False, False)),  # existing target past the graph
            gf.Increment(1, 0, False, (2, 1), (False, False)),  # edge (0, 1) already there
            gf.Increment(1, 0, False, (1, 9), (False, False)),  # first bad target is reported
            gf.Increment(1, 8, False, (1, 9), (False, False)),  # bad center before bad target
            gf.Increment(1, 3, False, (1, 4), (False, True)),  # applies
        ],
    )
    def test_error_type_message_and_untouched_graph(self, inc):
        assert_applies_as_oracle(path_graph(), inc)

    def test_value_outside_int64_is_a_stream_error(self):
        graph = path_graph()
        before = snapshot(graph)
        for inc in (
            gf.Increment(2**63, 0, False, (2,), (False,)),
            gf.Increment(2**63, 4, True, (0,), (False,)),
            gf.Increment(0, 0, False, (2**64,), (False,)),
            gf.Increment(0, -(2**70), False, (1,), (False,)),
        ):
            with pytest.raises(gf.StreamError, match="outside the 64-bit range"):
                gf.apply_increment(graph, inc)
            with pytest.raises(gf.StreamError, match="outside the 64-bit range"):
                gf.increment_probability(graph, inc, gf.parse_model_spec("BA"))
        assert snapshot(graph) == before

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8),
        center=st.integers(-1, 7),
        center_is_new=st.booleans(),
        targets=st.lists(st.tuples(st.integers(-1, 8), st.booleans()), min_size=1, max_size=4),
    )
    def test_matches_the_reference_check(self, edges, center, center_is_new, targets):
        ids = [t for t, _ in targets]
        assume(len(set(ids)) == len(ids) and center not in ids)
        graph = gf.graph_from_edges({(min(e), max(e)) for e in edges if e[0] != e[1]}, 5)
        inc = gf.Increment(0, center, center_is_new, tuple(ids), tuple(n for _, n in targets))
        assert_applies_as_oracle(graph, inc)


class TestGrowthStream:
    def test_seed_and_final_graph(self):
        stream = gf.GrowthStream(
            seed_edges=[(0, 1), (1, 2), (0, 2)],
            increments=[
                gf.Increment(0, 3, True, (0, 1), (False, False)),
                gf.Increment(1, 4, True, (3, 2), (False, False)),
            ],
        )
        assert stream.seed_graph().num_nodes == 3
        final = stream.final_graph()
        assert final.num_nodes == 5
        assert final.edge_count == 7

    def test_labels_default_to_ids(self):
        stream = gf.GrowthStream(seed_edges=[(0, 1)], increments=[])
        assert stream.label(0) == "0"
        assert stream.label(1) == "1"
