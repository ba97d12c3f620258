"""Tests for the dynamic graph and star-increment plumbing."""

import pytest

import growthfit as gf
from oracles import oracle_triangle_count


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
