"""Tests for edge-list ingestion, cleaning, grouping, and file round-trips."""

import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import growthfit as gf
from growthfit.events import StreamColumns
from growthfit.stream import (
    EdgeRecord,
    extract_operation_schedule,
    ingest_edge_file,
    load_stream,
    read_op_schedule,
    read_star_stream,
    sniff_format,
    stream_edge_records,
    summarize_stream,
    write_edge_file,
    write_op_schedule,
    write_star_stream,
)
from oracles import OracleRejection, oracle_ingest

SAMPLE = """# comment line
A\tB\t0
B\tC\t1
C\tC\t2
A\tB\t2
D\tE\t9
B\tD\t3
D\tB\t3
E\tA\t4
"""


def ingest(text):
    return ingest_edge_file(io.StringIO(text))


def kept_records(text):
    """The edge rows ingest keeps, in admission order, with the cleaning report."""
    stream, report = ingest(text)
    return list(stream_edge_records(stream)), report


class TestParseEdgeFile:
    def test_parses_records_and_skips_comments(self):
        kept, report = kept_records(SAMPLE)
        assert report.input_records == 8
        assert kept == [
            EdgeRecord("A", "B", 0),
            EdgeRecord("B", "C", 1),
            EdgeRecord("B", "D", 3),
            EdgeRecord("E", "A", 4),
            EdgeRecord("D", "E", 9),
        ]

    def test_wrong_field_count_reports_line_number(self):
        with pytest.raises(gf.StreamParseError) as exc:
            ingest("A\tB\t0\nA\tB\n")
        assert exc.value.line_number == 2

    def test_non_integer_timestamp_reports_line_number(self):
        with pytest.raises(gf.StreamParseError) as exc:
            ingest("A\tB\tzero\n")
        assert exc.value.line_number == 1

    def test_fractional_timestamp_reports_line_number(self):
        with pytest.raises(gf.StreamParseError) as exc:
            ingest("A\tB\t0\nA\tC\t1.5\n")
        assert exc.value.line_number == 2

    def test_timestamp_outside_int64_reports_line_number(self):
        with pytest.raises(gf.StreamParseError, match="outside the 64-bit") as exc:
            ingest("a\tb\t1\nb\tc\t99999999999999999999999\n")
        assert exc.value.line_number == 2

    def test_round_trip_through_file(self, tmp_path):
        stream, _ = ingest(SAMPLE)
        path = tmp_path / "edges.tsv"
        write_edge_file(path, stream_edge_records(stream))
        back, report = ingest_edge_file(path)
        assert report.kept == report.input_records == 5
        assert back.labels == stream.labels
        for name, want in vars(stream.columns).items():
            assert np.array_equal(getattr(back.columns, name), want), name


class TestCleanStream:
    def test_priorities_and_counts(self):
        stream, report = ingest(SAMPLE)
        assert report.to_dict() == {
            "input_records": 8,
            "kept": 5,
            "self_loops": 1,
            "duplicates": 2,
            "disconnected": 0,
        }
        assert stream.columns.timestamp.tolist() == [0, 1, 3, 4, 9]

    def test_reversed_duplicate_is_dropped(self):
        kept, report = kept_records("A\tB\t0\nB\tA\t5\n")
        assert len(kept) == 1
        assert report.duplicates == 1

    def test_disconnected_edges_dropped_until_touching(self):
        kept, report = kept_records(
            "A\tB\t0\n"
            "X\tY\t1\n"  # neither endpoint known yet
            "A\tX\t2\n"  # admits X
            "X\tY\t3\n"  # now attaches
        )
        assert report.disconnected == 1
        assert report.kept == 3
        assert kept[-1] == EdgeRecord("X", "Y", 3)

    def test_first_edge_of_empty_graph_is_kept(self):
        _, report = ingest("P\tQ\t7\n")
        assert report.kept == 1
        assert report.disconnected == 0

    def test_sort_is_stable_within_timestamp(self):
        kept, _ = kept_records("A\tB\t1\nA\tC\t0\nA\tD\t1\n")
        assert [(r.dest, r.timestamp) for r in kept] == [("C", 0), ("B", 1), ("D", 1)]


class TestGroupIncrements:
    def test_stars_group_by_timestamp_and_source(self):
        stream, _ = ingest(
            "A\tB\t0\n"
            "C\tA\t1\n"
            "C\tB\t1\n"
            "B\tD\t2\n"  # different source: separate increment
        )
        assert len(stream.increments) == 3
        star = stream.increments[1]
        assert star.center == 2
        assert star.targets == (0, 1)
        assert star.targets_new == (False, False)

    def test_labels_follow_first_appearance(self):
        stream, _ = ingest(SAMPLE)
        assert stream.labels == ["A", "B", "C", "D", "E"]
        assert stream.label(3) == "D"

    def test_new_and_existing_tags(self):
        stream, _ = ingest(SAMPLE)
        first = stream.increments[0]
        assert first.center_is_new and first.targets_new == (True,)
        last = stream.increments[-1]
        assert not last.center_is_new and last.targets_new == (False,)

    def test_summary_counts(self):
        summary = summarize_stream(ingest(SAMPLE)[0])
        assert summary.increments == 5
        assert summary.edges == 5
        assert summary.new_nodes == 5
        assert summary.internal_stars == 1
        assert summary.model_choices == 5

    def test_ingest_is_parse_clean_group(self):
        stream, report = ingest(SAMPLE)
        assert report.kept == 5
        assert stream.final_graph().num_nodes == 5


class TestStarStreamFormat:
    def make_stream(self):
        return gf.grow(
            gf.GrowthRecipe.constant(
                "0.6*BA + 0.4*RAND",
                increments=40,
                new_targets=2,
                internal_prob=0.25,
                internal_targets=1,
                seed_clique=4,
            ),
            seed=0,
        )

    def test_round_trip(self, tmp_path):
        stream = self.make_stream()
        path = tmp_path / "growth.stars"
        write_star_stream(path, stream)
        back = read_star_stream(path)
        assert back.seed_edges == stream.seed_edges
        assert back.increments == stream.increments

    def test_header_and_seed_lines(self, tmp_path):
        stream = self.make_stream()
        path = tmp_path / "growth.stars"
        write_star_stream(path, stream)
        lines = path.read_text().splitlines()
        assert lines[0] == "# star-stream v1"
        assert lines[1].startswith("# seed-edge\t")

    def test_sniff_and_load(self, tmp_path):
        stream = self.make_stream()
        spath = tmp_path / "growth.stars"
        write_star_stream(spath, stream)
        assert sniff_format(spath) == "star-stream"
        assert load_stream(spath).increments == stream.increments

        epath = tmp_path / "growth.tsv"
        write_edge_file(epath, stream_edge_records(stream))
        assert sniff_format(epath) == "edges"
        loaded = load_stream(epath)
        assert loaded.final_graph().edge_count == stream.final_graph().edge_count

    def test_edge_records_include_seed_before_growth(self):
        stream = self.make_stream()
        recs = list(stream_edge_records(stream))
        seed_count = len(stream.seed_edges)
        first_t = stream.increments[0].timestamp
        assert all(r.timestamp == first_t - 1 for r in recs[:seed_count])
        assert len(recs) == seed_count + sum(len(i.targets) for i in stream.increments)

    def test_ids_follow_first_appearance_center_before_targets(self, tmp_path):
        path = tmp_path / "named.stars"
        path.write_text("# star-stream v1\n# seed-edge\tx\ty\n5\tz\ty,w,x\n6\tw\tv,z\n")
        stream = read_star_stream(path)
        assert stream.labels == ["x", "y", "z", "w", "v"]
        assert stream.seed_edges == [(0, 1)]
        first, second = stream.increments
        assert (first.center, first.center_is_new) == (2, True)
        assert first.targets == (1, 3, 0) and first.targets_new == (False, True, False)
        assert (second.center, second.center_is_new) == (3, False)
        assert second.targets == (4, 2) and second.targets_new == (True, False)

    def test_empty_target_id_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.stars"
        path.write_text("# star-stream v1\n0\ta\tb\n1\ta\tc,,d\n")
        with pytest.raises(gf.StreamParseError, match="empty target id") as exc:
            read_star_stream(path)
        assert exc.value.line_number == 3

    def test_decreasing_timestamp_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.stars"
        path.write_text("# star-stream v1\n5\ta\tb\n1\tc\ta\n9\td\tc\n3\te\td\n")
        with pytest.raises(gf.StreamParseError, match="timestamp 1 is below") as exc:
            read_star_stream(path)
        assert exc.value.line_number == 3

    def test_equal_timestamps_are_valid(self, tmp_path):
        path = tmp_path / "tied.stars"
        path.write_text("# star-stream v1\n3\ta\tb\n3\tc\ta\n4\td\tc\n")
        assert [inc.timestamp for inc in read_star_stream(path).increments] == [3, 3, 4]

    def test_timestamp_outside_int64_reports_line_number(self, tmp_path):
        path = tmp_path / "big.stars"
        path.write_text("# star-stream v1\n0\ta\tb\n99999999999999999999999\tb\tc\n")
        with pytest.raises(gf.StreamParseError, match="outside the 64-bit") as exc:
            read_star_stream(path)
        assert exc.value.line_number == 3

    def test_corrupt_star_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.stars"
        path.write_text("# star-stream v1\n# seed-edge\t0\t1\n0\t2\n")
        with pytest.raises(gf.StreamParseError) as exc:
            read_star_stream(path)
        assert exc.value.line_number == 3


class TestOpScheduleFormat:
    def test_round_trip(self, tmp_path):
        stream = gf.grow(
            gf.GrowthRecipe.constant(
                "RAND", increments=20, new_targets=2, internal_prob=0.3,
                internal_targets=1, seed_clique=4,
            ),
            seed=0,
        )
        ops = extract_operation_schedule(stream)
        path = tmp_path / "shape.ops"
        write_op_schedule(path, ops)
        back = read_op_schedule(path)
        assert back.rows == ops.rows
        assert sniff_format(path) == "op-schedule"

    def test_replay_reproduces_shapes(self):
        stream = gf.grow(
            gf.GrowthRecipe.constant(
                "RAND", increments=30, new_targets=3, internal_prob=0.2,
                internal_targets=2, seed_clique=5,
            ),
            seed=1,
        )
        ops = extract_operation_schedule(stream)
        replay = gf.grow(gf.GrowthRecipe.constant("BA"), seed=9, op_schedule=ops)
        assert len(replay.increments) == len(stream.increments)
        for a, b in zip(replay.increments, stream.increments):
            assert a.timestamp == b.timestamp
            assert a.center_is_new == b.center_is_new
            assert len(a.existing_targets) == len(b.existing_targets)
            assert len(a.new_nodes) == len(b.new_nodes)

    def test_timestamp_outside_int64_reports_line_number(self, tmp_path):
        path = tmp_path / "big.ops"
        path.write_text("# op-schedule v1\n0\t1\t0\t1\n99999999999999999999999\t1\t0\t1\n")
        with pytest.raises(gf.StreamParseError, match="outside the 64-bit") as exc:
            read_op_schedule(path)
        assert exc.value.line_number == 3

    def test_decreasing_timestamp_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.ops"
        path.write_text("# op-schedule v1\n5\t1\t0\t1\n5\t0\t1\t0\n2\t1\t0\t2\n")
        with pytest.raises(gf.StreamParseError, match="timestamp 2 is below") as exc:
            read_op_schedule(path)
        assert exc.value.line_number == 4


class TestGrowthStreamColumns:
    def test_list_constructor_refuses_values_outside_int64(self):
        good = gf.Increment(0, 0, True, (1,), (True,))
        bad = gf.Increment(2**63, 2, True, (0,), (False,))
        with pytest.raises(gf.StreamError, match="outside the 64-bit range"):
            gf.GrowthStream([], [good, bad])

    def test_columns_are_read_only_and_increments_a_fresh_list(self):
        stream, _ = ingest_edge_file(io.StringIO(SAMPLE))
        with pytest.raises(ValueError):
            stream.columns.target[0] = 3
        listed = stream.increments
        listed.clear()
        assert len(stream.increments) == 5

    def test_seed_edges_are_a_fresh_list(self):
        inc = gf.Increment(0, 3, True, (0, 1), (False, False))
        spec = gf.parse_model_spec("0.5*BA + 0.5*RAND")
        given = [[0, 1], [1, 2]]
        stream = gf.GrowthStream(given, [inc])
        given[0][1] = 2
        stream.seed_edges.append((0, 2))
        assert stream.seed_edges == [(0, 1), (1, 2)]
        assert sorted(stream.seed_graph().edges()) == [(0, 1), (1, 2)]
        # (0, 2) would raise node 0's degree, which BA scores
        fresh = gf.GrowthStream([(0, 1), (1, 2)], [inc])
        assert gf.score_stream(stream, spec)[0] == gf.score_stream(fresh, spec)[0]


NAMES = ["a", "b", "c", "d", "x y", "n10"]
PADDING = ["", " ", "  "]
# Rows the parser must refuse, each with its line number.
MALFORMED = [
    "a\tb",
    "a\tb\t1\t2",
    "\tb\t1",
    "a\t \t1",
    "a\tb\tone",
    "a\tb\t1.5",
    "a\tb\t",
    "a\tb\t9223372036854775808",
    "a\tb\t-9223372036854775809",
]


@st.composite
def edge_files(draw):
    """(line, line end) pairs of an edge file.

    Comment, blank and whitespace-only lines, CRLF ends and padded fields
    come between rows over a few names and timestamps, so self-loops,
    repeats in both orientations and equal timestamps out of file order are
    common.  A malformed row is rare.
    """
    kinds = ["row"] * 8 + ["comment", "blank", "space"] + ["bad"] * draw(st.sampled_from([0, 1]))
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        if kind == "row":
            fields = (
                draw(st.sampled_from(NAMES)),
                draw(st.sampled_from(NAMES)),
                str(draw(st.integers(-2, 4))),
            )
            line = "\t".join(
                draw(st.sampled_from(PADDING)) + f + draw(st.sampled_from(PADDING)) for f in fields
            )
        else:
            line = {"comment": "# note\twith\ttabs", "blank": "", "space": " \t "}.get(kind)
            if line is None:
                line = draw(st.sampled_from(MALFORMED))
        lines.append((line, draw(st.sampled_from(["\n", "\r\n"]))))
    return lines


class TestIngestAgainstOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lines=edge_files())
    # x-y is dropped as disconnected at t=1 and admitted at t=3
    @example(lines=[("a\tb\t0", "\n"), ("x\ty\t1", "\n"), ("a\tx\t2", "\n"), ("x\ty\t3", "\n")])
    def test_columns_labels_report_and_increments(self, lines):
        raw = "".join(line + end for line, end in lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.tsv"
            path.write_bytes(raw.encode())
            sources = (path, io.StringIO(raw))
            try:
                labels, increments, counts = oracle_ingest(path)
            except OracleRejection as rejection:
                for source in sources:
                    with pytest.raises(gf.StreamParseError) as got:
                        ingest_edge_file(source)
                    assert f"line {got.value.line_number}" == rejection.message
                return
            expected = StreamColumns.of([gf.Increment(*inc) for inc in increments], 0)

            def assert_stream(stream):
                assert stream.labels == labels
                assert [tuple(vars(inc).values()) for inc in stream.increments] == increments
                for name, want in vars(expected).items():
                    got = getattr(stream.columns, name)
                    assert got.dtype == want.dtype and np.array_equal(got, want), name

            for source in sources:
                stream, report = ingest_edge_file(source)
                assert report.to_dict() == counts
                assert_stream(stream)
            stars = Path(tmp) / "edges.stars"
            write_star_stream(stars, stream)
            assert_stream(read_star_stream(stars))
