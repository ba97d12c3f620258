"""Ingesting edge streams and converting between on-disk formats.

Three formats, all line-oriented UTF-8 text with ``#`` comment lines:

* edge list: ``SOURCE<TAB>DEST<TAB>TIMESTAMP`` per row, one edge arrival
  each; the raw-dataset interchange format.
* star stream: ``# star-stream v1`` header, optional ``# seed-edge<TAB>A<TAB>B``
  lines carrying an unscored starting graph, then ``t<TAB>center<TAB>t1,t2``
  rows, one star per row.  Lossless for replay and scoring because the seed
  graph travels with the stream.
* op schedule: ``# op-schedule v1`` header, then
  ``t<TAB>center_new<TAB>new_targets<TAB>existing_targets`` rows recording
  only the shape of each growth event (for regenerating structurally
  matched synthetic streams).

Node ids in files are opaque strings; dense integer indices are assigned by
first appearance, center before targets, which makes every new-tagged node's
index equal its arrival rank minus one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import StreamParseError
from .events import StreamColumns, offsets
from .graph import GrowthStream

STAR_STREAM_HEADER = "# star-stream v1"
OP_SCHEDULE_HEADER = "# op-schedule v1"
SEED_EDGE_PREFIX = "# seed-edge\t"
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class EdgeRecord:
    """One edge arrival as read from a dataset row."""

    source: str
    dest: str
    timestamp: int


@dataclass
class CleaningReport:
    """Counts of rows kept and dropped, by reason, during cleaning."""

    input_records: int = 0
    kept: int = 0
    self_loops: int = 0
    duplicates: int = 0
    disconnected: int = 0

    def to_dict(self) -> dict[str, int]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def __str__(self) -> str:
        return "\n".join(f"{k}\t{v}" for k, v in self.to_dict().items())


def _read_text(source) -> str:
    """The whole text of a path or a text file object."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    return source.read()


def _open_lines(source) -> Iterator[tuple[int, str]]:
    """(1-based line number, line without its end) of a path or a text file object."""
    text = _read_text(source)
    return enumerate((line.rstrip("\r") for line in text.split("\n")) if text else (), start=1)


def _out_of_range(timestamp: int, lineno: int) -> StreamParseError:
    return StreamParseError(
        f"timestamp {timestamp} is outside the 64-bit integer range", line_number=lineno
    )


def _edge_rows(source) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """(names, source ids, dest ids, timestamps) of an edge list's rows, in file order.

    Node names are numbered in order of first appearance.  Malformed rows
    raise with their line number.
    """
    names: dict[str, int] = {}
    intern = names.setdefault
    src: list[int] = []
    dst: list[int] = []
    stamps: list[int] = []
    for lineno, line in enumerate(_read_text(source).split("\n"), start=1):
        fields = line.split("\t")
        if len(fields) == 3 and line[0] != "#":
            a, b, ts = fields
            a, b = a.strip(), b.strip()
            if a and b:
                try:
                    timestamp = int(ts)
                except ValueError:
                    raise StreamParseError(
                        f"bad timestamp {ts.strip()!r}", line_number=lineno
                    ) from None
                if not INT64_MIN <= timestamp <= INT64_MAX:
                    raise _out_of_range(timestamp, lineno)
                stamps.append(timestamp)
                src.append(intern(a, len(names)))
                dst.append(intern(b, len(names)))
                continue
        # Not a data row: blank and comment lines are skipped, the rest are malformed.
        if line.strip() and line[0] != "#":
            if len(fields) == 3:
                raise StreamParseError("empty node id", line_number=lineno)
            raise StreamParseError(
                f"expected 3 tab-separated fields, got {len(fields)}", line_number=lineno
            )
    return list(names), *(np.array(c, dtype=np.int64) for c in (src, dst, stamps))


def _admit(src, dst, stamps: np.ndarray) -> tuple[np.ndarray, CleaningReport]:
    """The rows a growing simple graph admits, in admission order, and the counts of the rest.

    Rows are stable-sorted by timestamp, so same-timestamp rows keep file
    order and star runs survive.  In priority order, a row is dropped as a
    self-loop, as a repeat of an admitted node pair (either orientation), or
    as touching no admitted node (which would start a second component)
    once any row is admitted.  A node seen only on dropped rows is not
    admitted and may arrive later.
    """
    order = np.argsort(stamps, kind="stable")
    src, dst = src[order], dst[order]
    loops = src == dst
    rows = np.flatnonzero(~loops)
    span = int(max(src.max(initial=0), dst.max(initial=0))) + 1
    keys = np.minimum(src, dst) * span + np.maximum(src, dst)
    admitted = bytearray(span)
    pairs: set[int] = set()
    kept: list[int] = []
    duplicates = disconnected = 0
    for row, a, b, key in zip(
        rows.tolist(), src[rows].tolist(), dst[rows].tolist(), keys[rows].tolist()
    ):
        if key in pairs:
            duplicates += 1
        elif pairs and not (admitted[a] or admitted[b]):
            disconnected += 1
        else:
            pairs.add(key)
            admitted[a] = admitted[b] = 1
            kept.append(row)
    report = CleaningReport(len(order), len(kept), int(loops.sum()), duplicates, disconnected)
    return order[np.array(kept, dtype=np.int64)], report


def _stars(names: list[str], src, dst, stamps: np.ndarray) -> tuple[StreamColumns, list[str]]:
    """Star columns of rows, and the labels of their nodes.

    A star is a maximal run of consecutive rows sharing (timestamp, source),
    centred on that source.  The first row of an empty stream forms a star
    whose center and target are both new, so nothing about the starting
    edge is ever treated as a model choice.
    """
    rows = len(src)
    starts = (stamps[1:] != stamps[:-1]) | (src[1:] != src[:-1])
    first_row = np.flatnonzero(np.concatenate(([rows > 0], starts)))
    gain = np.diff(np.append(first_row, rows))
    seen = np.insert(dst, first_row, src[first_row])
    cols, nodes, _ = _star_columns(seen, stamps[first_row], gain, 0, 0)
    return cols, [names[v] for v in nodes.tolist()]


def _star_columns(seen: np.ndarray, stamps, gain, skip: int, first_nodes: int) -> tuple:
    """Columns of stars from their node references, numbered by first appearance.

    ``seen[skip:]`` holds each star's center followed by its ``gain[k]``
    targets; the first ``skip`` references (seed edge ends) are numbered
    but belong to no star.  A node is new in the star where it first
    appears.  Returns the columns, the referenced values in id order and
    the ids of the first ``skip`` references.
    """
    nodes, first, inverse = np.unique(seen, return_index=True, return_inverse=True)
    by_arrival = np.argsort(first)
    rank = np.empty_like(by_arrival)
    rank[by_arrival] = np.arange(len(nodes))
    ids, new = rank[inverse], first[inverse] == np.arange(len(seen))
    centers = skip + offsets(gain + 1)[:-1]
    targets = np.ones(len(seen), dtype=bool)
    targets[:skip] = False
    targets[centers] = False
    cols = StreamColumns.build(
        stamps, ids[centers], new[centers], gain, ids[targets], new[targets], first_nodes
    )
    return cols, nodes[by_arrival], ids[:skip]


def write_edge_file(path, records: Iterable[EdgeRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(f"{rec.source}\t{rec.dest}\t{rec.timestamp}\n")


def ingest_edge_file(source) -> tuple[GrowthStream, CleaningReport]:
    """Read an edge list, clean it (see ``_admit``) and group it into stars (see ``_stars``).

    Returns the stream and the cleaning counts; malformed rows raise with
    their line number.
    """
    names, src, dst, stamps = _edge_rows(source)
    kept, report = _admit(src, dst, stamps)
    cols, labels = _stars(names, src[kept], dst[kept], stamps[kept])
    return GrowthStream.from_columns([], cols, labels), report


@dataclass(frozen=True)
class StreamSummary:
    """Shape diagnostics of a star stream."""

    increments: int = 0
    edges: int = 0
    external_stars: int = 0
    internal_stars: int = 0
    new_nodes: int = 0
    model_choices: int = 0
    max_star_size: int = 0

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


def summarize_stream(stream: GrowthStream) -> StreamSummary:
    """Count stars by kind; a star is external iff it brings any new node."""
    cols = stream.columns
    external = int(np.count_nonzero(np.diff(cols.node_offsets)))
    return StreamSummary(
        increments=cols.num_increments,
        edges=len(cols.target),
        external_stars=external,
        internal_stars=cols.num_increments - external,
        new_nodes=cols.final_nodes - int(cols.node_offsets[0]),
        model_choices=int(np.count_nonzero(~cols.center_new) + np.count_nonzero(~cols.target_new)),
        max_star_size=int(cols.gain.max(initial=0)),
    )


@dataclass(frozen=True)
class OperationRow:
    """Shape of one growth event, with all node identity removed."""

    timestamp: int
    center_new: bool
    new_targets: int
    existing_targets: int


@dataclass
class OperationSchedule:
    rows: list[OperationRow] = field(default_factory=list)


def extract_operation_schedule(stream: GrowthStream) -> OperationSchedule:
    cols = stream.columns
    new = np.bincount(cols.target_inc[cols.target_new], minlength=cols.num_increments)
    rows = map(
        OperationRow,
        cols.timestamp.tolist(),
        cols.center_new.tolist(),
        new.tolist(),
        (cols.gain - new).tolist(),
    )
    return OperationSchedule(list(rows))


def _checked_label(name: str) -> str:
    if "\t" in name or "," in name or "\n" in name:
        raise StreamParseError(f"node id {name!r} contains a reserved separator")
    return name


def write_star_stream(path, stream: GrowthStream) -> None:
    cols = stream.columns

    def name(node: int) -> str:
        return _checked_label(stream.label(node))

    bounds = offsets(cols.gain).tolist()
    targets = cols.target.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(STAR_STREAM_HEADER + "\n")
        for u, v in stream.seed_edges:
            fh.write(f"{SEED_EDGE_PREFIX}{name(u)}\t{name(v)}\n")
        for t, c, a, b in zip(cols.timestamp.tolist(), cols.center.tolist(), bounds, bounds[1:]):
            fh.write(f"{t}\t{name(c)}\t{','.join(map(name, targets[a:b]))}\n")


def read_star_stream(source) -> GrowthStream:
    """Read a star-stream file; new/existing tags come from first appearance."""
    lines = _open_lines(source)
    try:
        first = next(lines)
    except StopIteration:
        raise StreamParseError("empty file", line_number=1) from None
    if first[1] != STAR_STREAM_HEADER:
        raise StreamParseError(
            f"expected header {STAR_STREAM_HEADER!r}", line_number=first[0]
        )
    # Node names in order of reference: seed edges' ends, then each star's
    # center and targets.
    refs: list[str] = []
    seeds = 0
    stamps: list[int] = []
    gains: list[int] = []
    for lineno, line in lines:
        if line.startswith(SEED_EDGE_PREFIX):
            if stamps:
                raise StreamParseError("seed edges must precede stars", line_number=lineno)
            fields = line[len(SEED_EDGE_PREFIX) :].split("\t")
            if len(fields) != 2:
                raise StreamParseError("seed edge needs 2 node ids", line_number=lineno)
            refs += fields
            seeds += 1
            continue
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise StreamParseError(
                f"expected 3 tab-separated fields, got {len(fields)}", line_number=lineno
            )
        try:
            timestamp = int(fields[0])
        except ValueError:
            raise StreamParseError(f"bad timestamp {fields[0]!r}", line_number=lineno) from None
        if not INT64_MIN <= timestamp <= INT64_MAX:
            raise _out_of_range(timestamp, lineno)
        if stamps and timestamp < stamps[-1]:
            raise StreamParseError(
                f"timestamp {timestamp} is below the previous star's {stamps[-1]}",
                line_number=lineno,
            )
        if not fields[1] or not fields[2]:
            raise StreamParseError("empty center or target list", line_number=lineno)
        names = fields[2].split(",")
        if not all(names):
            raise StreamParseError("empty target id", line_number=lineno)
        # The checks ``Increment`` makes, in its order.
        if len(set(names)) != len(names):
            raise StreamParseError(
                f"duplicate targets in increment at t={timestamp}", line_number=lineno
            )
        if fields[1] in names:
            raise StreamParseError(f"self-loop in increment at t={timestamp}", line_number=lineno)
        stamps.append(timestamp)
        gains.append(len(names))
        refs.append(fields[1])
        refs += names
    index: dict[str, int] = {}
    seen = np.array([index.setdefault(name, len(index)) for name in refs], dtype=np.int64)
    # Seed names come first, so the seed graph's nodes are 0 .. k - 1.
    cols, nodes, seed_ids = _star_columns(
        seen,
        np.array(stamps, dtype=np.int64),
        np.array(gains, dtype=np.int64),
        2 * seeds,
        len(set(refs[: 2 * seeds])),
    )
    seed_ids = seed_ids.tolist()
    seed_edges = list(zip(seed_ids[0::2], seed_ids[1::2]))
    labels = list(index)
    return GrowthStream.from_columns(seed_edges, cols, [labels[v] for v in nodes.tolist()])


def write_op_schedule(path, schedule: OperationSchedule) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(OP_SCHEDULE_HEADER + "\n")
        for row in schedule.rows:
            fh.write(
                f"{row.timestamp}\t{int(row.center_new)}\t{row.new_targets}\t"
                f"{row.existing_targets}\n"
            )


def read_op_schedule(source) -> OperationSchedule:
    lines = _open_lines(source)
    try:
        first = next(lines)
    except StopIteration:
        raise StreamParseError("empty file", line_number=1) from None
    if first[1] != OP_SCHEDULE_HEADER:
        raise StreamParseError(
            f"expected header {OP_SCHEDULE_HEADER!r}", line_number=first[0]
        )
    rows: list[OperationRow] = []
    for lineno, line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise StreamParseError(
                f"expected 4 tab-separated fields, got {len(fields)}", line_number=lineno
            )
        try:
            ts, flag, new_t, old_t = (int(f) for f in fields)
        except ValueError:
            raise StreamParseError("non-integer field", line_number=lineno) from None
        if flag not in (0, 1) or new_t < 0 or old_t < 0 or new_t + old_t == 0:
            raise StreamParseError("invalid op shape", line_number=lineno)
        if not INT64_MIN <= ts <= INT64_MAX:
            raise _out_of_range(ts, lineno)
        if rows and ts < rows[-1].timestamp:
            raise StreamParseError(
                f"timestamp {ts} is below the previous row's {rows[-1].timestamp}",
                line_number=lineno,
            )
        rows.append(OperationRow(ts, bool(flag), new_t, old_t))
    return OperationSchedule(rows)


def stream_edge_records(
    stream: GrowthStream, include_seed: bool = True, seed_timestamp: int | None = None
) -> Iterator[EdgeRecord]:
    """Flatten a star stream to edge rows (lossy: the seed stops being special).

    Seed edges are emitted first at ``seed_timestamp`` (default: one before
    the first star, or 0); re-ingesting the rows will score them like any
    other arrivals.
    """
    cols, label = stream.columns, stream.label
    if include_seed and stream.seed_edges:
        if seed_timestamp is None:
            seed_timestamp = int(cols.timestamp[0]) - 1 if cols.num_increments else 0
        for u, v in stream.seed_edges:
            yield EdgeRecord(label(u), label(v), seed_timestamp)
    tinc = cols.target_inc
    for c, t, ts in zip(
        cols.center[tinc].tolist(), cols.target.tolist(), cols.timestamp[tinc].tolist()
    ):
        yield EdgeRecord(label(c), label(t), ts)


def sniff_format(path) -> str:
    """Identify a stream file: 'star-stream', 'op-schedule', or 'edges'."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline().rstrip("\r\n")
    if head == STAR_STREAM_HEADER:
        return "star-stream"
    if head == OP_SCHEDULE_HEADER:
        return "op-schedule"
    return "edges"


def load_stream(path) -> GrowthStream:
    """Load either format as a GrowthStream (edge lists are cleaned first)."""
    kind = sniff_format(path)
    if kind == "star-stream":
        return read_star_stream(path)
    if kind == "op-schedule":
        raise StreamParseError("op schedules carry no node identities; cannot score them")
    stream, _ = ingest_edge_file(path)
    return stream
