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
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

from .errors import StreamParseError
from .graph import GrowthStream, Increment

STAR_STREAM_HEADER = "# star-stream v1"
OP_SCHEDULE_HEADER = "# op-schedule v1"
SEED_EDGE_PREFIX = "# seed-edge\t"


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
        return {
            "input_records": self.input_records,
            "kept": self.kept,
            "self_loops": self.self_loops,
            "duplicates": self.duplicates,
            "disconnected": self.disconnected,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def __str__(self) -> str:
        return "\n".join(f"{k}\t{v}" for k, v in self.to_dict().items())


def _open_lines(source) -> Iterator[tuple[int, str]]:
    """Yield (1-based line number, stripped line) from a path or file object."""
    if isinstance(source, (str, Path)):
        fh = open(source, "r", encoding="utf-8")
        close = True
    else:
        fh, close = source, False
    try:
        for lineno, raw in enumerate(fh, start=1):
            yield lineno, raw.rstrip("\r\n")
    finally:
        if close:
            fh.close()


def parse_edge_file(source) -> list[EdgeRecord]:
    """Read an edge list; malformed rows raise with their line number."""
    records: list[EdgeRecord] = []
    for lineno, line in _open_lines(source):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise StreamParseError(
                f"expected 3 tab-separated fields, got {len(fields)}", line_number=lineno
            )
        src, dst, ts = (f.strip() for f in fields)
        if not src or not dst:
            raise StreamParseError("empty node id", line_number=lineno)
        try:
            timestamp = int(ts)
        except ValueError:
            raise StreamParseError(
                f"bad timestamp {ts!r}", line_number=lineno
            ) from None
        records.append(EdgeRecord(src, dst, timestamp))
    return records


def write_edge_file(path, records: Iterable[EdgeRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(f"{rec.source}\t{rec.dest}\t{rec.timestamp}\n")


def clean_stream(records: Iterable[EdgeRecord]) -> tuple[list[EdgeRecord], CleaningReport]:
    """Sort by timestamp and drop rows a growing simple graph cannot admit.

    In priority order per row: self-loops, repeats of an already-admitted
    undirected pair, and rows touching no previously admitted node (which
    would start a second component).  The sort is stable, so same-timestamp
    rows keep file order and star runs survive.  A node seen only on dropped
    rows is not considered admitted and may arrive later.
    """
    ordered = sorted(records, key=lambda r: r.timestamp)
    report = CleaningReport(input_records=len(ordered))
    adjacency: dict[str, set[str]] = {}
    kept: list[EdgeRecord] = []
    for rec in ordered:
        if rec.source == rec.dest:
            report.self_loops += 1
            continue
        if rec.dest in adjacency.get(rec.source, ()):
            report.duplicates += 1
            continue
        if adjacency and rec.source not in adjacency and rec.dest not in adjacency:
            report.disconnected += 1
            continue
        kept.append(rec)
        adjacency.setdefault(rec.source, set()).add(rec.dest)
        adjacency.setdefault(rec.dest, set()).add(rec.source)
    report.kept = len(kept)
    return kept, report


class _NodeIds(dict):
    """Dense node id of each name, assigned by first appearance; names iterate in id order."""

    def intern(self, name: str) -> int:
        return self.setdefault(name, len(self))

    def star(self, timestamp: int, center: str, targets: Iterable[str]) -> Increment:
        """The increment of a named star, interning the center before the targets.

        A node is new when its name first appears in this star.
        """
        before = len(self)
        setdefault = self.setdefault
        center_id = setdefault(center, before)
        nodes, new = [], []
        for name in targets:
            node = setdefault(name, len(self))
            nodes.append(node)
            new.append(node >= before)
        return Increment(timestamp, center_id, center_id == before, tuple(nodes), tuple(new))


def group_increments(records: list[EdgeRecord]) -> GrowthStream:
    """Group a cleaned edge list into stars and densify node ids.

    A star is a maximal run of consecutive rows sharing (timestamp, source).
    Ids are assigned by first appearance; the first row of an empty stream
    forms a star whose center and target are both new, so nothing about the
    starting edge is ever treated as a model choice.
    """
    ids = _NodeIds()
    increments: list[Increment] = []
    i = 0
    while i < len(records):
        j = i + 1
        while (
            j < len(records)
            and records[j].timestamp == records[i].timestamp
            and records[j].source == records[i].source
        ):
            j += 1
        increments.append(
            ids.star(records[i].timestamp, records[i].source, map(attrgetter("dest"), records[i:j]))
        )
        i = j
    return GrowthStream(seed_edges=[], increments=increments, labels=list(ids))


def ingest_edge_file(source) -> tuple[GrowthStream, CleaningReport]:
    """parse + clean + group in one call."""
    records = parse_edge_file(source)
    kept, report = clean_stream(records)
    return group_increments(kept), report


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
        return {
            "increments": self.increments,
            "edges": self.edges,
            "external_stars": self.external_stars,
            "internal_stars": self.internal_stars,
            "new_nodes": self.new_nodes,
            "model_choices": self.model_choices,
            "max_star_size": self.max_star_size,
        }


def summarize_stream(stream: GrowthStream) -> StreamSummary:
    """Count stars by kind; a star is external iff it brings any new node."""
    external = internal = new_nodes = choices = edges = widest = 0
    for inc in stream.increments:
        brought = len(inc.new_nodes)
        if brought:
            external += 1
        else:
            internal += 1
        new_nodes += brought
        choices += inc.num_choices
        edges += len(inc.targets)
        widest = max(widest, len(inc.targets))
    return StreamSummary(
        increments=len(stream.increments),
        edges=edges,
        external_stars=external,
        internal_stars=internal,
        new_nodes=new_nodes,
        model_choices=choices,
        max_star_size=widest,
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
    rows = [
        OperationRow(
            inc.timestamp,
            inc.center_is_new,
            sum(1 for n in inc.targets_new if n),
            sum(1 for n in inc.targets_new if not n),
        )
        for inc in stream.increments
    ]
    return OperationSchedule(rows)


def _checked_label(name: str) -> str:
    if "\t" in name or "," in name or "\n" in name:
        raise StreamParseError(f"node id {name!r} contains a reserved separator")
    return name


def write_star_stream(path, stream: GrowthStream) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(STAR_STREAM_HEADER + "\n")
        for u, v in stream.seed_edges:
            fh.write(
                f"{SEED_EDGE_PREFIX}{_checked_label(stream.label(u))}\t"
                f"{_checked_label(stream.label(v))}\n"
            )
        for inc in stream.increments:
            targets = ",".join(_checked_label(stream.label(t)) for t in inc.targets)
            fh.write(f"{inc.timestamp}\t{_checked_label(stream.label(inc.center))}\t{targets}\n")


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
    ids = _NodeIds()
    seed_edges: list[tuple[int, int]] = []
    increments: list[Increment] = []
    for lineno, line in lines:
        if line.startswith(SEED_EDGE_PREFIX):
            if increments:
                raise StreamParseError("seed edges must precede stars", line_number=lineno)
            fields = line[len(SEED_EDGE_PREFIX) :].split("\t")
            if len(fields) != 2:
                raise StreamParseError("seed edge needs 2 node ids", line_number=lineno)
            seed_edges.append((ids.intern(fields[0]), ids.intern(fields[1])))
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
        if increments and timestamp < increments[-1].timestamp:
            raise StreamParseError(
                f"timestamp {timestamp} is below the previous star's {increments[-1].timestamp}",
                line_number=lineno,
            )
        if not fields[1] or not fields[2]:
            raise StreamParseError("empty center or target list", line_number=lineno)
        names = fields[2].split(",")
        if not all(names):
            raise StreamParseError("empty target id", line_number=lineno)
        try:
            increments.append(ids.star(timestamp, fields[1], names))
        except Exception as exc:
            raise StreamParseError(str(exc), line_number=lineno) from None
    return GrowthStream(seed_edges=seed_edges, increments=increments, labels=list(ids))


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
    if include_seed and stream.seed_edges:
        if seed_timestamp is None:
            seed_timestamp = stream.increments[0].timestamp - 1 if stream.increments else 0
        for u, v in stream.seed_edges:
            yield EdgeRecord(stream.label(u), stream.label(v), seed_timestamp)
    for inc in stream.increments:
        for t in inc.targets:
            yield EdgeRecord(stream.label(inc.center), stream.label(t), inc.timestamp)


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
