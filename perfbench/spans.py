"""Call spans recorded around each timed call into a growthfit module.

A pass is one execution of a workload's call sequence.  Its span is the
parent of one span per call; all spans of a pass share the pass's run id.
Spans stay in memory and are written out once the benchmark ends.  With
tracing off a pass records only its own start and end, so end-to-end
timings carry no per-call bookkeeping.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    run_id: str
    name: str
    parent: str | None
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0] if self.parent is not None else "bench"


class Pass:
    """One timed pass of a workload.  ``call`` runs and (when traced) times one call."""

    def __init__(self, workload: str, run_id: str, traced: bool):
        self.workload = workload
        self.run_id = run_id
        self.traced = traced
        self.calls: list[Span] = []
        self.completed: list[str] = []
        self.current: str | None = None
        self.start = self.end = 0.0

    def __enter__(self) -> "Pass":
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = perf_counter()

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def call(self, name: str, fn, *args, **kwargs):
        self.current = name
        if not self.traced:
            result = fn(*args, **kwargs)
        else:
            start = perf_counter()
            result = fn(*args, **kwargs)
            self.calls.append(Span(self.run_id, name, self.workload, start, perf_counter()))
        self.completed.append(name)
        return result

    def spans(self) -> list[Span]:
        return [Span(self.run_id, self.workload, None, self.start, self.end), *self.calls]

    def call_seconds(self) -> dict[str, float]:
        """Duration per call name (calls are sequential and never nest)."""
        return {span.name: span.seconds for span in self.calls}

    def coverage(self) -> float:
        """Share of the pass's wall time covered by call spans."""
        return sum(span.seconds for span in self.calls) / self.seconds


def self_seconds(spans: list[Span]) -> dict[tuple[str, str], float]:
    """Self time per (run id, span name): duration minus the time its children cover."""
    children: dict[tuple[str, str], float] = {}
    for span in spans:
        if span.parent is not None:
            key = (span.run_id, span.parent)
            children[key] = children.get(key, 0.0) + span.seconds
    return {
        (span.run_id, span.name): span.seconds - children.get((span.run_id, span.name), 0.0)
        for span in spans
    }


def write_spans(path, spans: list[Span]) -> None:
    """One JSON object per line, each with its self time."""
    own = self_seconds(spans)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            row = asdict(span)
            row["layer"] = span.layer
            row["self_s"] = own[(span.run_id, span.name)]
            fh.write(json.dumps(row) + "\n")
