"""Attachment components, time-varying mixtures, and model similarity.

A component assigns an unnormalized weight to every eligible node; a
mixture normalizes each component over the eligible set first and then
combines the resulting distributions linearly, so the mixed probability of
any node is linear in the weights.  Weight conventions that keep every
evaluation finite:

* degree-power weight of a degree-0 node is 0 for exponent > 0, 1 for
  exponent 0, and 0 for exponent < 0 (negative powers of zero are excluded
  rather than infinite);
* a component whose total weight over the eligible set is 0 contributes a
  uniform distribution over that set for that single choice.

Triangle closure is anchor-conditional: choosing a star's source uses a
uniform pick, choosing a leaf weights nodes by their common-neighbor count
with the anchor.  For a star whose center is new there is no anchor for
the first leaf, so that choice falls back to uniform and later leaves
anchor on the first chosen leaf.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateModelError,
    MissingAnchorError,
    ModelError,
    UnknownNodeError,
    UnsupportedSimilarityError,
)
from .graph import DynamicGraph

WEIGHT_SUM_TOL = 1e-12


class ChoiceRole(enum.Enum):
    """What kind of slot a choice fills within a star."""

    CENTER = "center"
    TARGET = "target"
    # First leaf of a star with a new center: no anchor can exist yet.
    FIRST_TARGET = "first_target"


@dataclass(frozen=True)
class Component:
    """Base class for attachment components."""


@dataclass(frozen=True)
class Random(Component):
    """Uniform attachment: every eligible node equally likely."""


@dataclass(frozen=True)
class DegreePower(Component):
    """Attachment weight k^alpha; alpha = 1 is linear preferential attachment."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ModelError("degree-power exponent must be finite")


@dataclass(frozen=True)
class TriangleClosure(Component):
    """Leaf weight = number of common neighbors with the anchor node."""


@dataclass(frozen=True)
class RankPreference(Component):
    """Attachment weight R^-alpha where R is arrival rank (1 = oldest); alpha > 0."""

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ModelError("rank-preference exponent must be > 0")


def barabasi_albert() -> DegreePower:
    """The linear preferential-attachment special case."""
    return DegreePower(1.0)


def degree_power_weight(degree: int, alpha: float) -> float:
    """Scalar k^alpha honoring the degree-0 conventions above."""
    if degree == 0:
        return 1.0 if alpha == 0.0 else 0.0
    return float(degree) ** alpha


def degree_power_table(size: int, alpha: float) -> np.ndarray:
    """k^alpha for k = 0..size - 1, honoring the degree-0 conventions above.

    numpy's powers can differ from the scalar ``degree_power_weight`` in the
    last bit, so one caller should not mix the two.
    """
    if alpha == 0.0:
        return np.ones(size)
    with np.errstate(divide="ignore"):
        table = np.arange(size, dtype=np.float64) ** alpha
    table[0] = 0.0
    return table


def component_weights(
    component: Component,
    graph: DynamicGraph,
    eligible,
    anchor: int | None = None,
    role: ChoiceRole = ChoiceRole.TARGET,
) -> np.ndarray:
    """Unnormalized weight of each node in ``eligible`` (order preserved).

    ``anchor`` is required for triangle-closure TARGET choices and must be a
    graph node; CENTER choices are uniform for triangle closure (the source
    of a star is picked at random), FIRST_TARGET choices return zeros so the
    uniform fallback engages.
    """
    nodes = np.asarray(list(eligible), dtype=np.int64)
    if nodes.size == 0:
        raise DegenerateModelError("eligible set is empty")
    if isinstance(component, Random):
        return np.ones(nodes.size)
    if isinstance(component, DegreePower):
        degs = np.array([graph.degrees[i] for i in nodes], dtype=np.intp)
        return degree_power_table(int(degs.max()) + 1, component.alpha)[degs]
    if isinstance(component, RankPreference):
        ranks = nodes.astype(np.float64) + 1.0
        return ranks ** (-component.alpha)
    if isinstance(component, TriangleClosure):
        if role is ChoiceRole.CENTER:
            return np.ones(nodes.size)
        if role is ChoiceRole.FIRST_TARGET:
            return np.zeros(nodes.size)
        if anchor is None:
            raise MissingAnchorError("triangle-closure target choice needs an anchor node")
        if not (0 <= anchor < graph.num_nodes):
            raise UnknownNodeError(f"anchor {anchor} not in graph")
        return np.array(
            [graph.common_neighbor_count(anchor, int(i)) for i in nodes], dtype=np.float64
        )
    raise ModelError(f"unknown component {component!r}")


@dataclass(frozen=True)
class MixtureInterval:
    """Convex combination of components holding over one time interval."""

    weights: tuple[float, ...]
    components: tuple[Component, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.components) or not self.components:
            raise ModelError("mixture needs matching, nonempty weights and components")
        if any(w < -WEIGHT_SUM_TOL or w > 1 + WEIGHT_SUM_TOL for w in self.weights):
            raise ModelError("mixture weights must lie in [0, 1]")
        if abs(sum(self.weights) - 1.0) > WEIGHT_SUM_TOL:
            raise ModelError(f"mixture weights sum to {sum(self.weights)}, expected 1")

    @staticmethod
    def single(component: Component) -> "MixtureInterval":
        return MixtureInterval((1.0,), (component,))

    @staticmethod
    def of(*terms: tuple[float, Component]) -> "MixtureInterval":
        weights, comps = zip(*terms)
        return MixtureInterval(tuple(float(w) for w in weights), tuple(comps))


class BoundaryMode(enum.Enum):
    """Whether schedule breakpoints live in timestamp or increment-index space."""

    TIMESTAMP = "timestamp"
    INDEX = "index"


@dataclass(frozen=True)
class ModelSchedule:
    """Piecewise-constant mixture: J intervals split by J-1 breakpoints.

    Interval j covers keys in (boundaries[j-1], boundaries[j]]; the last
    interval is unbounded above, so a key at or before boundary T selects
    the earlier interval and anything after T the later one.
    """

    intervals: tuple[MixtureInterval, ...]
    boundaries: tuple[float, ...] = ()
    boundary_mode: BoundaryMode = BoundaryMode.TIMESTAMP

    def __post_init__(self):
        if len(self.boundaries) != len(self.intervals) - 1:
            raise ModelError("need exactly one fewer boundary than intervals")
        if any(b >= c for b, c in zip(self.boundaries, self.boundaries[1:])):
            raise ModelError("boundaries must be strictly increasing")

    @staticmethod
    def constant(interval: MixtureInterval) -> "ModelSchedule":
        return ModelSchedule((interval,))

    @staticmethod
    def single(component: Component) -> "ModelSchedule":
        return ModelSchedule.constant(MixtureInterval.single(component))

    @property
    def num_intervals(self) -> int:
        return len(self.intervals)

    def interval_index(self, timestamp: int, index: int) -> int:
        key = timestamp if self.boundary_mode is BoundaryMode.TIMESTAMP else index
        return bisect_left(self.boundaries, key)

    def interval_at(self, timestamp: int, index: int = 0) -> MixtureInterval:
        return self.intervals[self.interval_index(timestamp, index)]


def node_probabilities(
    schedule: ModelSchedule | MixtureInterval,
    timestamp: int,
    graph: DynamicGraph,
    eligible,
    anchor: int | None = None,
    role: ChoiceRole = ChoiceRole.TARGET,
    index: int = 0,
) -> np.ndarray:
    """Mixture probability of each eligible node at the given time.

    Each component is normalized over ``eligible`` (falling back to uniform
    if its total weight there is zero) and the normalized distributions are
    combined with the interval's weights; the result sums to 1.
    """
    interval = (
        schedule.interval_at(timestamp, index) if isinstance(schedule, ModelSchedule) else schedule
    )
    nodes = list(eligible)
    if not nodes:
        raise DegenerateModelError("eligible set is empty")
    probs = np.zeros(len(nodes))
    for beta, comp in zip(interval.weights, interval.components):
        w = component_weights(comp, graph, nodes, anchor=anchor, role=role)
        total = w.sum()
        if total <= 0.0:
            probs += beta / len(nodes)
        else:
            probs += beta * (w / total)
    return probs


def _flat_components(model) -> list[Component]:
    if isinstance(model, Component):
        return [model]
    if isinstance(model, MixtureInterval):
        return list(model.components)
    if isinstance(model, ModelSchedule):
        if model.num_intervals != 1:
            raise ModelError("similarity is defined for single-interval models")
        return list(model.intervals[0].components)
    raise ModelError(f"cannot interpret {model!r} as a model")


def _as_interval(model) -> MixtureInterval:
    if isinstance(model, Component):
        return MixtureInterval.single(model)
    if isinstance(model, ModelSchedule):
        return model.intervals[0]
    return model


def model_similarity(m1, m2, graph: DynamicGraph) -> float:
    """Cosine similarity of two models' node-probability vectors over the graph.

    Equals 1 exactly when the two distributions coincide; anchor-conditional
    components (triangle closure) have no per-node distribution and are
    rejected.
    """
    for model in (m1, m2):
        if any(isinstance(c, TriangleClosure) for c in _flat_components(model)):
            raise UnsupportedSimilarityError(
                "triangle closure is anchor-conditional; similarity undefined"
            )
    if graph.num_nodes == 0:
        raise DegenerateModelError("similarity needs a nonempty graph")
    all_nodes = range(graph.num_nodes)
    p1 = node_probabilities(_as_interval(m1), 0, graph, all_nodes)
    p2 = node_probabilities(_as_interval(m2), 0, graph, all_nodes)
    norm = math.sqrt(float(np.dot(p1, p1)) * float(np.dot(p2, p2)))
    return min(1.0, float(np.dot(p1, p2)) / norm)
