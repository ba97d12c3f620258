"""Exception hierarchy shared across the package, and typed reading of JSON files."""

import json
import reprlib


class GrowthFitError(Exception):
    """Base class for all package errors."""


class GraphError(GrowthFitError):
    """Invalid graph mutation."""


class RejectedIncrementError(GraphError):
    """Increment would create a self-loop or duplicate edge."""


class UnknownNodeError(GraphError):
    """Increment references a node that does not exist."""


class ModelError(GrowthFitError):
    """Invalid model construction or evaluation."""


class MissingAnchorError(ModelError):
    """Triangle-closure target choice requested without an anchor node."""


class DegenerateModelError(ModelError):
    """No component can assign positive probability over the eligible set."""


class UnsupportedSimilarityError(ModelError):
    """Model similarity requested for an anchor-conditional component."""


class StreamError(GrowthFitError):
    """Invalid edge or star stream."""


class StreamParseError(StreamError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class CheckpointError(GrowthFitError):
    """A statistics checkpoint that is not an increment count of the stream."""


class ModelSpecError(GrowthFitError):
    """Malformed model-spec expression; carries the 0-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


class FitError(GrowthFitError):
    """Estimation failure."""


class NoFeasibleFitError(FitError):
    """Every grid point evaluated to an impossible likelihood."""


class IntervalUnderflowError(FitError):
    """An interval of the requested partition contains no increments."""


class NestingViolationError(FitError):
    """Nested-model test inputs are not actually nested."""


class UndefinedRatioError(FitError):
    """Per-choice ratio requested with zero total choices."""


class GrowthStallError(GrowthFitError):
    """Generator cannot fill a star because the eligible set is exhausted."""



def json_fields(text: str, error: type[GrowthFitError], readers: dict) -> dict:
    """The fields of the JSON object in ``text``, read by ``readers[name] = (convert, default)``.

    A required field has the default ``...``.  Anything but a JSON object, a
    missing required field, or a value ``convert`` refuses raises ``error``.
    """
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise error(f"not valid JSON: {exc}") from None
    return json_object_fields(raw, error, readers)


def json_object_fields(raw, error: type[Exception], readers: dict, where: str = "") -> dict:
    """``json_fields`` of an already decoded value; ``where`` prefixes every message."""
    if not isinstance(raw, dict):
        raise error(f"{where}expected a JSON object, got {type(raw).__name__}")
    fields = {}
    for name, (convert, default) in readers.items():
        try:
            fields[name] = convert(raw[name] if name in raw or default is ... else default)
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            problem = f"cannot read {_quoted(raw[name])}: {exc}" if name in raw else "is missing"
            raise error(f"{where}field {name!r} {problem}") from None
    return fields


def _quoted(value) -> str:
    """``reprlib.repr`` of a value, cut to 80 characters, so a message stays short."""
    text = reprlib.repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def json_int(value) -> int:
    """An integral JSON number; booleans, strings and fractions are refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ValueError("expected an integer")
    return value


def json_number(value) -> float:
    """A JSON number as a float, +-Infinity included; booleans and strings are refused."""
    if type(value) not in (int, float):
        raise ValueError("expected a number")
    return float(value)


def json_string(value) -> str:
    """A JSON string."""
    if type(value) is not str:
        raise ValueError("expected a string")
    return value
