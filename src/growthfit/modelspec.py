"""Plain-text mixture specifications like ``0.3*BA + 0.7*RAND``.

Grammar: one or more ``weight*model`` terms joined by ``+``; weight may be
omitted together with the ``*`` when the mixture is a single term.  Models
are RAND, BA, TRI, DP(x), and RP(x).  BA parses to DP(1.0) and DP(1.0)
formats back as BA.  Weights must sum to 1 within 1e-9 and are renormalized
exactly after parsing.
"""

from __future__ import annotations

import re

from .errors import ModelSpecError
from .models import (
    Component,
    DegreePower,
    MixtureInterval,
    Random,
    RankPreference,
    TriangleClosure,
)

PARSE_WEIGHT_TOL = 1e-9

_MODEL_RE = re.compile(
    r"""
    (?P<name>RAND|BA|TRI)
    | (?P<fam>DP|RP) \( (?P<arg>[^)]*) \)
    """,
    re.VERBOSE,
)


def _parse_component(text: str, column: int) -> Component:
    m = _MODEL_RE.fullmatch(text)
    if m is None:
        raise ModelSpecError(f"unrecognized model {text!r}", column=column)
    if m.group("name") == "RAND":
        return Random()
    if m.group("name") == "BA":
        return DegreePower(1.0)
    if m.group("name") == "TRI":
        return TriangleClosure()
    try:
        arg = float(m.group("arg"))
    except ValueError:
        raise ModelSpecError(
            f"bad exponent {m.group('arg')!r}", column=column + len(m.group("fam")) + 1
        ) from None
    if m.group("fam") == "DP":
        return DegreePower(arg)
    if arg <= 0:
        raise ModelSpecError(
            "rank-preference exponent must be > 0", column=column + 3
        )
    return RankPreference(arg)


def parse_component(text: str) -> Component:
    """Parse a single model token (RAND, BA, TRI, DP(x), RP(x))."""
    stripped = text.strip()
    column = len(text) - len(text.lstrip()) + 1
    if not stripped:
        raise ModelSpecError("empty model token", column=1)
    return _parse_component(stripped, column)


def parse_model_spec(spec: str) -> MixtureInterval:
    """Parse a mixture string; errors carry the 1-based column of the problem."""
    if not spec.strip():
        raise ModelSpecError("empty model spec", column=1)
    weights: list[float] = []
    comps: list[Component] = []
    pos = 0
    for chunk in spec.split("+"):
        term = chunk.strip()
        column = pos + len(chunk) - len(chunk.lstrip()) + 1
        pos += len(chunk) + 1
        if not term:
            raise ModelSpecError("empty term", column=column)
        if "*" in term:
            weight_text, _, after = term.partition("*")
            try:
                weight = float(weight_text.strip())
            except ValueError:
                raise ModelSpecError(
                    f"bad weight {weight_text.strip()!r}", column=column
                ) from None
            model_text = after.strip()
            model_column = column + len(weight_text) + 1 + (len(after) - len(after.lstrip()))
        else:
            weight = 1.0
            model_text = term
            model_column = column
        if not (0.0 <= weight <= 1.0 + PARSE_WEIGHT_TOL):
            raise ModelSpecError(f"weight {weight} outside [0, 1]", column=column)
        weights.append(weight)
        comps.append(_parse_component(model_text, model_column))
    if "*" not in spec and len(comps) > 1:
        raise ModelSpecError("multi-term mixtures need explicit weights", column=1)
    total = sum(weights)
    if abs(total - 1.0) > PARSE_WEIGHT_TOL:
        raise ModelSpecError(f"weights sum to {total:.12g}, expected 1", column=1)
    weights = [w / total for w in weights]
    # Renormalization can leave the sum a few ulp off 1; pin the largest weight.
    drift = 1.0 - sum(weights)
    weights[max(range(len(weights)), key=weights.__getitem__)] += drift
    return MixtureInterval(tuple(weights), tuple(comps))


def _exponent(alpha: float) -> str:
    """``alpha`` in six significant digits if that parses back to it, else in full."""
    short = f"{alpha:g}"
    return short if float(short) == alpha else repr(float(alpha))


def format_component(comp: Component) -> str:
    """The model token of ``comp``, which ``parse_component`` reads back to an equal component."""
    if isinstance(comp, Random):
        return "RAND"
    if isinstance(comp, DegreePower):
        return "BA" if comp.alpha == 1.0 else f"DP({_exponent(comp.alpha)})"
    if isinstance(comp, TriangleClosure):
        return "TRI"
    if isinstance(comp, RankPreference):
        return f"RP({_exponent(comp.alpha)})"
    raise ModelSpecError(f"cannot format {comp!r}")


def format_model_spec(mixture: MixtureInterval) -> str:
    """Inverse of parse_model_spec, up to weight formatting."""
    if len(mixture.components) == 1:
        return format_component(mixture.components[0])
    return " + ".join(
        f"{w:g}*{format_component(c)}" for w, c in zip(mixture.weights, mixture.components)
    )
