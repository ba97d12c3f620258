"""Only the replay takes replay options; every scorer reads its trace (stdlib ``inspect`` only)."""

import inspect

import growthfit

REPLAY_OPTIONS = {"seed", "ordering_samples", "max_exhaustive_choices"}
# A stream's one replay, and the probability of one increment against a graph.
REPLAYS = {
    "build_dp_trace": {"seed", "ordering_samples"},
    "increment_probability": {"seed", "ordering_samples"},
}
# These seed the generator's draws, not a replay.
GENERATORS = {"grow", "sample_choice_frequencies"}


def public_callables():
    """(name, callable) of each public function and class of growthfit, and of their methods."""
    for name, obj in vars(growthfit).items():
        if name.startswith("_") or not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr in vars(obj):
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    yield f"{name}.{attr}", getattr(obj, attr)


def replay_parameters() -> dict[str, set[str]]:
    """Per public callable that takes any, its replay-option parameters."""
    held = {}
    for name, obj in public_callables():
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no signature to read
            continue
        if REPLAY_OPTIONS & set(parameters):
            held[name] = REPLAY_OPTIONS & set(parameters)
    return held


def test_the_walk_reaches_every_scorer():
    names = {name for name, _ in public_callables()}
    assert names >= {
        "score_stream",
        "build_choice_cache",
        "fit_degree_exponent",
        "fit_component_family",
        "fit_dp_changepoint",
        "fit_dp_changepoint_joint",
        "FitResult.schedule",
        *REPLAYS,
        *GENERATORS,
    }


def test_only_the_replay_takes_replay_options():
    held = replay_parameters()
    assert {name: held.pop(name) for name in GENERATORS} == {name: {"seed"} for name in GENERATORS}
    assert held == REPLAYS
    assert sum(map(len, held.values())) == 4
