"""Tests for the textual mixture-spec parser and formatter."""

import pytest

import growthfit as gf
from growthfit.modelspec import (
    format_component,
    format_model_spec,
    parse_component,
    parse_model_spec,
)


class TestParseComponent:
    def test_names(self):
        assert parse_component("RAND") == gf.Random()
        assert parse_component("BA") == gf.DegreePower(1.0)
        assert parse_component("TRI") == gf.TriangleClosure()
        assert parse_component("DP(1.5)") == gf.DegreePower(1.5)
        assert parse_component("RP(2)") == gf.RankPreference(2.0)

    def test_negative_and_zero_exponents(self):
        assert parse_component("DP(-0.1)") == gf.DegreePower(-0.1)
        assert parse_component("DP(0)") == gf.DegreePower(0.0)

    def test_bad_names_raise(self):
        with pytest.raises(gf.ModelSpecError):
            parse_component("XY")
        with pytest.raises(gf.ModelSpecError):
            parse_component("DP(abc)")


class TestParseModelSpec:
    def test_single_component_defaults_to_weight_one(self):
        mix = parse_model_spec("TRI")
        assert mix.weights == (1.0,)
        assert mix.components == (gf.TriangleClosure(),)

    def test_weighted_mixture(self):
        mix = parse_model_spec("0.3*BA + 0.7*RAND")
        assert mix.weights == (0.3, 0.7)
        assert mix.components == (gf.DegreePower(1.0), gf.Random())

    def test_whitespace_is_flexible(self):
        mix = parse_model_spec("  0.25 * DP(2.0)+0.25*RP(1.5) + 0.5*TRI ")
        assert mix.weights == (0.25, 0.25, 0.5)
        assert mix.components == (
            gf.DegreePower(2.0),
            gf.RankPreference(1.5),
            gf.TriangleClosure(),
        )

    def test_tiny_weight_drift_is_renormalized(self):
        mix = parse_model_spec("0.4999999999*BA + 0.5*RAND")
        assert sum(mix.weights) == 1.0

    def test_weight_sum_off_by_too_much_raises(self):
        with pytest.raises(gf.ModelSpecError) as exc:
            parse_model_spec("0.3*BA + 0.6*RAND")
        assert exc.value.column == 1

    def test_multi_term_requires_weights(self):
        with pytest.raises(gf.ModelSpecError):
            parse_model_spec("BA + RAND")

    def test_error_column_points_at_bad_token(self):
        with pytest.raises(gf.ModelSpecError) as exc:
            parse_model_spec("0.5*BA + 0.5*XY")
        assert exc.value.column == 14

    def test_empty_spec_raises(self):
        with pytest.raises(gf.ModelSpecError):
            parse_model_spec("")

    def test_rank_exponent_must_be_positive(self):
        with pytest.raises(gf.ModelSpecError):
            parse_model_spec("1.0*RP(0)")


class TestFormatting:
    def test_linear_degree_prints_as_ba(self):
        assert format_component(gf.DegreePower(1.0)) == "BA"
        assert format_component(gf.DegreePower(0.5)) == "DP(0.5)"
        assert format_component(gf.RankPreference(2.0)) == "RP(2)"
        assert format_component(gf.Random()) == "RAND"
        assert format_component(gf.TriangleClosure()) == "TRI"

    @pytest.mark.parametrize(
        "comp, text",
        [
            (gf.DegreePower(1.2345678), "DP(1.2345678)"),
            (gf.DegreePower(-0.1), "DP(-0.1)"),
            (gf.DegreePower(1e-7), "DP(1e-07)"),
            (gf.RankPreference(0.1 + 0.2), "RP(0.30000000000000004)"),
            (gf.RankPreference(123456.0), "RP(123456)"),
            (gf.RankPreference(1234567.0), "RP(1234567.0)"),
        ],
    )
    def test_exponents_keep_every_bit(self, comp, text):
        # six significant digits when they read back as the same float
        assert format_component(comp) == text
        assert parse_component(text) == comp

    def test_round_trip(self):
        for text in ("RAND", "0.3*BA + 0.7*RAND", "0.25*DP(2) + 0.25*RP(1.5) + 0.5*TRI"):
            mix = parse_model_spec(text)
            assert format_model_spec(mix) == text

    def test_single_component_formats_bare(self):
        mix = gf.MixtureInterval.single(gf.DegreePower(1.3))
        assert format_model_spec(mix) == "DP(1.3)"
