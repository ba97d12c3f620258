"""End-to-end tests for the command-line interface."""

import csv
import json

import pytest

import growthfit as gf
from growthfit.cli import _parse_alpha_grid, main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A generated two-phase stream shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    recipe = {
        "intervals": [
            {"model": "0.3*BA + 0.7*RAND", "until": 399.0},
            {"model": "0.7*BA + 0.3*RAND", "until": None},
        ],
        "increments": 800,
        "new_targets": 3,
        "internal_prob": 0.0,
        "internal_targets": 2,
        "seed_clique": 0,
        "boundary_mode": "index",
    }
    (root / "recipe.json").write_text(json.dumps(recipe))
    code = main(
        [
            "generate",
            "--recipe", str(root / "recipe.json"),
            "--seed", "5",
            "--out", str(root / "run.stars"),
        ]
    )
    assert code == 0
    return root


class TestGenerate:
    def test_model_flag_writes_star_stream(self, tmp_path, capsys):
        out = tmp_path / "g.stars"
        code, stdout, _ = run(
            capsys, "generate", "--model", "BA", "--increments", "50",
            "--new-targets", "2", "--seed", "0", "--out", str(out),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["increments"] == 50
        assert out.read_text().startswith("# star-stream v1")

    def test_edge_format(self, tmp_path, capsys):
        out = tmp_path / "g.tsv"
        code, _, _ = run(
            capsys, "generate", "--model", "RAND", "--increments", "20",
            "--new-targets", "2", "--seed", "0", "--format", "edges",
            "--out", str(out),
        )
        assert code == 0
        first = out.read_text().splitlines()[0]
        assert len(first.split("\t")) == 3

    def test_negative_increments_is_a_model_error(self, tmp_path, capsys):
        out = tmp_path / "g.stars"
        code, _, err = run(
            capsys, "generate", "--model", "BA", "--increments", "-3", "--out", str(out),
        )
        assert code == 2
        assert err.startswith("error (ModelError): increments")
        assert not out.exists()


class TestIngest:
    def test_ingest_reports_and_writes(self, tmp_path, capsys):
        data = tmp_path / "edges.tsv"
        data.write_text("a\tb\t0\nb\tb\t1\nc\ta\t2\nc\tb\t3\n")
        out = tmp_path / "clean.stars"
        code, stdout, stderr = run(
            capsys, "ingest", "--data", str(data), "--out", str(out),
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["cleaning"]["self_loops"] == 1
        assert summary["stream"]["increments"] == 3
        assert "self_loops" in stderr
        assert out.exists()

    def test_schedule_out(self, tmp_path, capsys):
        data = tmp_path / "edges.tsv"
        data.write_text("a\tb\t0\nc\ta\t1\n")
        ops = tmp_path / "shape.ops"
        code, _, _ = run(
            capsys, "ingest", "--data", str(data), "--schedule-out", str(ops),
        )
        assert code == 0
        assert ops.read_text().startswith("# op-schedule v1")


class TestScoreAndFit:
    def test_score_model(self, workdir, capsys):
        code, stdout, _ = run(
            capsys, "score", "--data", str(workdir / "run.stars"),
            "--model", "0.5*BA + 0.5*RAND",
        )
        assert code == 0
        result = json.loads(stdout)
        assert result["c0"] > 1.0
        assert result["choices"] == 2400

    def test_fit_weights(self, workdir, capsys):
        code, stdout, _ = run(
            capsys, "fit", "--data", str(workdir / "run.stars"),
            "--components", "BA,RAND",
        )
        assert code == 0
        fit = json.loads(stdout)
        w = fit["intervals"][0]["weights"][0]
        assert 0.35 <= w <= 0.65
        assert fit["components"] == ["BA", "RAND"]

    def test_fit_alpha_grid(self, workdir, capsys):
        code, stdout, _ = run(
            capsys, "fit", "--data", str(workdir / "run.stars"),
            "--grid-alpha=-0.1:2.1:221",
        )
        assert code == 0
        fit = json.loads(stdout)
        assert "alpha" in fit

    def test_fit_alpha_grid_stops_at_stop(self, tmp_path, capsys):
        # grown at exponent 1.5, so the best point of 0, 0.6 and 1.2 would be
        # 1.2; STOP 1 leaves 0 and 0.6
        data = tmp_path / "dp.stars"
        code, _, _ = run(
            capsys, "generate", "--model", "DP(1.5)", "--increments", "300",
            "--seed", "2", "--out", str(data),
        )
        assert code == 0
        code, stdout, _ = run(capsys, "fit", "--data", str(data), "--grid-alpha", "0:1:0.6")
        assert code == 0
        assert json.loads(stdout)["alpha"] == 0.6
        code, stdout, _ = run(capsys, "fit", "--data", str(data), "--grid-alpha", "0:1.2:0.6")
        assert code == 0
        assert json.loads(stdout)["alpha"] == 1.2

    @pytest.mark.parametrize(
        "text, points",
        [
            ("0:1:0.6", [0.0, 0.6]),
            ("0:1.2:0.6", [0.0, 0.6, 1.2]),
            ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
            ("1:1:0.5", [1.0]),
            ("-0.1:2.1:221", [-0.1]),
        ],
    )
    def test_alpha_grid_points_never_pass_stop(self, text, points):
        assert _parse_alpha_grid(text).tolist() == points

    def test_default_alpha_grid_as_text_is_the_default(self):
        grid = _parse_alpha_grid("-0.1:2.1:0.01")
        assert grid.tobytes() == gf.default_alpha_grid().tobytes()

    @pytest.mark.parametrize("grid", ["0:nan:1", "0:inf:1", "nan:1:0.5", "0:1:inf"])
    def test_fit_non_finite_alpha_grid_exits_2(self, workdir, capsys, grid):
        code, stdout, stderr = run(
            capsys, "fit", "--data", str(workdir / "run.stars"), "--grid-alpha", grid,
        )
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error (GrowthFitError): bad grid '{grid}'")

    def test_fit_alpha_grid_past_float64_range_exits_2(self, tmp_path, capsys):
        # a node of the stream reaches degree 279, and 279**130 overflows float64
        data = tmp_path / "dp.stars"
        code, _, _ = run(
            capsys, "generate", "--model", "0.5*DP(1.5) + 0.5*RAND", "--increments", "2000",
            "--seed", "1", "--out", str(data),
        )
        assert code == 0
        code, stdout, stderr = run(
            capsys, "fit", "--data", str(data), "--grid-alpha", "100:140:10",
        )
        assert code == 2 and stdout == ""
        assert stderr.startswith(
            "error (DegenerateModelError): degree-power exponent 130.0: the weight of the "
            "largest degree, 279, overflows float64"
        )

    def test_score_saved_fit_round_trip(self, workdir, tmp_path, capsys):
        fit_path = tmp_path / "fit.json"
        code, stdout, _ = run(
            capsys, "fit-intervals", "--data", str(workdir / "run.stars"),
            "--components", "BA,RAND", "--intervals", "2",
            "--out", str(fit_path),
        )
        assert code == 0
        saved = json.loads(fit_path.read_text())
        code, stdout, _ = run(
            capsys, "score", "--data", str(workdir / "run.stars"),
            "--fit", str(fit_path),
        )
        assert code == 0
        rescored = json.loads(stdout)
        assert abs(rescored["logL"] - saved["logL"]) < 1e-6


class TestIntervalTools:
    def test_fit_intervals_two_phases(self, workdir, capsys):
        code, stdout, _ = run(
            capsys, "fit-intervals", "--data", str(workdir / "run.stars"),
            "--components", "BA,RAND", "--intervals", "2",
        )
        assert code == 0
        fit = json.loads(stdout)
        assert len(fit["intervals"]) == 2
        assert fit["intervals"][0]["weights"][0] < fit["intervals"][1]["weights"][0]

    def test_scan_j_emits_csv(self, workdir, capsys):
        code, stdout, _ = run(
            capsys, "scan-j", "--data", str(workdir / "run.stars"),
            "--components", "BA,RAND", "--jmin", "1", "--jmax", "4",
        )
        assert code == 0
        rows = stdout.strip().splitlines()
        assert rows[0] == "J,logL,c0"
        assert len(rows) == 5
        js = [int(r.split(",")[0]) for r in rows[1:]]
        assert js == [1, 2, 3, 4]

    def test_wilks_from_data(self, workdir, capsys):
        code, stdout, _ = run(
            capsys, "wilks", "--data", str(workdir / "run.stars"),
            "--components", "BA,RAND", "--j0", "1", "--j1", "2",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["df"] == 1
        assert 0.0 <= report["p_value"] <= 1.0
        assert report["statistic"] >= 0.0

    def test_wilks_rejects_partitions_that_are_not_nested(self, workdir, capsys):
        code, stdout, err = run(
            capsys, "wilks", "--data", str(workdir / "run.stars"),
            "--components", "BA,RAND", "--j0", "2", "--j1", "3",
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("error (NestingViolationError): fits are not nested")

    def test_fit_changepoint(self, workdir, capsys):
        code, stdout, _ = run(
            capsys, "fit-changepoint", "--data", str(workdir / "run.stars"),
            "--model-pre", "0.3*BA + 0.7*RAND",
            "--model-post", "0.7*BA + 0.3*RAND",
            "--changepoint-grid", "50:750:70",
        )
        assert code == 0
        result = json.loads(stdout)
        assert 150.0 <= result["t_hat"] <= 650.0


class TestReplayFlags:
    """--seed and --ordering-samples reach the one replay every scoring command reads."""

    PRE, POST = "0.3*BA + 0.7*RAND", "0.7*BA + 0.3*RAND"

    @pytest.fixture(scope="class")
    def sampled(self, tmp_path_factory):
        """(path, stream) of a stream whose internal stars of 9 choices are sampled."""
        path = tmp_path_factory.mktemp("sampled") / "g.stars"
        code = main(
            [
                "generate", "--model", "0.5*BA + 0.5*RAND", "--increments", "150",
                "--internal-prob", "0.5", "--internal-targets", "8", "--seed", "3",
                "--out", str(path),
            ]
        )
        assert code == 0
        stream = gf.load_stream(str(path))
        assert gf.build_dp_trace(stream).sampled_increments > 10
        return path, stream

    def command(self, capsys, path, *argv, seed="1"):
        code, stdout, _ = run(
            capsys, *argv, "--data", str(path), "--seed", seed, "--ordering-samples", "40"
        )
        assert code == 0
        return json.loads(stdout)

    def test_commands_print_the_api_on_one_trace(self, sampled, capsys):
        path, stream = sampled
        trace = gf.build_dp_trace(stream, seed=1, ordering_samples=40)
        score = gf.score_stream(trace, gf.parse_model_spec(self.PRE))[0]
        assert self.command(capsys, path, "score", "--model", self.PRE) == score.to_dict()
        fit = gf.fit_degree_exponent(trace)
        assert self.command(capsys, path, "fit") == {
            "alpha": fit.value, "logL": fit.loglik, "logL_rand": fit.loglik_rand,
            "c0": fit.c0, "choices": fit.total_choices,
        }
        cache = gf.build_choice_cache(trace, [gf.DegreePower(1.0), gf.Random()])
        weights = json.loads(gf.fit_intervals(cache, 1).to_json())
        assert self.command(capsys, path, "fit", "--components", "BA,RAND") == weights
        pre, post = (
            [s.logp for s in gf.score_stream(trace, gf.parse_model_spec(m), keep_series=True)[1]]
            for m in (self.PRE, self.POST)
        )
        cp = gf.fit_changepoint(pre, post, trace.timestamps)
        printed = self.command(
            capsys, path, "fit-changepoint", "--model-pre", self.PRE, "--model-post", self.POST
        )
        assert (printed["t_hat"], printed["logL"]) == (cp.t_hat, cp.loglik)

    def test_seed_changes_the_score(self, sampled, capsys):
        path, _ = sampled
        logl = [
            self.command(capsys, path, "score", "--model", self.PRE, seed=seed)["logL"]
            for seed in ("1", "2")
        ]
        assert logl[0] != logl[1]


class TestStatsAndSimilarity:
    def test_stats_writes_csv(self, workdir, tmp_path, capsys):
        out = tmp_path / "stats.csv"
        code, _, _ = run(
            capsys, "stats", "--data", str(workdir / "run.stars"),
            "--checkpoints", "200,400,800", "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["increments"]) for r in rows] == [200, 400, 800]

    @pytest.mark.parametrize(
        "checkpoints, named",
        [
            ("--checkpoints=-5,10,999", "-5"),
            ("--checkpoints=10,999", "999"),
            ("--checkpoints=10,abc", "abc"),
        ],
    )
    def test_stats_rejects_bad_checkpoints(self, workdir, capsys, checkpoints, named):
        code, out, err = run(capsys, "stats", "--data", str(workdir / "run.stars"), checkpoints)
        assert code == 2
        assert out == ""
        assert err.startswith("error (CheckpointError): ")
        assert named in err

    def test_stats_checkpoint_value_after_a_space(self, workdir, capsys):
        code, out, err = run(
            capsys, "stats", "--data", str(workdir / "run.stars"), "--checkpoints", "-5,10"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error (CheckpointError): ")
        assert "-5" in err

    def test_score_refuses_a_timestamp_outside_int64(self, tmp_path, capsys):
        path = tmp_path / "big.tsv"
        path.write_text("a\tb\t1\nb\tc\t99999999999999999999999\n")
        code, out, err = run(capsys, "score", "--data", str(path), "--model", "BA")
        assert code == 2
        assert out == ""
        assert err.startswith("error (StreamParseError): line 2: ")

    def test_similarity(self, workdir, capsys):
        code, stdout, _ = run(
            capsys, "similarity", "--data", str(workdir / "run.stars"),
            "--model", "RAND", "--model2", "BA",
        )
        assert code == 0
        result = json.loads(stdout)
        assert 0.0 < result["similarity"] <= 1.0


class TestErrors:
    def test_bad_model_spec_exits_2(self, workdir, capsys):
        code, _, stderr = run(
            capsys, "score", "--data", str(workdir / "run.stars"),
            "--model", "0.5*BA + 0.6*RAND",
        )
        assert code == 2
        assert "error (ModelSpecError)" in stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["score", "--model", "RAND"],
            ["fit-changepoint", "--model-pre", "RAND", "--model-post", "BA"],
        ],
    )
    def test_step_is_refused_where_no_weight_grid_is_read(self, workdir, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--data", str(workdir / "run.stars"), "--step", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --step 0.1" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        code, _, stderr = run(capsys, "score", "--data", "/nonexistent.stars",
                              "--model", "RAND")
        assert code == 2
        assert "error" in stderr

    def test_time_mode_without_stars_exits_2(self, tmp_path, capsys):
        data = tmp_path / "seed-only.stars"
        data.write_text("# star-stream v1\n# seed-edge\t0\t1\n# seed-edge\t1\t2\n")
        code, _, stderr = run(
            capsys, "fit-intervals", "--data", str(data), "--components", "BA,RAND",
            "--interval-mode", "time",
        )
        assert code == 2
        assert "error (IntervalUnderflowError)" in stderr

    def test_malformed_edge_file_names_line(self, tmp_path, capsys):
        data = tmp_path / "bad.tsv"
        data.write_text("a\tb\t0\nbroken line\n")
        code, _, stderr = run(capsys, "ingest", "--data", str(data))
        assert code == 2
        assert "line 2" in stderr

    @pytest.mark.parametrize("samples", ["0", "-3"])
    @pytest.mark.parametrize("new_targets", ["3", "7"])
    def test_ordering_samples_below_one_exits_2(self, tmp_path, capsys, samples, new_targets):
        data = tmp_path / "g.stars"
        code, _, _ = run(
            capsys, "generate", "--model", "BA", "--increments", "30",
            "--new-targets", new_targets, "--out", str(data),
        )
        assert code == 0
        code, _, stderr = run(
            capsys, "score", "--data", str(data), "--model", "BA",
            "--ordering-samples", samples,
        )
        assert code == 2
        assert stderr.startswith("error (ModelError): ordering_samples") and samples in stderr

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"increments": 10}', "'intervals' is missing"),
            ('{"intervals": [{"model": "BA"}], "increments": "abc"}', "'increments'"),
            ('{"intervals": [{"model": "BA"}], "internal_prob": "x"}', "'internal_prob'"),
            ('{"intervals": [{"model": "BA"}], "increments": 3.7}', "'increments'"),
            ('{"intervals": [{"model": "BA"}], "new_targets": true}', "'new_targets'"),
            ('{"intervals": [{"model": "BA"}], "internal_targets": "2"}', "'internal_targets'"),
            ('{"intervals": [{"model": "BA"}], "seed_clique": false}', "'seed_clique'"),
            ('{"intervals": [{"model": "BA"}], "internal_prob": "0.5"}', "'internal_prob'"),
            ('{"intervals": [{"model": "BA"}], "internal_prob": true}', "'internal_prob'"),
            ('{"intervals": []}', "'intervals'"),
            ('{"intervals": [{"until": 5}]}', "'intervals'"),
            ('{"intervals": [{"model": 5}]}', "'model'"),
            ('{"intervals": ["BA"]}', "interval 0"),
            ('{"intervals": [{"model": "BA", "until": "3"}, {"model": "RAND"}]}', "'until'"),
            ('{"intervals": [{"model": "BA", "until": true}, {"model": "RAND"}]}', "'until'"),
            ('[{"model": "BA"}]', "JSON object"),
            ('{"intervals": [{"model": "BA"}]', "not valid JSON"),
        ],
    )
    def test_malformed_recipe_file_names_the_field(self, tmp_path, capsys, text, named):
        recipe = tmp_path / "recipe.json"
        recipe.write_text(text + "\n")
        code, _, stderr = run(
            capsys, "generate", "--recipe", str(recipe), "--out", str(tmp_path / "g.stars"),
        )
        assert code == 2
        assert stderr.startswith("error (ModelError)") and named in stderr

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"components": ["BA"], "intervals": [], "logL": 0, "logL_rand": 0}', "'mode'"),
            ('{"components": ["BA"], "mode": "count"', "not valid JSON"),
            ('["BA"]', "JSON object"),
            ('{"components": "BA", "mode": "count"}', "'components'"),
            ('{"components": ["BA"], "mode": 5}', "'mode'"),
            (
                '{"components": ["BA"], "mode": "count", "intervals": [{"weights": [1]}], '
                '"logL": 0, "logL_rand": 0, "choices": 1}',
                "'intervals'",
            ),
        ],
    )
    def test_malformed_fit_file_names_the_field(self, workdir, tmp_path, capsys, text, named):
        fit = tmp_path / "fit.json"
        fit.write_text(text + "\n")
        code, _, stderr = run(
            capsys, "score", "--data", str(workdir / "run.stars"), "--fit", str(fit),
        )
        assert code == 2
        assert stderr.startswith("error (FitError)") and named in stderr

    @pytest.mark.parametrize(
        "field, value",
        [
            ("logL", "-12.5"),
            ("logL_rand", True),
            ("choices", 7.9),
            ("weights", ["0.5", True]),
            ("weights", [0.5]),
            ("start_index", True),
            ("end_index", 0.5),
            ("end_time", "9"),
        ],
    )
    def test_wilks_refuses_a_fit_file_number_of_the_wrong_kind(
        self, workdir, tmp_path, capsys, field, value
    ):
        paths = []
        for j in (1, 2):
            path = tmp_path / f"fit{j}.json"
            code, _, _ = run(
                capsys, "fit-intervals", "--data", str(workdir / "run.stars"),
                "--components", "BA,RAND", "--intervals", str(j), "--out", str(path),
            )
            assert code == 0
            paths.append(path)
        fit = json.loads(paths[1].read_text())
        if field in fit:
            fit[field] = value
        else:
            fit["intervals"][0][field] = value
        paths[1].write_text(json.dumps(fit))
        code, stdout, stderr = run(
            capsys, "wilks", "--fit0", str(paths[0]), "--fit1", str(paths[1])
        )
        assert code == 2 and stdout == ""
        assert stderr.startswith("error (FitError)") and f"'{field}'" in stderr

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--new-targets", "0"], "new_targets"),
            (["--internal-prob", "1", "--internal-targets", "0"], "internal_targets"),
        ],
    )
    def test_star_without_targets_exits_2(self, tmp_path, capsys, flags, named):
        out = tmp_path / "g.stars"
        code, _, stderr = run(
            capsys, "generate", "--model", "BA", "--increments", "5", *flags, "--out", str(out),
        )
        assert code == 2
        assert stderr.startswith(f"error (ModelError): {named}")
        assert not out.exists()
