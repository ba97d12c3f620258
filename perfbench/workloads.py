"""The benchmark's workloads: input set-up, the timed calls, output checks and work counts.

Each workload has

* ``CALLS``: the timed calls in order, named ``<module>.<call>``;
* ``make_input``: the untimed set-up, which writes the workload's input file;
* ``run``: the timed calls, each made through ``Pass.call``, with every
  result stored in ``out`` as soon as it exists;
* ``checks``: output checks, each tied to the call whose output it checks.
  They compare against the generating truth or against an independent path
  through the package, never against numbers pinned from one commit;
* ``counts``: exact work counts read from the returned objects.

``scale`` shrinks the input sizes for the smoke test; runs of the benchmark
itself always use scale 1.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import growthfit as gf


def scaled(size: int, scale: float) -> int:
    return max(1, round(size * scale))


def write_edges(path, stream) -> None:
    gf.write_edge_file(path, gf.stream_edge_records(stream))


def close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))


def cache_counts(cache) -> dict:
    arrays = [v for v in vars(cache).values() if isinstance(v, np.ndarray)]
    return {
        "likelihood.cache_increments": cache.num_increments,
        "likelihood.cache_step_rows": int(cache.step_ratios.shape[0]),
        "likelihood.cache_orderings": len(cache.ordering_offsets) - 1,
        "likelihood.cache_bytes": sum(a.nbytes for a in arrays),
        "likelihood.sampled_increments": cache.sampled_increments,
        "likelihood.fallback_choices": cache.fallback_choices,
    }


def lattice_counts(cache, fits) -> dict:
    """Lattice size, and lattice points times step rows summed over every fitted interval."""
    points = len(gf.simplex_grid(len(cache.components), fits[0].diagnostics["weight_step"]))
    rows_at = cache.ordering_offsets[cache.increment_offsets]
    evals = 0
    for fit in fits:
        for iv in fit.intervals:
            evals += points * int(rows_at[iv["end_index"] + 1] - rows_at[iv["start_index"]])
    return {"estimation.lattice_points": points, "estimation.lattice_row_evals": evals}


def ingest_counts(report) -> dict:
    return {"stream.records": report.input_records, "stream.records_kept": report.kept}


def lattice_neighbours(weights: np.ndarray, step: float) -> np.ndarray:
    """Every lattice point one step away: move one unit of weight between two components."""
    out = []
    for i in range(len(weights)):
        for j in range(len(weights)):
            if i != j and weights[j] >= step - 1e-12:
                w = weights.copy()
                w[i] += step
                w[j] -= step
                out.append(np.clip(w, 0.0, 1.0))
    return np.array(out)


def no_better_neighbour(cache, fit) -> tuple[bool, str]:
    """No lattice neighbour of any interval's weights scores higher under cache_loglik.

    Neighbours are scored in a different batch from the fit's own grid, so a
    neighbour must win by more than 1e-9 relative to count as higher.
    """
    step = fit.diagnostics["weight_step"]
    for iv in fit.intervals:
        lo, hi = iv["start_index"], iv["end_index"] + 1
        w = np.array(iv["weights"])
        best = float(gf.cache_loglik(cache, w, lo, hi))
        scores = gf.cache_loglik(cache, lattice_neighbours(w, step), lo, hi)
        if np.any(scores > best + 1e-9 * abs(best)):
            return False, f"interval [{lo}, {hi}) at {w.tolist()}: neighbour scores {scores.max()} > {best}"
    return True, ""


class FitGrid:
    """Ingest, replay into a ChoiceCache, and fit the 3-component weight lattice at J=1 and J=10."""

    name = "fit-grid"
    SPEC = "0.4*BA + 0.3*TRI + 0.3*RAND"
    TRUTH = (0.4, 0.3, 0.3)
    STARS = 5000
    CALLS = (
        "stream.ingest_edge_file",
        "likelihood.build_choice_cache",
        "estimation.fit_intervals_j1",
        "estimation.fit_intervals_j10",
        "estimation.compare_interval_fits",
    )

    def make_input(self, seed: int, scale: float, path) -> None:
        recipe = gf.GrowthRecipe.constant(self.SPEC, increments=scaled(self.STARS, scale), new_targets=3)
        write_edges(path, gf.grow(recipe, seed=seed))

    def run(self, p, out: dict, seed: int, scale: float, path) -> None:
        components = [gf.parse_component(c) for c in ("BA", "TRI", "RAND")]
        out["stream"], out["report"] = p.call(self.CALLS[0], gf.ingest_edge_file, path)
        out["cache"] = p.call(self.CALLS[1], gf.build_choice_cache, out["stream"], components)
        out["fit1"] = p.call(self.CALLS[2], gf.fit_intervals, out["cache"], j=1)
        out["fit10"] = p.call(self.CALLS[3], gf.fit_intervals, out["cache"], j=10)
        out["wilks"] = p.call(self.CALLS[4], gf.compare_interval_fits, out["fit1"], out["fit10"])

    def checks(self, out: dict, scale: float):
        stars = scaled(self.STARS, scale)
        ingest, cache_call, j1, j10, wilks = self.CALLS

        def stars_kept():
            grown = sum(1 for inc in out["stream"].increments if inc.timestamp >= 0)
            report = out["report"]
            return grown == stars and report.kept == report.input_records, f"{grown} stars, {report.to_dict()}"

        def one_row_block_per_increment():
            cache = out["cache"]
            return cache.num_increments == len(out["stream"].increments), str(cache.num_increments)

        def finite(name):
            fit = out[name]
            return math.isfinite(fit.loglik) and math.isfinite(fit.loglik_rand), str(fit.loglik)

        def weights_near_truth():
            w = out["fit1"].intervals[0]["weights"]
            return all(abs(a - b) <= 0.05 for a, b in zip(w, self.TRUTH)), str(w)

        def matches_direct_score():
            fit = out["fit1"]
            summary, _ = gf.score_stream(out["stream"], fit.schedule())
            return close(fit.loglik, summary.loglik, 1e-6), f"{fit.loglik} vs {summary.loglik}"

        def wilks_report():
            report = out["wilks"]
            finite_ok = all(map(math.isfinite, (report.statistic, report.loglik_null, report.loglik_alt)))
            return finite_ok and report.df == 18, str(report.to_dict())

        yield ingest, "every grown star survives ingest", stars_kept
        yield cache_call, "one cache block per increment", one_row_block_per_increment
        yield j1, "log-likelihood is finite", lambda: finite("fit1")
        yield j1, "weights within 0.05 of the generating mixture", weights_near_truth
        yield j1, "log-likelihood equals score_stream of the fitted schedule", matches_direct_score
        yield j1, "no lattice neighbour scores higher", lambda: no_better_neighbour(out["cache"], out["fit1"])
        yield j10, "log-likelihood is finite", lambda: finite("fit10")
        yield j10, "no lattice neighbour scores higher", lambda: no_better_neighbour(out["cache"], out["fit10"])
        yield wilks, "finite statistic with df = 18", wilks_report

    def counts(self, out: dict) -> dict:
        return {
            **ingest_counts(out["report"]),
            **cache_counts(out["cache"]),
            **lattice_counts(out["cache"], [out["fit1"], out["fit10"]]),
        }


class ScoreReplay:
    """Score a two-phase stream of large stars directly, locate its switch, and fit J=2 weights."""

    name = "score-replay"
    PRE = "0.2*BA + 0.8*RAND"
    POST = "0.8*BA + 0.2*RAND"
    INCREMENTS = 3000
    INTERNAL_SIZES = (1, 2, 3, 4, 5, 6, 8)
    WARMUP = 20
    CALLS = (
        "stream.ingest_edge_file",
        "graph.final_graph",
        "likelihood.score_stream_pre",
        "likelihood.score_stream_post",
        "estimation.fit_changepoint",
        "likelihood.build_choice_cache",
        "estimation.fit_intervals_j2",
    )

    def switch(self, scale: float) -> int:
        return scaled(self.INCREMENTS, scale) // 2 - 1

    def op_schedule(self, increments: int, seed: int) -> gf.OperationSchedule:
        """Star shapes: in each phase, half internal stars, each size an equal share, in seeded order.

        The rest are external stars with 3 targets.  Equal shares in both
        phases keep the number of step rows, and the J=2 fit's working set
        per interval, nearly independent of the seed.  The first ``WARMUP``
        stars are external, so that every internal star finds a center with
        enough non-neighbours.
        """
        rng = np.random.default_rng([seed, 1])
        rows = [gf.OperationRow(i, True, 0, 3) for i in range(increments)]
        half = increments // 2
        for lo, hi in ((0, half), (half, increments)):
            internal = (hi - lo) // 2
            shares = [self.INTERNAL_SIZES[i % len(self.INTERNAL_SIZES)] for i in range(internal)]
            first = max(lo, self.WARMUP)
            slots = first + rng.choice(hi - first, size=internal, replace=False)
            for slot, size in zip(slots, rng.permutation(shares)):
                rows[slot] = gf.OperationRow(int(slot), False, 0, int(size))
        return gf.OperationSchedule(rows)

    def make_input(self, seed: int, scale: float, path) -> None:
        n = scaled(self.INCREMENTS, scale)
        recipe = gf.GrowthRecipe.two_phase(self.PRE, self.POST, float(self.switch(scale)), seed_clique=10)
        write_edges(path, gf.grow(recipe, seed=seed, op_schedule=self.op_schedule(n, seed)))

    def run(self, p, out: dict, seed: int, scale: float, path) -> None:
        pre, post = gf.parse_model_spec(self.PRE), gf.parse_model_spec(self.POST)
        components = [gf.parse_component("BA"), gf.parse_component("RAND")]
        out["stream"], out["report"] = p.call(self.CALLS[0], gf.ingest_edge_file, path)
        out["graph"] = p.call(self.CALLS[1], out["stream"].final_graph)
        out["pre"] = p.call(self.CALLS[2], gf.score_stream, out["stream"], pre, keep_series=True)
        out["post"] = p.call(self.CALLS[3], gf.score_stream, out["stream"], post, keep_series=True)
        out["changepoint"] = p.call(self.CALLS[4], series_changepoint, out["pre"][1], out["post"][1])
        out["cache"] = p.call(self.CALLS[5], gf.build_choice_cache, out["stream"], components)
        out["fit2"] = p.call(self.CALLS[6], gf.fit_intervals, out["cache"], j=2)

    def checks(self, out: dict, scale: float):
        n = scaled(self.INCREMENTS, scale)
        ingest, replay, score_pre, score_post, changepoint, cache_call, j2 = self.CALLS
        pre = gf.parse_model_spec(self.PRE)
        pre_weights = dict(zip(pre.components, pre.weights))

        def stars_kept():
            grown = sum(1 for inc in out["stream"].increments if inc.timestamp >= 0)
            report = out["report"]
            return grown == n and report.kept == report.input_records, f"{grown} stars, {report.to_dict()}"

        def graph_consistent():
            graph = out["graph"]
            graph.check_invariants()
            return graph.edge_count == out["report"].kept, f"{graph.edge_count} edges"

        def scored(key):
            summary, series = out[key]
            ok = math.isfinite(summary.loglik) and summary.impossible_increments == 0
            return ok and len(series) == len(out["stream"].increments), str(summary.to_dict())

        def cache_series_matches_direct():
            summary, _ = out["pre"]
            cache = out["cache"]
            weights = [pre_weights[c] for c in cache.components]
            total = float(gf.changepoint_series_from_cache(cache, weights).sum())
            return close(total, summary.loglik, 1e-6), f"{total} vs {summary.loglik}"

        def same_sampled_counts():
            direct = out["pre"][0].sampled_increments
            return direct == out["cache"].sampled_increments, f"{direct} vs {out['cache'].sampled_increments}"

        def switch_found():
            t_hat = out["changepoint"].t_hat
            return abs(t_hat - self.switch(scale)) <= 0.05 * n, f"t_hat {t_hat}"

        def ba_weight_rises():
            first, second = (iv["weights"][0] for iv in out["fit2"].intervals)
            return second > first and math.isfinite(out["fit2"].loglik), f"BA {first} -> {second}"

        yield ingest, "every grown star survives ingest", stars_kept
        yield replay, "final graph is consistent", graph_consistent
        yield score_pre, "finite, no impossible increment", lambda: scored("pre")
        yield score_post, "finite, no impossible increment", lambda: scored("post")
        yield changepoint, "changepoint within 5% of N of the switch", switch_found
        yield cache_call, "cache series sums to the direct log-likelihood", cache_series_matches_direct
        yield cache_call, "sampled increments equal on both paths", same_sampled_counts
        yield j2, "BA weight rises across the switch", ba_weight_rises

    def counts(self, out: dict) -> dict:
        pre, post = out["pre"][0], out["post"][0]
        return {
            **ingest_counts(out["report"]),
            **cache_counts(out["cache"]),
            **lattice_counts(out["cache"], [out["fit2"]]),
            "likelihood.scored_increments": pre.increments + post.increments,
            "likelihood.impossible_increments": pre.impossible_increments + post.impossible_increments,
            "graph.edges": out["graph"].edge_count,
        }


def series_changepoint(pre_series, post_series):
    """fit_changepoint on two kept score series, as a caller of score_stream would run it."""
    return gf.fit_changepoint(
        np.array([s.logp for s in pre_series]),
        np.array([s.logp for s in post_series]),
        np.array([s.timestamp for s in pre_series]),
    )


class GrowScan:
    """Grow a two-phase DP/RP/TRI stream, then trace it and scan the degree exponent and switch."""

    name = "grow-scan"
    PRE = "0.4*DP(0.5) + 0.3*RP(0.5) + 0.3*TRI"
    POST = "0.4*DP(1.5) + 0.3*RP(0.5) + 0.3*TRI"
    INCREMENTS = 20_000
    CALLS = (
        "generate.grow",
        "netstats.stats_series",
        "likelihood.build_dp_trace",
        "estimation.fit_degree_exponent",
        "estimation.fit_dp_changepoint",
    )

    def switch(self, scale: float) -> int:
        return scaled(self.INCREMENTS, scale) // 2 - 1

    def make_input(self, seed: int, scale: float, path) -> None:
        """Nothing to prepare: generation itself is timed."""

    def run(self, p, out: dict, seed: int, scale: float, path) -> None:
        recipe = gf.GrowthRecipe.two_phase(
            self.PRE,
            self.POST,
            float(self.switch(scale)),
            increments=scaled(self.INCREMENTS, scale),
            internal_prob=0.2,
        )
        out["stream"] = p.call(self.CALLS[0], gf.grow, recipe, seed=seed)
        out["stats"] = p.call(self.CALLS[1], gf.stats_series, out["stream"])
        out["trace"] = p.call(self.CALLS[2], gf.build_dp_trace, out["stream"])
        out["scan"] = p.call(self.CALLS[3], gf.fit_degree_exponent, out["trace"])
        out["changepoint"] = p.call(self.CALLS[4], gf.fit_dp_changepoint, out["trace"], 0.5, 1.5)

    def checks(self, out: dict, scale: float):
        n = scaled(self.INCREMENTS, scale)
        grow, stats, trace, scan, changepoint = self.CALLS

        def grown():
            stream = out["stream"]
            stream.final_graph().check_invariants()
            return len(stream.increments) == n, f"{len(stream.increments)} increments"

        def stats_end_at_final_graph():
            rows, final = out["stats"], out["stream"].final_graph()
            last = rows[-1]
            ok = last.increments == n and last.edges == final.edge_count and last.nodes == final.num_nodes
            return ok, f"{len(rows)} rows, last {last.to_dict()}"

        def one_entry_block_per_increment():
            return out["trace"].num_increments == n, str(out["trace"].num_increments)

        def interior_exponent():
            fit = out["scan"]
            return fit.grid[0] < fit.value < fit.grid[-1] and math.isfinite(fit.loglik), f"alpha {fit.value}"

        def switch_found():
            t_hat = out["changepoint"].t_hat
            return abs(t_hat - self.switch(scale)) <= 0.05 * n, f"t_hat {t_hat}"

        yield grow, "N increments and a consistent final graph", grown
        yield stats, "last checkpoint matches the final graph", stats_end_at_final_graph
        yield trace, "one trace block per increment", one_entry_block_per_increment
        yield scan, "exponent is an interior grid point", interior_exponent
        yield changepoint, "changepoint within 5% of N of the switch", switch_found

    def counts(self, out: dict) -> dict:
        trace = out["trace"]
        return {
            "generate.increments": len(out["stream"].increments),
            "netstats.checkpoints": len(out["stats"]),
            "likelihood.dp_trace_entries": len(trace.chosen_deg),
            "likelihood.dp_trace_increments": trace.num_increments,
            "likelihood.sampled_increments": trace.sampled_increments,
            "estimation.dp_scan_points": len(out["scan"].grid),
            "generate.stream_sha256": stream_digest(out["stream"]),
        }


def stream_digest(stream) -> str:
    digest = hashlib.sha256()
    for inc in stream.increments:
        digest.update(repr((inc.timestamp, inc.center, inc.targets, inc.targets_new)).encode())
    return digest.hexdigest()


WORKLOADS = {w.name: w for w in (FitGrid(), ScoreReplay(), GrowScan())}
