"""Benchmark of growthfit's public Python API.  See README.md in this directory.

    python3 perfbench/run.py --workload fit-grid --seed 1 --seconds 20 --trace 0

Set-up runs ``SETUP_REPEATS`` times, each in a fresh process (import plus
input generation and file write); ``setup_s`` is the median.  The timed
passes then repeat until ``--seconds`` of pass time has been measured (at
least one pass, at most ``MAX_PASSES``).  Output checks, and the comparison
of exact work counts between passes and with earlier runs of the same seed,
run outside the timed passes.  With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` an untraced reference pass precedes
the traced passes and the result holds the per-layer metrics.  The last line of standard
output is the result as one JSON object; the full record, with the
environment, checks, counts and spans, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import env
import spans

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# Output checks run after every pass, so a cap keeps very fast passes within the time limit.
MAX_PASSES = 10

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer timings: metric name -> the calls whose durations it sums.
CALL_METRICS = {
    "stream.ingest_s": ["stream.ingest_edge_file"],
    "graph.replay_s": ["graph.final_graph"],
    "generate.grow_s": ["generate.grow"],
    "likelihood.cache_build_s": ["likelihood.build_choice_cache"],
    "likelihood.score_stream_s": ["likelihood.score_stream_pre", "likelihood.score_stream_post"],
    "likelihood.dp_trace_s": ["likelihood.build_dp_trace"],
    "estimation.fit_j1_s": ["estimation.fit_intervals_j1"],
    "estimation.fit_j10_s": ["estimation.fit_intervals_j10"],
    "estimation.fit_j2_s": ["estimation.fit_intervals_j2"],
    "estimation.dp_scan_s": ["estimation.fit_degree_exponent"],
    "estimation.changepoint_s": ["estimation.fit_changepoint", "estimation.fit_dp_changepoint"],
    "netstats.stats_series_s": ["netstats.stats_series"],
}
COUNT_METRICS = [
    "stream.records",
    "stream.records_kept",
    "generate.increments",
    "likelihood.cache_step_rows",
    "likelihood.cache_orderings",
    "likelihood.cache_bytes",
    "likelihood.sampled_increments",
    "likelihood.fallback_choices",
    "likelihood.impossible_increments",
    "likelihood.dp_trace_entries",
    "estimation.lattice_points",
    "estimation.lattice_row_evals",
    "estimation.dp_scan_points",
    "netstats.checkpoints",
]
# Rate metric -> (unit, unit scale, timing metrics summed, count that divides them).
RATE_METRICS = {
    "stream.ingest_us_per_record": ("us", 1e6, ["stream.ingest_s"], "stream.records"),
    "generate.grow_us_per_increment": ("us", 1e6, ["generate.grow_s"], "generate.increments"),
    "likelihood.cache_us_per_increment": (
        "us", 1e6, ["likelihood.cache_build_s"], "likelihood.cache_increments"
    ),
    "likelihood.score_us_per_increment": (
        "us", 1e6, ["likelihood.score_stream_s"], "likelihood.scored_increments"
    ),
    "estimation.ns_per_lattice_row_eval": (
        "ns",
        1e9,
        ["estimation.fit_j1_s", "estimation.fit_j10_s", "estimation.fit_j2_s"],
        "estimation.lattice_row_evals",
    ),
    "estimation.dp_scan_ms_per_point": ("ms", 1e3, ["estimation.dp_scan_s"], "estimation.dp_scan_points"),
}
LAYERS = ["stream", "graph", "generate", "likelihood", "estimation", "netstats"]
BENCH_METRICS = {"bench.trace_overhead_s": "s", "bench.span_coverage": "ratio", "bench.error_rate": "ratio"}
PER_LAYER = {
    **{name: "s" for name in CALL_METRICS},
    **{name: "B" if name.endswith("_bytes") else "count" for name in COUNT_METRICS},
    **{name: spec[0] for name, spec in RATE_METRICS.items()},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    **BENCH_METRICS,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (smoke test only)")
    return parser.parse_args(argv)


def file_sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def run_setup(args, input_path: Path) -> tuple[list[float], set]:
    """Time each set-up in its own process; every repeat must write the same bytes."""
    seconds, digests = [], set()
    command = [sys.executable, str(HERE / "make_input.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--scale", repr(args.scale), "--out", str(input_path)]
    for _ in range(SETUP_REPEATS):
        input_path.unlink(missing_ok=True)
        start = perf_counter()
        subprocess.run(command, check=True, timeout=150)
        seconds.append(perf_counter() - start)
        digests.add(file_sha256(input_path))
    return seconds, digests


@dataclass
class PassResult:
    timed: spans.Pass
    failed: set
    checks: list
    counts: dict | None  # None when a call failed
    rss_mb: float  # peak RSS of the process right after the timed pass


def run_pass(workload, args, input_path: Path, run_id: str, traced: bool) -> PassResult:
    """One timed pass, then its output checks, outside the timed section."""
    out: dict = {}
    gc.collect()
    p = spans.Pass(workload.name, run_id, traced)
    error = None
    with p:
        try:
            workload.run(p, out, args.seed, args.scale, input_path)
        except Exception:  # a failing call is counted, the benchmark goes on
            error = traceback.format_exc()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = {name for name in workload.CALLS if name not in p.completed}
    checks = []
    if error is not None:
        checks.append({"call": p.current, "check": "call raised", "ok": False, "detail": error})
    for call, label, check in workload.checks(out, args.scale):
        if call not in p.completed:
            continue
        try:
            ok, detail = check()
        except Exception:
            ok, detail = False, traceback.format_exc()
        checks.append({"call": call, "check": label, "ok": bool(ok), "detail": detail})
        if not ok:
            failed.add(call)
    counts = workload.counts(out) if not failed else None
    return PassResult(p, failed, checks, counts, rss_mb)


def counts_record_path(args) -> Path:
    key = f"{args.workload}|{args.seed}|{args.scale!r}|{env.source_digest()}"
    return env.OUT_DIR / f"counts-{hashlib.sha256(key.encode()).hexdigest()[:16]}.json"


def consistent_counts(args, per_pass: list) -> tuple[bool, str]:
    """All passes agree, and agree with any earlier run of this seed on the same sources."""
    if any(c is None for c in per_pass):
        return False, "a pass failed, so its counts are missing"
    if any(c != per_pass[0] for c in per_pass[1:]):
        return False, f"counts differ between passes: {per_pass}"
    path = counts_record_path(args)
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != per_pass[0]:
            return False, f"counts differ from an earlier run of this seed: {earlier} vs {per_pass[0]}"
    else:
        path.write_text(json.dumps(per_pass[0], sort_keys=True))
    return True, ""


def layer_metrics(passes, counts: dict, reference_s: float) -> dict:
    """Per-layer metrics: medians over the traced passes, counts as read, and their ratios."""
    per_pass = []
    for p in passes:
        calls = p.call_seconds()
        values = {m: sum(calls.get(c, 0.0) for c in names) for m, names in CALL_METRICS.items()}
        for layer in LAYERS:
            values[f"{layer}.share"] = sum(s for c, s in calls.items() if c.startswith(layer + ".")) / p.seconds
        values["bench.span_coverage"] = p.coverage()
        per_pass.append(values)
    metrics = {m: statistics.median(v[m] for v in per_pass) for m in per_pass[0]}
    metrics.update({m: counts.get(m, 0) for m in COUNT_METRICS})
    for name, (_, unit_scale, timings, count) in RATE_METRICS.items():
        denominator = counts.get(count, 0)
        metrics[name] = unit_scale * sum(metrics[t] for t in timings) / denominator if denominator else 0.0
    metrics["bench.trace_overhead_s"] = statistics.median(p.seconds for p in passes) - reference_s
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    env.pin_threads()
    try:
        env.import_growthfit()
    except env.MissingProgramError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env.OUT_DIR.mkdir(exist_ok=True)
    base = f"{args.workload}-seed{args.seed}" + (f"-scale{args.scale}" if args.scale != 1.0 else "")
    stem = f"{base}-trace{args.trace}"
    input_path = env.OUT_DIR / f"input-{base}.tsv"

    setup_seconds, input_digests = run_setup(args, input_path)

    results = []

    def measured(label: str, traced: bool):
        result = run_pass(workload, args, input_path, f"{stem}-{label}", traced)
        results.append(result)
        return result.timed

    reference = measured("reference", traced=False) if args.trace else None
    passes, timed = [], 0.0
    while not passes or (timed < args.seconds and len(passes) < MAX_PASSES):
        passes.append(measured(f"pass{len(passes)}", traced=bool(args.trace)))
        timed += passes[-1].seconds

    attempted = len(workload.CALLS) * len(results)
    failed = sum(len(r.failed) for r in results)
    counts_ok, counts_detail = consistent_counts(args, [r.counts for r in results])
    setup_ok = len(input_digests) == 1
    correct = failed == 0 and counts_ok and setup_ok
    counts = results[0].counts or {}

    if args.trace:
        metrics = layer_metrics(passes, counts, reference.seconds)
        metrics["bench.error_rate"] = failed / attempted
        all_spans = [s for p in [reference, *passes] for s in p.spans()]
        spans.write_spans(env.OUT_DIR / f"spans-{stem}.jsonl", all_spans)
    else:
        metrics = {
            "run_s": statistics.median(p.seconds for p in passes),
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": results[0].rss_mb,
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": env.environment_record(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "counts": counts,
        "counts_computed": ["likelihood.cache_bytes", "estimation.lattice_row_evals"],
        "counts_consistent": counts_ok if counts_ok else counts_detail,
        "setup_seconds": setup_seconds,
        "setup_inputs_identical": setup_ok,
        "pass_seconds": [r.timed.seconds for r in results],
        "checks": [dict(c, run_id=r.timed.run_id) for r in results for c in r.checks],
    }
    (env.OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=2, default=str))

    for c in record["checks"]:
        if not c["ok"]:
            print(f"FAILED {c['call']}: {c['check']}: {c['detail']}", file=sys.stderr)
    if not counts_ok:
        print(f"FAILED counts: {counts_detail}", file=sys.stderr)
    if not setup_ok:
        print("FAILED set-up: repeated set-ups wrote different inputs", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
