#!/usr/bin/env python3
"""Validate, merge, and regression-gate bench --json output.

Reads one or more JSON Lines files produced by the bench binaries
(`<bench> --json --out rows.jsonl`), validates every row, and merges them
into a single JSON document (the CI `BENCH_pr.json` artifact).

The validation gate fails (exit 1) when:
  * a line is not a JSON object with the expected keys,
  * a `value` or `wall_seconds` is missing, non-numeric, NaN/inf, or null
    (the C++ writer serialises non-finite measurements as null),
  * an input file contributes no rows (a bench that silently produced
    nothing), or no rows exist at all.

With `--baseline BASELINE.json` (a document previously written by this
script, e.g. the committed `BENCH_baseline.json`) it additionally enforces
the perf/quality regression gate:
  * a quality metric (mrr/map@K/hp@K/precision/recall/F and friends) may
    not drop more than `--max-quality-drop` (default 0.02) below the
    baseline — the embedding pipeline is deterministic for a fixed seed,
    so same-machine same-seed runs reproduce quality values exactly and
    the tolerance only absorbs cross-toolchain libm differences;
  * a memory metric (`*_bytes`) may not exceed `--max-memory-ratio`
    (default 1.1) times the baseline value — index layouts are
    deterministic, so growth is a real footprint regression, with a
    small allowance for intentional layout tweaks;
  * the per-(bench, scenario) sum of `wall_seconds` may not exceed
    `--max-wall-ratio` (default 1.5) times the baseline sum, for
    scenarios whose baseline sum is at least `--min-wall-seconds`
    (default 0.25 s; smaller sums are timing noise);
  * every baseline row key must still be present (lost coverage fails).
Timing-valued metrics (`*seconds*`, `*_ms`, `*qps`) are never
value-compared — their cost shows up in the wall-time aggregate instead.

`--min-recall X` additionally enforces an absolute floor (no baseline
needed): every `recall@K` row whose parameter names a PQ configuration
(contains `pq`) must be at least X. This is the compressed-index
quality bar — PQ may trade memory for recall only down to the floor.

Usage:
  tools/check_bench.py bench-json/*.jsonl --out BENCH_pr.json \
      [--baseline BENCH_baseline.json]
"""

import argparse
import json
import math
import re
import sys

REQUIRED_STRING_KEYS = ("bench", "scenario", "parameter", "metric")
REQUIRED_NUMBER_KEYS = ("value", "wall_seconds")

# Metrics gated on value drops: ranking/classification quality, where
# higher is better and a fixed seed reproduces the value exactly. This
# includes the serving bench's recall@k rows (IVF recall is a pure
# function of the seeded index build, so drops are real regressions).
QUALITY_METRIC_RE = re.compile(
    r"^(mrr|map@|hp@|exact_[prf]@|node_[prf]@|gold_recall|spearman"
    r"|accuracy|precision|recall|f1)")
# Memory-footprint metrics: deterministic byte counts (index layout is a
# pure function of n/dim/options), gated on growth vs baseline.
MEMORY_METRIC_RE = re.compile(r"_bytes$")
# Metrics that are themselves timings or machine-dependent throughput
# (table7_times' train/test seconds, serve_http's qps, and speedup ratios
# like fig8_scaling's threads_speedup); never value-compared — their cost
# is gated through the per-scenario wall-time aggregate (or
# --min-threads-speedup), and coverage gating still requires the rows to
# exist.
TIMING_METRIC_RE = re.compile(r"seconds|_ms$|qps$|speedup$")


def validate_row(row, where, errors):
    """Appends problems with one parsed row to `errors`."""
    if not isinstance(row, dict):
        errors.append(f"{where}: row is not a JSON object")
        return False
    ok = True
    for key in REQUIRED_STRING_KEYS:
        v = row.get(key)
        if not isinstance(v, str) or not v:
            errors.append(f"{where}: {key!r} missing or not a non-empty string")
            ok = False
    for key in REQUIRED_NUMBER_KEYS:
        v = row.get(key)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            errors.append(f"{where}: {key!r} missing or non-numeric: {v!r}")
            ok = False
        elif not math.isfinite(v):
            errors.append(f"{where}: {key!r} is not finite: {v!r}")
            ok = False
    return ok


def read_rows(paths, errors):
    rows = []
    for path in paths:
        file_rows = 0
        try:
            fh = open(path, encoding="utf-8")
        except OSError as exc:
            errors.append(f"{path}: cannot open: {exc}")
            continue
        with fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    errors.append(f"{where}: unparseable JSON: {exc}")
                    continue
                if validate_row(row, where, errors):
                    rows.append(row)
                    file_rows += 1
        if file_rows == 0:
            errors.append(f"{path}: no valid benchmark rows (empty metrics)")
    return rows


def row_key(row):
    return (row["bench"], row["scenario"], row["parameter"], row["metric"])


def scenario_wall_sums(rows):
    sums = {}
    for row in rows:
        key = (row["bench"], row["scenario"])
        sums[key] = sums.get(key, 0.0) + row["wall_seconds"]
    return sums


def compare_to_baseline(rows, baseline_doc, args, errors):
    """Appends regression-gate failures to `errors`."""
    base_rows = baseline_doc.get("rows", [])
    if not base_rows:
        errors.append(f"{args.baseline}: baseline document has no rows")
        return

    pr_by_key = {}
    for row in rows:
        pr_by_key[row_key(row)] = row

    # --- quality drops + lost coverage -----------------------------------
    compared = 0
    for base in base_rows:
        key = row_key(base)
        pr = pr_by_key.get(key)
        if pr is None:
            errors.append(
                "baseline coverage lost: no PR row for "
                f"{'/'.join(key)} (bench removed a measurement?)")
            continue
        metric = base["metric"]
        if TIMING_METRIC_RE.search(metric):
            continue  # timings gate via the wall aggregate below
        if MEMORY_METRIC_RE.search(metric):
            if base["value"] > 0 and \
                    pr["value"] > base["value"] * args.max_memory_ratio:
                errors.append(
                    f"memory regression: {'/'.join(key)} grew "
                    f"{base['value']:.0f} -> {pr['value']:.0f} bytes "
                    f"(allowed ratio {args.max_memory_ratio}; if the index "
                    "layout changed on purpose regenerate "
                    "BENCH_baseline.json, see README)")
            continue
        if not QUALITY_METRIC_RE.match(metric):
            continue  # structural metrics (nodes/edges/...) are informational
        drop = base["value"] - pr["value"]
        compared += 1
        if drop > args.max_quality_drop:
            errors.append(
                f"quality regression: {'/'.join(key)} dropped "
                f"{base['value']:.4f} -> {pr['value']:.4f} "
                f"(allowed drop {args.max_quality_drop})")
    if compared == 0:
        errors.append("baseline comparison matched no quality metrics "
                      "(wrong baseline file?)")

    # --- wall-time regressions -------------------------------------------
    base_walls = scenario_wall_sums(base_rows)
    pr_walls = scenario_wall_sums(rows)
    for key, base_wall in sorted(base_walls.items()):
        if base_wall < args.min_wall_seconds:
            continue
        pr_wall = pr_walls.get(key)
        if pr_wall is None:
            continue  # lost coverage already reported per row
        if pr_wall > base_wall * args.max_wall_ratio:
            errors.append(
                f"wall-time regression: {'/'.join(key)} took {pr_wall:.2f}s "
                f"vs baseline {base_wall:.2f}s "
                f"(allowed ratio {args.max_wall_ratio}; if every scenario "
                "regressed at once the runner hardware likely changed — "
                "regenerate BENCH_baseline.json, see README)")


def check_min_recall(rows, min_recall, errors):
    """Fails any PQ-configuration `recall@K` row below `min_recall`
    (absolute gate, no baseline needed — recall against the same-run
    exact index is meaningful on its own). Only rows whose parameter
    names a PQ setup (contains "pq") are held to the floor; plain IVF
    rows sweep nprobe down to deliberately lossy settings."""
    checked = 0
    for row in rows:
        if "pq" not in row["parameter"]:
            continue
        if not row["metric"].startswith("recall@"):
            continue
        checked += 1
        if row["value"] < min_recall:
            errors.append(
                f"compressed-index quality: {'/'.join(row_key(row))} "
                f"= {row['value']:.4f}, below --min-recall {min_recall}")
    if checked == 0:
        errors.append(
            "--min-recall given but no pq recall@K rows found "
            "(serve_qps Synthetic scenario not run?)")


def check_obs_overhead(rows, max_ratio, errors):
    """Fails any `obs_overhead_ratio` row (serve_http's untraced vs
    traced qps ratio, the traced side sampling 10% of requests; min over
    paired rounds) above `max_ratio` (absolute gate, no baseline needed —
    the ratio is a same-run comparison). A ratio of 1.05 means tracing at
    that rate costs 5% of throughput."""
    checked = 0
    for row in rows:
        if row["metric"] != "obs_overhead_ratio":
            continue
        checked += 1
        if row["value"] > max_ratio:
            errors.append(
                f"observability overhead: {'/'.join(row_key(row))} "
                f"= {row['value']:.3f}, above --max-obs-overhead {max_ratio} "
                "(tracing/metrics cost too much throughput)")
    if checked == 0:
        errors.append(
            "--max-obs-overhead given but no obs_overhead_ratio rows found "
            "(serve_http HttpSynthetic scenario not run?)")


def check_profiler_overhead(rows, max_ratio, errors):
    """Fails any `profiler_overhead_ratio` row (serve_http's profiler-off
    vs profiler-armed qps ratio, min over paired rounds) above `max_ratio`
    (absolute gate, no baseline needed). A ratio of 1.05 means a 99 Hz
    capture costs 5% of throughput."""
    checked = 0
    for row in rows:
        if row["metric"] != "profiler_overhead_ratio":
            continue
        checked += 1
        if row["value"] > max_ratio:
            errors.append(
                f"profiler overhead: {'/'.join(row_key(row))} "
                f"= {row['value']:.3f}, above --max-profiler-overhead "
                f"{max_ratio} (sampling profiler costs too much throughput "
                "to arm on a live server)")
    if checked == 0:
        errors.append(
            "--max-profiler-overhead given but no profiler_overhead_ratio "
            "rows found (serve_http HttpSynthetic scenario not run?)")


def check_threads_speedup(rows, min_speedup, errors):
    """Fails any `threads_speedup` row below `min_speedup` (absolute gate,
    no baseline needed — the metric is a same-run 1-thread vs N-thread
    ratio, so it is meaningful on its own). Intended for multi-core CI
    runners; single-core machines cannot pass a gate above 1.0."""
    checked = 0
    for row in rows:
        if row["metric"] != "threads_speedup":
            continue
        checked += 1
        if row["value"] < min_speedup:
            errors.append(
                f"parallel-efficiency regression: {'/'.join(row_key(row))} "
                f"= {row['value']:.2f}x, below --min-threads-speedup "
                f"{min_speedup}")
    if checked == 0:
        errors.append(
            "--min-threads-speedup given but no threads_speedup rows found "
            "(fig8_scaling not run?)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+", help="JSON Lines row files")
    parser.add_argument("--out", help="write the merged JSON document here")
    parser.add_argument(
        "--baseline",
        help="merged baseline document to regression-gate against")
    parser.add_argument(
        "--max-quality-drop", type=float, default=0.02,
        help="max allowed drop of a quality metric vs baseline "
             "(default %(default)s)")
    parser.add_argument(
        "--max-memory-ratio", type=float, default=1.1,
        help="max allowed growth ratio of a *_bytes metric vs baseline "
             "(default %(default)s)")
    parser.add_argument(
        "--min-recall", type=float, default=0.0,
        help="fail if any PQ recall@K row is below this absolute floor; "
             "0 disables (default %(default)s)")
    parser.add_argument(
        "--max-wall-ratio", type=float, default=1.5,
        help="max allowed per-scenario wall_seconds ratio vs baseline "
             "(default %(default)s)")
    parser.add_argument(
        "--min-wall-seconds", type=float, default=0.25,
        help="ignore wall regressions for scenarios whose baseline sum is "
             "below this (timing noise; default %(default)s)")
    parser.add_argument(
        "--max-obs-overhead", type=float, default=0.0,
        help="fail if any obs_overhead_ratio row (serve_http's untraced vs "
             "10%%-sampled traced qps ratio) exceeds this; 0 disables "
             "(default %(default)s). 1.05 allows 5%% tracing overhead.")
    parser.add_argument(
        "--max-profiler-overhead", type=float, default=0.0,
        help="fail if any profiler_overhead_ratio row (serve_http's "
             "profiler-off vs profiler-armed qps ratio) exceeds this; 0 "
             "disables (default %(default)s). 1.05 allows 5%% capture "
             "overhead.")
    parser.add_argument(
        "--min-threads-speedup", type=float, default=0.0,
        help="fail if any threads_speedup row (fig8_scaling's 8-thread vs "
             "1-thread walk+train wall ratio) is below this; 0 disables "
             "(default %(default)s). Only meaningful on multi-core runners.")
    args = parser.parse_args()

    errors = []
    rows = read_rows(args.inputs, errors)

    if not rows:
        errors.append("no benchmark rows found across all inputs")

    if args.min_threads_speedup > 0 and rows:
        check_threads_speedup(rows, args.min_threads_speedup, errors)

    if args.max_obs_overhead > 0 and rows:
        check_obs_overhead(rows, args.max_obs_overhead, errors)

    if args.max_profiler_overhead > 0 and rows:
        check_profiler_overhead(rows, args.max_profiler_overhead, errors)

    if args.min_recall > 0 and rows:
        check_min_recall(rows, args.min_recall, errors)

    if args.baseline and rows:
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                baseline_doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            errors.append(f"{args.baseline}: cannot read baseline: {exc}")
        else:
            compare_to_baseline(rows, baseline_doc, args, errors)

    if errors:
        for err in errors:
            print(f"check_bench: {err}", file=sys.stderr)
        print(f"check_bench: FAILED with {len(errors)} error(s)",
              file=sys.stderr)
        return 1

    benches = {}
    for row in rows:
        benches[row["bench"]] = benches.get(row["bench"], 0) + 1
    doc = {
        "schema_version": 1,
        "row_count": len(rows),
        "benches": dict(sorted(benches.items())),
        "rows": rows,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    gated = f" (gated against {args.baseline})" if args.baseline else ""
    print(f"check_bench: OK — {len(rows)} rows from {len(benches)} benches"
          + (f" -> {args.out}" if args.out else "") + gated)
    return 0


if __name__ == "__main__":
    sys.exit(main())
