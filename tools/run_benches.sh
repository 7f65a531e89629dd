#!/usr/bin/env bash
# Unified bench driver: runs every paper bench binary with the shared CLI
# and collects one JSON Lines file per bench in <out-dir>. Extra arguments
# are forwarded to every bench (e.g. --scale smoke --seed 4242).
#
# Usage:
#   tools/run_benches.sh <build-dir> <out-dir> [bench flags...]
# Typical CI invocation:
#   tools/run_benches.sh build bench-json --scale smoke --seed 4242
set -euo pipefail

build_dir=${1:?usage: run_benches.sh <build-dir> <out-dir> [bench flags...]}
out_dir=${2:?usage: run_benches.sh <build-dir> <out-dir> [bench flags...]}
shift 2

benches=(
  ablation_blocking
  ablation_merging
  ablation_meta_edges
  ablation_ngram
  fig6_walk_length
  fig7_num_walks
  fig8_scaling
  fig9_filtering
  fig10_combination
  serve_http
  serve_qps
  table1_imdb
  table2_corona
  table3_audit
  table4_politifact
  table5_snopes
  table6_sts
  table7_times
  table8_compression
)

mkdir -p "$out_dir"
for bench in "${benches[@]}"; do
  bin="$build_dir/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "run_benches: missing bench binary $bin (build the bench_all target)" >&2
    exit 1
  fi
  echo "== $bench $*"
  start=$SECONDS
  "$bin" --json --out "$out_dir/$bench.jsonl" "$@"
  echo "   $((SECONDS - start))s, $(wc -l < "$out_dir/$bench.jsonl") rows"
done
