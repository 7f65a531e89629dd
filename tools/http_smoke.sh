#!/usr/bin/env bash
# Shared HTTP serving smoke driver for CI. One script owns the
# server-start / healthz-wait / query / drain choreography that used to be
# copy-pasted into every workflow job.
#
# Usage:
#   tools/http_smoke.sh <mode> <tdmatch_serve-binary> <snapshot.tds>
#
# Modes:
#   basic      full endpoint tour: query, batch, malformed bodies (400),
#              hot reload, stats, and a SIGTERM that must drain and exit 0
#              (the build-and-test leg).
#   sanitized  the lighter tour the ASan/UBSan job runs (longer healthz
#              budget: sanitized startup is slow), malformed bodies too.
#   sharded    two servers, one unsharded and one --shards 4: exact- and
#              approx-mode responses must be byte-identical (both adopt
#              the snapshot's flat ivfpq section); then a flood against
#              --max-inflight 2 must produce at least one 429 with a
#              well-formed Retry-After while /v1/healthz stays green and
#              the /v1/stats shed counter advances.
set -euo pipefail

mode=${1:?usage: http_smoke.sh <basic|sanitized|sharded> <serve-binary> <snapshot.tds>}
serve_bin=${2:?missing tdmatch_serve binary path}
snapshot=${3:?missing snapshot path}

tmp_dir=$(mktemp -d)
pids=()
cleanup() {
  if [ "${#pids[@]}" -gt 0 ]; then
    for pid in "${pids[@]}"; do
      kill "$pid" 2>/dev/null || true
    done
  fi
  rm -rf "$tmp_dir"
}
trap cleanup EXIT

fail() {
  echo "::error::http_smoke($mode): $*" >&2
  exit 1
}

# start_server <port> [extra serve flags...] — sets `last_pid` (no command
# substitution: a $(...) subshell could not append to the pids array).
start_server() {
  local port=$1
  shift
  "$serve_bin" serve --snapshot "$snapshot" --port "$port" "$@" &
  last_pid=$!
  pids+=("$last_pid")
}

# wait_healthy <port> <tries> — polls /v1/healthz every 0.2s.
wait_healthy() {
  local port=$1 tries=$2 i
  for ((i = 0; i < tries; i++)); do
    if curl -sf "http://127.0.0.1:$port/v1/healthz" > /dev/null; then
      return 0
    fi
    sleep 0.2
  done
  fail "server on port $port never became healthy ($tries tries)"
}

# drain <pid> — SIGTERM must exit 0 (clean drain; under the sanitizers a
# leak or OOB turns this exit non-zero).
drain() {
  kill -TERM "$1"
  wait "$1"
}

post() {
  # post <port> <json-body>: echoes the response body, fails on transport
  # or non-2xx status.
  curl -sf -X POST "http://127.0.0.1:$1/v1/query" -d "$2"
}

# reject_malformed <port> — malformed /v1/query bodies must get a 400 with
# a JSON "error" field (no curl -f: the error status is the point), and
# the server must stay healthy afterwards.
reject_malformed() {
  local port=$1 body status
  for body in '{"labels": 5}' '{"vector": []}'; do
    status=$(curl -s -X POST "http://127.0.0.1:$port/v1/query" -d "$body" \
      -o "$tmp_dir/malformed.json" -w '%{http_code}')
    [ "$status" = 400 ] || fail "malformed body $body got $status, want 400"
    grep -q '"error"' "$tmp_dir/malformed.json" \
      || fail "400 for $body lacks an error field"
  done
  curl -sf "http://127.0.0.1:$port/v1/healthz" | grep -q '"status":"ok"' \
    || fail "healthz not ok after malformed bodies"
}

case "$mode" in
  basic)
    port=18080
    # Full tracing + a result cache so the metrics scrape below covers the
    # trace and cache counters too; fast history sampling and a JSONL log
    # file so the continuous-observability endpoints have data to show.
    start_server "$port" --trace-sample 1 --cache 64 \
      --history-interval-ms 100 --log-file "$tmp_dir/serve.jsonl"
    server_pid=$last_pid
    wait_healthy "$port" 50
    post "$port" '{"label": "q:0", "k": 3}' | tee "$tmp_dir/q1.json"
    grep -q '"matches"' "$tmp_dir/q1.json"
    post "$port" '{"labels": ["q:0", "q:1"], "k": 3}' | grep -q '"results"'
    reject_malformed "$port"
    cp "$snapshot" "$tmp_dir/reload.tds"
    curl -sf -X POST "http://127.0.0.1:$port/v1/reload" \
      -d "{\"snapshot\": \"$tmp_dir/reload.tds\"}" \
      | grep -q '"snapshot_version":2'
    post "$port" '{"label": "q:0", "k": 3}' | grep -q '"snapshot_version":2'
    curl -sf "http://127.0.0.1:$port/v1/stats" | grep -q '"reloads":1'

    # The same single-label query twice: the second hit must come from the
    # result cache, so the scrape below can assert the hit counter moved.
    post "$port" '{"label": "q:1", "k": 3}' > /dev/null
    post "$port" '{"label": "q:1", "k": 3}' > /dev/null

    # Prometheus scrape: structurally valid exposition (python checker),
    # request/trace/reload/cache counters advanced by the traffic above.
    curl -sf "http://127.0.0.1:$port/v1/metrics" > "$tmp_dir/metrics.txt"
    python3 "$(dirname "$0")/check_metrics.py" "$tmp_dir/metrics.txt" \
      --require tdmatch_request_latency_ms \
      --require tdmatch_request_stage_latency_ms \
      --require tdmatch_admission_admitted_total \
      --require tdmatch_snapshot_version \
      --require tdmatch_build_info \
      --require tdmatch_process_resident_bytes \
      --require tdmatch_process_resident_peak_bytes \
      --min tdmatch_queries_total:6 \
      --min tdmatch_traces_total:5 \
      --min tdmatch_reloads_total:1 \
      --min tdmatch_cache_hits_total:1 \
      --min tdmatch_query_errors_total:2 \
      || fail "metrics exposition check failed"

    # Metric history: a scripted burst of 8 more queries, then the
    # windowed view must show the counter's delta (the run started with a
    # pre-traffic sample, so the whole burst is visible) and internally
    # consistent delta/rate arithmetic (validated by --history).
    for i in 0 1 2 3; do
      post "$port" '{"labels": ["q:0", "q:1"], "k": 3}' > /dev/null
    done
    sleep 0.5
    curl -sf "http://127.0.0.1:$port/v1/metrics/history?window=120&series=tdmatch_queries" \
      > "$tmp_dir/history.json"
    python3 "$(dirname "$0")/check_metrics.py" "$tmp_dir/history.json" \
      --history \
      --history-require tdmatch_queries_total \
      --history-min-delta tdmatch_queries_total:8 \
      || fail "metrics history check failed"

    # SLO burn rates: clean traffic must report healthy objectives.
    curl -sf "http://127.0.0.1:$port/v1/slo" > "$tmp_dir/slo.json"
    grep -q '"degraded":false' "$tmp_dir/slo.json" \
      || fail "slo reports degraded on clean traffic"
    grep -q '"name":"availability"' "$tmp_dir/slo.json" \
      || fail "slo lacks the availability objective"
    curl -sf "http://127.0.0.1:$port/v1/healthz" | grep -q '"status":"ok"' \
      || fail "healthz lacks the ok status"

    # CPU profile under live load: the folded stacks must be non-empty
    # and name the query kernels (flamegraph.pl-ready output).
    (
      for ((i = 0; i < 400; i++)); do
        post "$port" '{"labels": ["q:0", "q:1", "q:2", "q:3"], "k": 5}' \
          > /dev/null 2>&1 || true
      done
    ) &
    load_pid=$!
    curl -sf "http://127.0.0.1:$port/v1/debug/profile?seconds=1&hz=300" \
      > "$tmp_dir/profile.folded"
    kill "$load_pid" 2>/dev/null || true
    wait "$load_pid" 2>/dev/null || true
    [ -s "$tmp_dir/profile.folded" ] \
      || fail "profile endpoint returned empty folded output"
    grep -qE 'QueryEngine|Ivf|Exact|simd|tdmatch' "$tmp_dir/profile.folded" \
      || fail "profile has no query-kernel frames"
    curl -sf "http://127.0.0.1:$port/v1/debug/profile?seconds=0.2&format=json" \
      | grep -q '"samples"' || fail "profile json format failed"

    # The --log-file sink captured the run as parseable JSONL.
    [ -s "$tmp_dir/serve.jsonl" ] || fail "--log-file produced no output"
    python3 -c "import json, sys; [json.loads(l) for l in open(sys.argv[1])]" \
      "$tmp_dir/serve.jsonl" || fail "log file lines are not valid JSON"

    drain "$server_pid"
    ;;

  sanitized)
    port=18081
    start_server "$port"
    server_pid=$last_pid
    wait_healthy "$port" 100
    post "$port" '{"label": "q:0", "k": 3}' | grep -q '"matches"'
    reject_malformed "$port"
    curl -sf -X POST "http://127.0.0.1:$port/v1/reload" -d '{}' \
      | grep -q '"snapshot_version":2'
    drain "$server_pid"
    ;;

  sharded)
    plain_port=18090
    shard_port=18091
    start_server "$plain_port"
    plain_pid=$last_pid
    start_server "$shard_port" --shards 4 --max-inflight 2 --allow-delay
    shard_pid=$last_pid
    wait_healthy "$plain_port" 50
    wait_healthy "$shard_port" 50

    # Bit-identity from outside the process: the sharded scatter-gather
    # must render byte-identical bodies (same matches, same %.17g score
    # spellings) for every query. Exact mode holds for any snapshot;
    # approx mode holds because every shard adopts its slice of the
    # snapshot's flat ivfpq section and probes the unsharded cells.
    for search_mode in exact approx; do
      for label in "q:0" "q:1" "q:2" "q:3"; do
        body="{\"label\": \"$label\", \"k\": 5, \"mode\": \"$search_mode\"}"
        post "$plain_port" "$body" > "$tmp_dir/plain.json"
        post "$shard_port" "$body" > "$tmp_dir/shard.json"
        cmp "$tmp_dir/plain.json" "$tmp_dir/shard.json" \
          || fail "sharded $search_mode response for $label differs from unsharded"
      done
    done

    # Overload: flood past --max-inflight 2 with a debug delay holding
    # each admitted query in flight. At least one 429 with a well-formed
    # Retry-After must come back, health must stay green, and the shed
    # counter must advance — fail fast, never fall over.
    flood=8
    flood_pids=()
    for ((i = 0; i < flood; i++)); do
      curl -s -X POST "http://127.0.0.1:$shard_port/v1/query" \
        -d '{"label": "q:0", "k": 3, "delay_ms": 500}' \
        -D "$tmp_dir/headers.$i" -o "$tmp_dir/body.$i" \
        -w '%{http_code}' > "$tmp_dir/status.$i" &
      flood_pids+=("$!")
    done
    # Wait for the flood only — a bare `wait` would block on the servers.
    for pid in "${flood_pids[@]}"; do
      wait "$pid" || true
    done
    sheds=0
    for ((i = 0; i < flood; i++)); do
      status=$(cat "$tmp_dir/status.$i")
      case "$status" in
        200) ;;
        429)
          sheds=$((sheds + 1))
          grep -qiE '^retry-after: *[0-9]+' "$tmp_dir/headers.$i" \
            || fail "429 without a well-formed Retry-After header"
          grep -q '"retry_after_seconds"' "$tmp_dir/body.$i" \
            || fail "429 body lacks retry_after_seconds"
          ;;
        *) fail "unexpected status $status under flood (crash?)" ;;
      esac
    done
    [ "$sheds" -ge 1 ] || fail "flood of $flood produced no 429 shed"
    curl -sf "http://127.0.0.1:$shard_port/v1/healthz" > /dev/null \
      || fail "healthz went red under overload"
    curl -sf "http://127.0.0.1:$shard_port/v1/stats" > "$tmp_dir/stats.json"
    grep -q '"shed":0' "$tmp_dir/stats.json" \
      && fail "stats shed counter did not advance"
    grep -q '"configured":4' "$tmp_dir/stats.json" \
      || fail "stats does not report 4 configured shards"

    drain "$plain_pid"
    drain "$shard_pid"
    ;;

  *)
    fail "unknown mode '$mode' (expected basic|sanitized|sharded)"
    ;;
esac

echo "http_smoke($mode): OK"
