#!/usr/bin/env bash
# Tier-1 gate: configure + build RelWithDebInfo, run the tier-1 test
# suite, and smoke the batched-evaluation benchmark. Intended for CI and
# as the pre-commit check — a clean exit means the tree is shippable.
#
# When the toolchain supports -fsanitize=thread, a second tier-1 pass
# runs under ThreadSanitizer (AB_THREAD_SANITIZER=ON) to exercise the
# concurrent build/evaluate paths. Set AB_CHECK_TSAN=0 to skip it, or
# AB_CHECK_TSAN=1 to make an unsupported toolchain a hard failure.
#
# Likewise, when -fsanitize=address links, a tier-1 pass runs under
# ASan+UBSan (AB_ADDRESS_SANITIZER=ON) to check the SIMD gather/tail
# paths for out-of-bounds reads and the hash kernels for UB. UBSan runs
# with halt_on_error=1, so any report fails its test. Set
# AB_CHECK_ASAN=0 to skip, AB_CHECK_ASAN=1 to require it.
#
# A second tier-1 configuration always runs with the observability layer
# compiled out (-DAB_DISABLE_STATS=ON): the stats macros must drop their
# arguments unevaluated and the snapshot API must stay link-compatible,
# which only a full build+test of that configuration proves. Set
# AB_CHECK_STATS_OFF=0 to skip it.
#
# Both configurations also get an endpoint smoke: ab_stats --serve=0
# --watch=1 runs a live parallel workload while this script fetches
# /healthz and /metrics over loopback (plain bash /dev/tcp, no curl
# dependency) and checks the payloads.
#
# Set AB_CHECK_COVERAGE=1 to add a gcovr line-coverage pass (builds with
# AB_COVERAGE=ON, reruns tier-1, writes coverage.txt into the build dir).
# It is off by default and a hard error when requested without gcovr on
# PATH.
#
# A build-scaling smoke runs a downsized bench_build_time thread sweep
# at all three AB levels, so it covers both parallel paths (attribute
# ownership and private shards), and checks the per-dataset
# "scaling_ok" flag (at every level the slowest parallel point must stay
# within 5% of serial — the contention-free build may only tie serial
# on small hosts, never lose). Advisory by default
# because CI hosts are noisy and often single-core; set
# AB_CHECK_SCALING=strict to make a failed sweep fatal (recommended
# locally on multi-core machines) or AB_CHECK_SCALING=0 to skip.
#
# After the build, `nm -C` must find no abitmap::ab:: symbol in
# tools/ab_serve: the served engine is the sliced index, and the paper's
# AB stays out of the serve path. It also fails when nm cannot read the
# binary or lists no symbols (a stripped build would pass vacuously).
# Skipped with a message when nm is not on PATH.
#
# A serving smoke boots tools/ab_serve on an ephemeral port, drives it
# with a 2-second ab_loadgen burst, and requires qps > 0 plus a clean
# SIGINT shutdown. Advisory by default; AB_CHECK_SERVE=strict makes a
# failure fatal, AB_CHECK_SERVE=0 skips.
#
# A mutable-ingest smoke boots ab_serve again and interleaves a loadgen
# query burst with POST /insert bursts on the live server: every insert
# must answer ok, the loadgen must finish with zero errors, /metrics
# must show abitmap_engine_ingest_rows > 0, and SIGINT must still stop
# the server cleanly. Advisory by default; AB_CHECK_MUTABLE=strict makes
# a failure fatal, AB_CHECK_MUTABLE=0 skips.
#
# An observability smoke boots ab_serve with --slow-ms=0 (retain every
# request) and --telemetry-ms=200, drives an ab_loadgen --timings burst,
# and checks the request-tracing surface end to end: the loadgen JSON
# must carry the per-stage "stage_us" aggregates, /slow.json must show
# retained records with trace ids, /traces.json must serve the Chrome
# trace of those requests (traceEvents), /timeseries.json must have
# collected at least two ticker samples, and after a POST /insert the
# /metrics gauge abitmap_engine_delta_live must be nonzero. Advisory by
# default; AB_CHECK_OBS_SERVE=strict makes a failure fatal, =0 skips.
#
# A perfbench smoke runs `python3 perfbench/run.py --self-test` (the
# brute-force oracle must catch a corrupted expected answer) and one
# 1-second run each of exact_scan, ab_subset and ingest_mix, which must
# report "correct": true and "failed": 0, so served answers are checked
# against the oracle on the benchmark's 1M-row table. ingest_mix is the
# one check where answers over rows inserted through POST /insert meet
# the oracle. Advisory by default; AB_CHECK_PERFBENCH=strict makes a
# failure fatal, =0 skips.
#
# Usage: tools/check.sh [build-dir]   (default: build/check)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build/check}"
jobs="$(nproc 2>/dev/null || echo 2)"

tsan_supported() {
  local probe_dir
  probe_dir="$(mktemp -d)"
  trap 'rm -rf "$probe_dir"' RETURN
  printf 'int main(){return 0;}\n' >"$probe_dir/probe.cc"
  "${CXX:-c++}" -fsanitize=thread -o "$probe_dir/probe" \
    "$probe_dir/probe.cc" >/dev/null 2>&1
}

asan_supported() {
  local probe_dir
  probe_dir="$(mktemp -d)"
  trap 'rm -rf "$probe_dir"' RETURN
  printf 'int main(){return 0;}\n' >"$probe_dir/probe.cc"
  "${CXX:-c++}" -fsanitize=address,undefined -o "$probe_dir/probe" \
    "$probe_dir/probe.cc" >/dev/null 2>&1
}

# Fetches an HTTP path from 127.0.0.1:$1 with bash's /dev/tcp (fd 3 both
# ways); prints the full response. No curl/wget needed.
http_get() {
  local port="$1" path="$2"
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n' "$path" >&3
  cat <&3
  exec 3<&- 3>&-
}

# POSTs a body to an HTTP path on 127.0.0.1:$1 with bash's /dev/tcp;
# prints the full response.
http_post() {
  local port="$1" path="$2" body="$3"
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %s\r\n\r\n%s' \
    "$path" "${#body}" "$body" >&3
  cat <&3
  exec 3<&- 3>&-
}

# Endpoint smoke against one build tree: start ab_stats serving on an
# ephemeral port with a live parallel workload (--watch re-runs queries
# each second), parse the announced port, fetch /healthz and /metrics,
# check the payloads, then SIGINT the server and require a clean exit.
endpoint_smoke() {
  local dir="$1" label="$2" log port pid status health metrics
  log="$dir/ab_stats_serve.log"
  echo "== endpoint smoke ($label) =="
  "$dir/tools/ab_stats" --serve=0 --watch=1 --threads=4 --scale=50 \
    >/dev/null 2>"$log" &
  pid=$!
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
      "$log" | head -1)"
    [ -n "$port" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "error: ab_stats --serve exited early; log:" >&2
      cat "$log" >&2
      return 1
    fi
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "error: ab_stats --serve never announced a port; log:" >&2
    cat "$log" >&2
    kill "$pid" 2>/dev/null || true
    return 1
  fi
  health="$(http_get "$port" /healthz)"
  case "$health" in
    *"200 OK"*ok*) ;;
    *)
      echo "error: /healthz did not answer ok; got:" >&2
      echo "$health" >&2
      kill "$pid" 2>/dev/null || true
      return 1
      ;;
  esac
  metrics="$(http_get "$port" /metrics)"
  case "$metrics" in
    *abitmap_build_info*) ;;
    *)
      echo "error: /metrics lacks abitmap_build_info; got:" >&2
      echo "$metrics" | head -5 >&2
      kill "$pid" 2>/dev/null || true
      return 1
      ;;
  esac
  kill -INT "$pid"
  status=0
  wait "$pid" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "error: ab_stats --serve exited with status $status" >&2
    return 1
  fi
  echo "endpoint smoke ($label): /healthz + /metrics ok on port $port"
}

echo "== configure (RelWithDebInfo) =="
cmake -S "$repo_root" -B "$build_dir" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null

echo "== build =="
cmake --build "$build_dir" -j "$jobs"

echo "== ab_serve links no AB =="
if command -v nm >/dev/null 2>&1; then
  ab_serve_syms="$build_dir/ab_serve.nm"
  if ! nm -C "$build_dir/tools/ab_serve" >"$ab_serve_syms"; then
    echo "error: nm could not read $build_dir/tools/ab_serve" >&2
    exit 1
  fi
  if [ ! -s "$ab_serve_syms" ]; then
    echo "error: nm found no symbols in ab_serve (stripped?)" >&2
    exit 1
  fi
  ab_symbols="$(grep -c 'abitmap::ab::' "$ab_serve_syms" || true)"
  if [ "$ab_symbols" != "0" ]; then
    echo "error: ab_serve holds $ab_symbols abitmap::ab:: symbols:" >&2
    grep 'abitmap::ab::' "$ab_serve_syms" | head >&2
    exit 1
  fi
  echo "ab_serve: no abitmap::ab:: symbols ($(wc -l <"$ab_serve_syms") read)"
else
  echo "ab_serve AB-symbol check skipped: nm is not on PATH"
fi

echo "== tier-1 tests =="
ctest --test-dir "$build_dir" -L tier1 --output-on-failure -j "$jobs"

endpoint_smoke "$build_dir" "default"

if [ "${AB_CHECK_STATS_OFF:-1}" != "0" ]; then
  stats_off_dir="$build_dir-stats-off"
  echo "== configure (AB_DISABLE_STATS=ON) =="
  cmake -S "$repo_root" -B "$stats_off_dir" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DAB_DISABLE_STATS=ON >/dev/null
  echo "== build (stats off) =="
  cmake --build "$stats_off_dir" -j "$jobs"
  echo "== tier-1 tests (stats off) =="
  ctest --test-dir "$stats_off_dir" -L tier1 --output-on-failure -j "$jobs"

  endpoint_smoke "$stats_off_dir" "stats off"
fi

if [ "${AB_CHECK_COVERAGE:-0}" = "1" ]; then
  if ! command -v gcovr >/dev/null 2>&1; then
    echo "error: AB_CHECK_COVERAGE=1 but gcovr is not on PATH" >&2
    exit 1
  fi
  cov_dir="$build_dir-coverage"
  echo "== configure (coverage) =="
  cmake -S "$repo_root" -B "$cov_dir" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DAB_COVERAGE=ON >/dev/null
  echo "== build (coverage) =="
  cmake --build "$cov_dir" -j "$jobs"
  echo "== tier-1 tests (coverage) =="
  ctest --test-dir "$cov_dir" -L tier1 --output-on-failure -j "$jobs"
  echo "== gcovr =="
  gcovr --root "$repo_root" --filter "$repo_root/src/" \
    --print-summary "$cov_dir" | tee "$cov_dir/coverage.txt"
fi

if [ "${AB_CHECK_TSAN:-auto}" != "0" ]; then
  if tsan_supported; then
    tsan_dir="$build_dir-tsan"
    echo "== configure (ThreadSanitizer) =="
    # -Werror=tsan: an atomic_thread_fence that TSan cannot model fails
    # the build instead of leaving the pass blind to that ordering.
    cmake -S "$repo_root" -B "$tsan_dir" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS=-Werror=tsan \
      -DAB_THREAD_SANITIZER=ON >/dev/null
    echo "== build (TSan) =="
    cmake --build "$tsan_dir" -j "$jobs"
    echo "== tier-1 tests (TSan) =="
    ctest --test-dir "$tsan_dir" -L tier1 --output-on-failure -j "$jobs"
  elif [ "${AB_CHECK_TSAN:-auto}" = "1" ]; then
    echo "error: AB_CHECK_TSAN=1 but the toolchain cannot link -fsanitize=thread" >&2
    exit 1
  else
    echo "== tier-1 tests (TSan) skipped: toolchain lacks -fsanitize=thread =="
  fi
fi

if [ "${AB_CHECK_ASAN:-auto}" != "0" ]; then
  if asan_supported; then
    asan_dir="$build_dir-asan"
    echo "== configure (ASan+UBSan) =="
    cmake -S "$repo_root" -B "$asan_dir" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DAB_ADDRESS_SANITIZER=ON >/dev/null
    echo "== build (ASan) =="
    cmake --build "$asan_dir" -j "$jobs"
    echo "== tier-1 tests (ASan) =="
    # UBSan recovers and exits 0 by default; make a report fatal.
    export UBSAN_OPTIONS=halt_on_error=1
    ctest --test-dir "$asan_dir" -L tier1 --output-on-failure -j "$jobs"
  elif [ "${AB_CHECK_ASAN:-auto}" = "1" ]; then
    echo "error: AB_CHECK_ASAN=1 but the toolchain cannot link -fsanitize=address,undefined" >&2
    exit 1
  else
    echo "== tier-1 tests (ASan) skipped: toolchain lacks -fsanitize=address =="
  fi
fi

if [ "${AB_CHECK_SCALING:-advisory}" != "0" ]; then
  echo "== build-scaling smoke (thread sweep) =="
  scaling_dir="$build_dir/scaling-smoke"
  mkdir -p "$scaling_dir"
  # Run from a scratch dir: the bench writes BENCH_build.json into its
  # cwd and the smoke must not clobber the checked-in full-scale record.
  (cd "$scaling_dir" &&
    ABITMAP_BENCH_SCALE="${AB_CHECK_SCALING_SCALE:-20}" ABITMAP_BENCH_REPS=3 \
      "$build_dir/bench/bench_build_time") \
    >"$scaling_dir/bench_build_time.log" 2>&1
  if grep -q '"scaling_ok": false' "$scaling_dir/BENCH_build.json"; then
    echo "build-scaling smoke: parallel build slower than serial beyond" \
      "tolerance on $(grep -c '"scaling_ok": false' \
      "$scaling_dir/BENCH_build.json") dataset(s);" \
      "see $scaling_dir/bench_build_time.log" >&2
    if [ "${AB_CHECK_SCALING:-advisory}" = "strict" ]; then
      echo "error: AB_CHECK_SCALING=strict and the sweep regressed" >&2
      exit 1
    fi
    echo "build-scaling smoke: ADVISORY failure (host may be noisy or" \
      "single-core; AB_CHECK_SCALING=strict to enforce)" >&2
  else
    echo "build-scaling smoke: scaling_ok on all datasets"
  fi
fi

if [ "${AB_CHECK_SERVE:-advisory}" != "0" ]; then
  echo "== serve smoke (ab_serve + ab_loadgen) =="
  # Boot the query server on an ephemeral port, drive it with a short
  # closed-loop loadgen burst, require qps > 0 with zero transport
  # errors, then SIGINT the server and require a clean exit. Advisory by
  # default (loopback throughput on shared CI hosts is noisy);
  # AB_CHECK_SERVE=strict makes any failure fatal, =0 skips.
  serve_ok=1
  serve_log="$build_dir/ab_serve_smoke.log"
  serve_rows=20000
  "$build_dir/tools/ab_serve" --port=0 --rows="$serve_rows" --workers=2 \
    >/dev/null 2>"$serve_log" &
  serve_pid=$!
  serve_port=""
  for _ in $(seq 1 100); do
    serve_port="$(sed -n \
      's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
      "$serve_log" | head -1)"
    [ -n "$serve_port" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
      echo "serve smoke: ab_serve exited early; log:" >&2
      cat "$serve_log" >&2
      serve_ok=0
      break
    fi
    sleep 0.1
  done
  if [ "$serve_ok" = "1" ] && [ -z "$serve_port" ]; then
    echo "serve smoke: ab_serve never announced a port" >&2
    kill "$serve_pid" 2>/dev/null || true
    serve_ok=0
  fi
  if [ "$serve_ok" = "1" ]; then
    loadgen_json="$build_dir/ab_loadgen_smoke.json"
    if "$build_dir/tools/ab_loadgen" --port="$serve_port" \
      --rows="$serve_rows" --connections=4 --duration=2 --json \
      >"$loadgen_json" 2>>"$serve_log"; then
      if grep -q '"errors": 0' "$loadgen_json" &&
        ! grep -q '"qps": 0\.0' "$loadgen_json"; then
        echo "serve smoke: $(tr -d '\n' <"$loadgen_json" | head -c 160)"
      else
        echo "serve smoke: loadgen reported errors or zero qps:" >&2
        cat "$loadgen_json" >&2
        serve_ok=0
      fi
    else
      echo "serve smoke: ab_loadgen failed; see $serve_log" >&2
      serve_ok=0
    fi
    kill -INT "$serve_pid" 2>/dev/null || true
    serve_status=0
    wait "$serve_pid" || serve_status=$?
    if [ "$serve_status" -ne 0 ]; then
      echo "serve smoke: ab_serve exited with status $serve_status" >&2
      serve_ok=0
    fi
  fi
  if [ "$serve_ok" != "1" ]; then
    if [ "${AB_CHECK_SERVE:-advisory}" = "strict" ]; then
      echo "error: AB_CHECK_SERVE=strict and the smoke failed" >&2
      exit 1
    fi
    echo "serve smoke: ADVISORY failure (AB_CHECK_SERVE=strict to enforce)" >&2
  else
    echo "serve smoke: server + loadgen + clean shutdown ok on port $serve_port"
  fi
fi

if [ "${AB_CHECK_MUTABLE:-advisory}" != "0" ]; then
  echo "== mutable-ingest smoke (ab_serve + loadgen + /insert) =="
  # Queries and streaming inserts on the same live server: the loadgen
  # hammers /query-equivalent binary frames while this script lands
  # /insert bursts on the HTTP side. Ingest must not disturb serving
  # (zero loadgen errors) and must be observable (every insert answers
  # ok; /metrics shows the ingested rows).
  mut_ok=1
  mut_log="$build_dir/ab_serve_mutable_smoke.log"
  mut_rows=20000
  "$build_dir/tools/ab_serve" --port=0 --rows="$mut_rows" --workers=2 \
    >/dev/null 2>"$mut_log" &
  mut_pid=$!
  mut_port=""
  for _ in $(seq 1 100); do
    mut_port="$(sed -n \
      's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
      "$mut_log" | head -1)"
    [ -n "$mut_port" ] && break
    if ! kill -0 "$mut_pid" 2>/dev/null; then
      echo "mutable smoke: ab_serve exited early; log:" >&2
      cat "$mut_log" >&2
      mut_ok=0
      break
    fi
    sleep 0.1
  done
  if [ "$mut_ok" = "1" ] && [ -z "$mut_port" ]; then
    echo "mutable smoke: ab_serve never announced a port" >&2
    kill "$mut_pid" 2>/dev/null || true
    mut_ok=0
  fi
  if [ "$mut_ok" = "1" ]; then
    mut_json="$build_dir/ab_loadgen_mutable_smoke.json"
    "$build_dir/tools/ab_loadgen" --port="$mut_port" --rows="$mut_rows" \
      --connections=4 --duration=2 --json \
      >"$mut_json" 2>>"$mut_log" &
    mut_loadgen_pid=$!
    # Insert bursts while the loadgen is live: 3 bursts of 10 rows.
    mut_inserts=0
    for burst in 1 2 3; do
      for i in $(seq 1 10); do
        resp="$(http_post "$mut_port" /insert \
          "{\"values\":[$((burst * 10 + i)).5,$i,3.0]}" || true)"
        case "$resp" in
          *'"status":"ok"'*) mut_inserts=$((mut_inserts + 1)) ;;
          *)
            echo "mutable smoke: insert rejected; response:" >&2
            echo "$resp" >&2
            mut_ok=0
            ;;
        esac
      done
      sleep 0.3
    done
    if ! wait "$mut_loadgen_pid"; then
      echo "mutable smoke: ab_loadgen failed; see $mut_log" >&2
      mut_ok=0
    elif ! grep -q '"errors": 0' "$mut_json"; then
      echo "mutable smoke: loadgen saw errors during ingest:" >&2
      cat "$mut_json" >&2
      mut_ok=0
    fi
    if [ "$mut_ok" = "1" ]; then
      mut_metrics="$(http_get "$mut_port" /metrics)"
      ingested="$(printf '%s\n' "$mut_metrics" |
        sed -n 's/^abitmap_engine_ingest_rows \([0-9]*\).*/\1/p' | head -1)"
      if [ -z "$ingested" ] || [ "$ingested" -lt "$mut_inserts" ]; then
        echo "mutable smoke: /metrics ingest counter ($ingested) below" \
          "the $mut_inserts inserts sent" >&2
        mut_ok=0
      fi
    fi
    kill -INT "$mut_pid" 2>/dev/null || true
    mut_status=0
    wait "$mut_pid" || mut_status=$?
    if [ "$mut_status" -ne 0 ]; then
      echo "mutable smoke: ab_serve exited with status $mut_status" >&2
      mut_ok=0
    fi
  fi
  if [ "$mut_ok" != "1" ]; then
    if [ "${AB_CHECK_MUTABLE:-advisory}" = "strict" ]; then
      echo "error: AB_CHECK_MUTABLE=strict and the smoke failed" >&2
      exit 1
    fi
    echo "mutable smoke: ADVISORY failure (AB_CHECK_MUTABLE=strict to enforce)" >&2
  else
    echo "mutable smoke: $mut_inserts inserts + loadgen + clean shutdown" \
      "ok on port $mut_port"
  fi
fi

if [ "${AB_CHECK_OBS_SERVE:-advisory}" != "0" ]; then
  echo "== observability smoke (tracing + slow log + time series) =="
  # The request-tracing surface end to end on a live server: stage
  # timings echoed to the loadgen, every request retained in /slow.json
  # (threshold 0) and traced in /traces.json, ticker samples
  # accumulating in /timeseries.json, and the ingest gauges moving on
  # /metrics after an insert.
  obs_ok=1
  obs_log="$build_dir/ab_serve_obs_smoke.log"
  obs_rows=20000
  "$build_dir/tools/ab_serve" --port=0 --rows="$obs_rows" --workers=2 \
    --slow-ms=0 --telemetry-ms=200 >/dev/null 2>"$obs_log" &
  obs_pid=$!
  obs_port=""
  for _ in $(seq 1 100); do
    obs_port="$(sed -n \
      's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
      "$obs_log" | head -1)"
    [ -n "$obs_port" ] && break
    if ! kill -0 "$obs_pid" 2>/dev/null; then
      echo "obs smoke: ab_serve exited early; log:" >&2
      cat "$obs_log" >&2
      obs_ok=0
      break
    fi
    sleep 0.1
  done
  if [ "$obs_ok" = "1" ] && [ -z "$obs_port" ]; then
    echo "obs smoke: ab_serve never announced a port" >&2
    kill "$obs_pid" 2>/dev/null || true
    obs_ok=0
  fi
  if [ "$obs_ok" = "1" ]; then
    obs_json="$build_dir/ab_loadgen_obs_smoke.json"
    if ! "$build_dir/tools/ab_loadgen" --port="$obs_port" \
      --rows="$obs_rows" --connections=2 --duration=1 --timings --json \
      >"$obs_json" 2>>"$obs_log"; then
      echo "obs smoke: ab_loadgen failed; see $obs_log" >&2
      obs_ok=0
    elif ! grep -q '"stage_us"' "$obs_json"; then
      echo "obs smoke: loadgen JSON lacks stage_us aggregates:" >&2
      cat "$obs_json" >&2
      obs_ok=0
    fi
  fi
  if [ "$obs_ok" = "1" ]; then
    obs_slow="$(http_get "$obs_port" /slow.json)"
    case "$obs_slow" in
      *'"trace_id"'*) ;;
      *'"enabled": false'*)
        echo "obs smoke: /slow.json disabled (stats-off tool build?)" ;;
      *)
        echo "obs smoke: /slow.json retained no records at threshold 0:" >&2
        printf '%s\n' "$obs_slow" | head -5 >&2
        obs_ok=0
        ;;
    esac
  fi
  if [ "$obs_ok" = "1" ]; then
    case "$(http_get "$obs_port" /traces.json)" in
      *'"traceEvents"'*) ;;
      *)
        echo "obs smoke: /traces.json lacks traceEvents" >&2
        obs_ok=0
        ;;
    esac
  fi
  if [ "$obs_ok" = "1" ]; then
    # One extra ticker period so at least two samples have landed.
    sleep 0.5
    obs_ts_samples="$(http_get "$obs_port" /timeseries.json |
      grep -o '"mono_ns"' | wc -l)"
    if [ "$obs_ts_samples" -lt 2 ]; then
      echo "obs smoke: /timeseries.json has $obs_ts_samples samples," \
        "expected >= 2 at a 200 ms cadence" >&2
      obs_ok=0
    fi
  fi
  if [ "$obs_ok" = "1" ]; then
    obs_resp="$(http_post "$obs_port" /insert '{"values":[45.5,17,3.2]}' ||
      true)"
    case "$obs_resp" in
      *'"status":"ok"'*) ;;
      *)
        echo "obs smoke: insert rejected; response:" >&2
        echo "$obs_resp" >&2
        obs_ok=0
        ;;
    esac
    if [ "$obs_ok" = "1" ]; then
      obs_live="$(http_get "$obs_port" /metrics |
        sed -n 's/^abitmap_engine_delta_live \([0-9]*\).*/\1/p' | head -1)"
      if [ -z "$obs_live" ] || [ "$obs_live" -lt 1 ]; then
        echo "obs smoke: abitmap_engine_delta_live gauge is '$obs_live'" \
          "after an insert" >&2
        obs_ok=0
      fi
    fi
  fi
  if kill -0 "$obs_pid" 2>/dev/null; then
    kill -INT "$obs_pid" 2>/dev/null || true
    obs_status=0
    wait "$obs_pid" || obs_status=$?
    if [ "$obs_status" -ne 0 ]; then
      echo "obs smoke: ab_serve exited with status $obs_status" >&2
      obs_ok=0
    fi
  fi
  if [ "$obs_ok" != "1" ]; then
    if [ "${AB_CHECK_OBS_SERVE:-advisory}" = "strict" ]; then
      echo "error: AB_CHECK_OBS_SERVE=strict and the smoke failed" >&2
      exit 1
    fi
    echo "obs smoke: ADVISORY failure (AB_CHECK_OBS_SERVE=strict to enforce)" >&2
  else
    echo "obs smoke: timings + slow log + traces ($obs_ts_samples ts" \
      "samples) + ingest gauges ok on port $obs_port"
  fi
fi

if [ "${AB_CHECK_PERFBENCH:-advisory}" != "0" ]; then
  echo "== perfbench smoke =="
  # The served benchmark's oracle, end to end at 1M rows: run.py's
  # self-test must catch a corrupted expected answer on every workload,
  # then one 1-second run each of exact_scan, ab_subset and ingest_mix
  # must answer every served query correctly ("correct": true,
  # "failed": 0); ingest_mix queries rows inserted while it runs. run.py
  # builds into .bench_build/ and writes .bench_out/ at the repo root.
  # Advisory by default; AB_CHECK_PERFBENCH=strict makes a failure
  # fatal, =0 skips.
  perf_log="$build_dir/perfbench_smoke.log"
  perf_ok=1
  if ! (cd "$repo_root" && python3 perfbench/run.py --self-test) \
    >"$perf_log" 2>&1; then
    echo "perfbench smoke: self-test failed; see $perf_log" >&2
    perf_ok=0
  fi
  # ab_subset's row subsets verify through the same bound check as the
  # whole-relation counts, so it gets the same gate.
  for perf_workload in exact_scan ab_subset ingest_mix; do
    [ "$perf_ok" = "1" ] || break
    perf_result="$(cd "$repo_root" && python3 perfbench/run.py \
      --workload "$perf_workload" --seed 1 --seconds 1 --trace 0 \
      2>>"$perf_log" | tail -n 1)" || true
    if ! printf '%s' "$perf_result" | python3 -c '
import json, sys
r = json.load(sys.stdin)
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' 2>>"$perf_log"; then
      echo "perfbench smoke: $perf_workload run not correct; got: $perf_result" >&2
      perf_ok=0
    fi
  done
  if [ "$perf_ok" != "1" ]; then
    if [ "${AB_CHECK_PERFBENCH:-advisory}" = "strict" ]; then
      echo "error: AB_CHECK_PERFBENCH=strict and the smoke failed" >&2
      exit 1
    fi
    echo "perfbench smoke: ADVISORY failure (AB_CHECK_PERFBENCH=strict to enforce)" >&2
  else
    echo "perfbench smoke: oracle self-test + exact_scan + ab_subset + ingest_mix correct, 0 failed"
  fi
fi

echo "== batch-eval bench (smoke) =="
# Scale the datasets down and take a single rep: this validates that the
# three pipelines run end to end, not their timings. Run inside the build
# dir: the bench writes BENCH_query.json into its cwd and the smoke must
# not clobber the checked-in full-scale record.
batch_dir="$build_dir/batch-eval-smoke"
mkdir -p "$batch_dir"
(cd "$batch_dir" &&
  ABITMAP_BENCH_SCALE=100 "$build_dir/bench/bench_batch_eval" \
    --benchmark_min_time=0.01 --benchmark_repetitions=1 \
    --benchmark_format=json) >"$batch_dir/bench_batch_eval_smoke.json"
echo "wrote $batch_dir/bench_batch_eval_smoke.json"

echo "OK"
