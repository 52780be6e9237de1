#!/usr/bin/env bash
# Live-daemon smoke test: boots a REAL tcm_serve process on an ephemeral
# port, drives it with the tcm_submit client, and pins
#   1. the served golden job's release bytes against the committed pin,
#   2. the over-the-wire report (timing-normalized) against the pin,
#   3. the stats verb: a live observability snapshot counting the golden
#      job as succeeded with a populated job-latency histogram,
#   4. wire error codes mapping to the documented tcm_submit exit codes,
#   5. a graceful drain: the shutdown verb ends the daemon with exit 0,
#   6. the daemon's log lines: "tcm_serve listening" naming the bound
#      port at the default level, nothing at --log-level off, and exit 2
#      for an unknown level.
# Registered as ctest `tools.serve_smoke` and run standalone by the CI
# serve-smoke job.
#
# usage: serve_smoke.sh TCM_SERVE TCM_SUBMIT GOLDEN_DIR WORK_DIR
set -u

# Absolutize everything up front: the daemon runs with cwd=GOLDEN_DIR
# (to resolve the job's relative input path), so relative binary and
# work paths from the caller (the CI job passes them) must not break.
SERVE=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
SUBMIT=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
GOLDEN=$(cd "$3" && pwd)
mkdir -p "$4"
WORK=$(cd "$4" && pwd)

fail() {
  echo "serve_smoke FAILED: $*" >&2
  [ -f "$WORK/serve.log" ] && sed 's/^/  serve: /' "$WORK/serve.log" >&2
  exit 1
}

rm -rf "$WORK"
mkdir -p "$WORK" || fail "cannot create $WORK"
[ -x "$SERVE" ] || fail "tcm_serve binary not found at $SERVE"
[ -x "$SUBMIT" ] || fail "tcm_submit binary not found at $SUBMIT"

# The daemon resolves the job's relative input path against ITS working
# directory, so it runs from the golden dir.
(cd "$GOLDEN" && exec "$SERVE" --port 0 --port-file "$WORK/port" \
    --threads 2 --max-pending 8) 2>"$WORK/serve.log" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null; wait "$SERVE_PID" 2>/dev/null' EXIT

for _ in $(seq 1 200); do
  [ -s "$WORK/port" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || fail "daemon died before binding"
  sleep 0.05
done
[ -s "$WORK/port" ] || fail "daemon never wrote its port file"
PORT=$(cat "$WORK/port")
grep -q "level=info msg=\"tcm_serve listening\" host=[^ ]* port=$PORT " \
    "$WORK/serve.log" || fail "daemon log missing the listening line"

"$SUBMIT" --port "$PORT" --ping >"$WORK/ping.json" \
  || fail "ping failed"
grep -q '"event":"pong"' "$WORK/ping.json" || fail "no pong in ping reply"

# 1 + 2: the golden job, served; release and report must match the pins.
"$SUBMIT" --port "$PORT" --job "$GOLDEN/job_tclose_first.json" \
    --output "$WORK/release.csv" --save-report "$WORK/report.json" \
    >"$WORK/events.ndjson" \
  || fail "golden submit exited $?"
cmp -s "$WORK/release.csv" "$GOLDEN/release_tclose_first_k5_t30.csv" \
  || fail "served release bytes drifted from the golden pin"

sed -E -e 's/"([a-z_]*_seconds)": [-+.eE0-9]+/"\1": 0/g' \
    -e 's/"release_path": "[^"]*"/"release_path": "<release>"/' \
    "$WORK/report.json" >"$WORK/report_norm.json"
diff -u "$GOLDEN/report_tclose_first.json" "$WORK/report_norm.json" \
  || fail "served report (timing-normalized) drifted from the pin"

# 3: live observability — the stats verb must count the golden job as
# succeeded and carry non-empty latency quantiles.
"$SUBMIT" --port "$PORT" --stats >"$WORK/stats.json" \
  || fail "stats verb failed"
grep -q '"event": "stats"' "$WORK/stats.json" || fail "no stats event"
grep -q '"succeeded": 1' "$WORK/stats.json" \
  || fail "stats does not count the golden job as succeeded"
grep -q '"serve.job_latency_seconds"' "$WORK/stats.json" \
  || fail "stats missing the job-latency histogram"
grep -q '"p99":' "$WORK/stats.json" || fail "stats missing p99 quantile"

# 4: taxonomy errors over the wire become the documented exit codes.
cat >"$WORK/invalid_spec.json" <<'EOF'
{"version": 1, "input": {"kind": "synthetic"}, "algorithm": {"k": 0}}
EOF
"$SUBMIT" --port "$PORT" --job "$WORK/invalid_spec.json" \
    >>"$WORK/events.ndjson"
[ $? -eq 3 ] || fail "InvalidSpec over the wire should exit 3"

cat >"$WORK/unknown_algorithm.json" <<'EOF'
{"version": 1, "input": {"kind": "synthetic"},
 "algorithm": {"name": "definitely_not_registered"}}
EOF
"$SUBMIT" --port "$PORT" --job "$WORK/unknown_algorithm.json" \
    >>"$WORK/events.ndjson"
[ $? -eq 4 ] || fail "UnknownAlgorithm over the wire should exit 4"

cat >"$WORK/io_error.json" <<'EOF'
{"version": 1,
 "input": {"kind": "csv", "path": "/nonexistent/tcm_smoke.csv"},
 "roles": {"quasi_identifiers": ["a"], "confidential": "b"}}
EOF
"$SUBMIT" --port "$PORT" --job "$WORK/io_error.json" \
    >>"$WORK/events.ndjson"
[ $? -eq 5 ] || fail "IoError over the wire should exit 5"

# 5: graceful drain via the shutdown verb; the daemon must exit 0.
"$SUBMIT" --port "$PORT" --shutdown >>"$WORK/events.ndjson" \
  || fail "shutdown verb failed"
wait "$SERVE_PID"
SERVE_RC=$?
trap - EXIT
[ "$SERVE_RC" -eq 0 ] || fail "daemon exited $SERVE_RC after drain"
grep -q "drained, exiting" "$WORK/serve.log" \
  || fail "daemon log missing the drain marker"

# And with the daemon gone, clients get the documented IoError code.
"$SUBMIT" --port "$PORT" --ping >/dev/null 2>&1
[ $? -eq 5 ] || fail "connecting to a dead daemon should exit 5"

# 6: --log-level off silences both lines through a whole drain, and an
# unknown level is a usage error.
"$SERVE" --port 0 --port-file "$WORK/quiet_port" --log-level off \
    2>"$WORK/quiet.log" &
QUIET_PID=$!
trap 'kill "$QUIET_PID" 2>/dev/null; wait "$QUIET_PID" 2>/dev/null' EXIT
for _ in $(seq 1 200); do
  [ -s "$WORK/quiet_port" ] && break
  kill -0 "$QUIET_PID" 2>/dev/null || fail "quiet daemon died before binding"
  sleep 0.05
done
[ -s "$WORK/quiet_port" ] || fail "quiet daemon never wrote its port file"
"$SUBMIT" --port "$(cat "$WORK/quiet_port")" --shutdown >/dev/null \
  || fail "shutdown of the quiet daemon failed"
wait "$QUIET_PID" || fail "quiet daemon exited $? after drain"
trap - EXIT
[ ! -s "$WORK/quiet.log" ] || fail "--log-level off still wrote to stderr"

"$SERVE" --port 0 --log-level verbose >/dev/null 2>&1
[ $? -eq 2 ] || fail "--log-level verbose should exit 2"

echo "serve_smoke OK: golden release + report served byte-identically,"
echo "live stats, wire error codes, graceful drain and log levels as documented"
exit 0
