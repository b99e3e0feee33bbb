#!/usr/bin/env bash
# Real-daemon smoke test: boots `cme serve` on an ephemeral port and runs
# the whole client surface against it — cold/hot byte-identity, deadline
# errors, ping/compact, trace gen/sim, connection diagnostics, shutdown.
#
# Run by scripts/ci.sh under a hard `timeout`; an injected hang fails fast
# there instead of wedging CI. The trap below kills the daemon on EVERY
# exit path (success, assertion failure, or the timeout's SIGTERM).

set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE_DIR=$(mktemp -d)
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT INT TERM

target/release/cme serve --addr 127.0.0.1:0 \
    --port-file "$SMOKE_DIR/port" --store "$SMOKE_DIR/store" \
    --metrics-dump "$SMOKE_DIR/metrics.json" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SMOKE_DIR/port" ] && break; sleep 0.1; done
[ -s "$SMOKE_DIR/port" ] || { echo "daemon never wrote its port file"; exit 1; }

# Health first: ping reports liveness plus queue and store gauges.
target/release/cme ping --port-file "$SMOKE_DIR/port" | grep -q '"pong":true' \
    || { echo "ping did not pong"; exit 1; }

QUERY=(target/release/cme query --port-file "$SMOKE_DIR/port"
       --workload mmt --n 24 --exact --cache 16384 --report-only)
"${QUERY[@]}" > "$SMOKE_DIR/cold.json"
# The hot query rides --retries: same bytes, exercised retry plumbing.
"${QUERY[@]}" --retries 2 > "$SMOKE_DIR/hot.json"
cmp "$SMOKE_DIR/cold.json" "$SMOKE_DIR/hot.json" \
    || { echo "hot report differs from cold report"; exit 1; }

# A 1 ms deadline on a paper-size job must fail cleanly (exit 2, daemon
# alive), not hang a worker or kill the server.
rc=0
target/release/cme query --port-file "$SMOKE_DIR/port" \
    --workload mmt --n 96 --exact --timeout-ms 1 \
    2> "$SMOKE_DIR/timeout.err" || rc=$?
[ "$rc" -eq 2 ] || { echo "timeout query exited $rc, want 2"; exit 1; }
grep -q '"kind":"timeout"' "$SMOKE_DIR/timeout.err" \
    || { echo "timeout query did not report a timeout"; cat "$SMOKE_DIR/timeout.err"; exit 1; }

target/release/cme stats --port-file "$SMOKE_DIR/port" | grep -q '"store_hits":1' \
    || { echo "stats did not show the store hit"; exit 1; }

# Live store compaction answers with what it did.
target/release/cme compact --port-file "$SMOKE_DIR/port" | grep -q '"ok":true' \
    || { echo "compact verb failed"; exit 1; }

# Geometry sweep: a grid sweep ranks every cell and populates the store,
# so a later single query on any swept geometry is a hot hit and a repeat
# sweep recomputes nothing.
SWEEP=(target/release/cme sweep --port-file "$SMOKE_DIR/port"
       --workload mmt --n 24 --grid 4K,8K:1,2:32)
"${SWEEP[@]}" > "$SMOKE_DIR/sweep.json"
grep -q '"computed":4' "$SMOKE_DIR/sweep.json" \
    || { echo "sweep did not compute its 4 cells"; cat "$SMOKE_DIR/sweep.json"; exit 1; }
target/release/cme query --port-file "$SMOKE_DIR/port" \
    --workload mmt --n 24 --exact --geometry 8K:2:32 | grep -q '"store":"hit"' \
    || { echo "swept geometry was not a store hit"; exit 1; }
"${SWEEP[@]}" | grep -q '"computed":0' \
    || { echo "repeat sweep recomputed cells"; exit 1; }

# A degenerate sweep grid is a structured exit-2 error, not a crash.
rc=0
target/release/cme sweep --port-file "$SMOKE_DIR/port" \
    --workload mmt --n 24 --grid 8K,0:1:32 2> "$SMOKE_DIR/sweep.err" || rc=$?
[ "$rc" -eq 2 ] || { echo "degenerate sweep grid exited $rc, want 2"; exit 1; }
grep -q '"kind":"bad_request"' "$SMOKE_DIR/sweep.err" \
    || { echo "degenerate grid was not a bad_request"; cat "$SMOKE_DIR/sweep.err"; exit 1; }

# Trace front end: generate a framed trace file, replay it standalone.
target/release/cme trace gen --workload mmt --n 16 --bj 8 --bk 4 \
    --out "$SMOKE_DIR/mmt.cmet" --geometry 2K:2:32 > /dev/null
target/release/cme trace sim --in "$SMOKE_DIR/mmt.cmet" \
    | grep -q '"kind":"trace"' || { echo "trace sim failed"; exit 1; }

# An empty trace is a hard, path-carrying error — exit 2, not a report.
rc=0
: > "$SMOKE_DIR/empty.cmet"
target/release/cme trace sim --in "$SMOKE_DIR/empty.cmet" --geometry 2K:2:32 \
    2> "$SMOKE_DIR/empty.err" || rc=$?
[ "$rc" -eq 2 ] || { echo "empty trace sim exited $rc, want 2"; exit 1; }
grep -q "empty.cmet" "$SMOKE_DIR/empty.err" \
    || { echo "empty-trace diagnostic names no path"; cat "$SMOKE_DIR/empty.err"; exit 1; }

# An unreachable daemon is a one-line exit-2 diagnostic, not a panic.
rc=0
target/release/cme stats --addr 127.0.0.1:1 2> "$SMOKE_DIR/refused.err" || rc=$?
[ "$rc" -eq 2 ] || { echo "refused stats exited $rc, want 2"; exit 1; }
grep -q "cannot connect" "$SMOKE_DIR/refused.err" \
    || { echo "no connection diagnostic"; cat "$SMOKE_DIR/refused.err"; exit 1; }

target/release/cme shutdown --port-file "$SMOKE_DIR/port" > /dev/null
wait "$SERVE_PID"
SERVE_PID=""
[ -s "$SMOKE_DIR/metrics.json" ] || { echo "no metrics dump on shutdown"; exit 1; }

echo "serve smoke: ok"
