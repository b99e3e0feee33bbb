#!/usr/bin/env bash
# Offline CI gate + benchmark harnesses.
#
#   scripts/ci.sh            # tier-1 gate, then the harnesses
#   BENCH_SCALE=paper scripts/ci.sh   # also refresh the committed BENCH_*.json
#
# The gate is the repo's tier-1 contract: an offline release build plus the
# full workspace test suite, no registry access required. Serial and
# parallel reports are held equal to the classifier run over every point
# by the workspace tests (crates/core/tests/parallel_determinism.rs).
#
# Committed BENCH_*.json files are paper scale. Every harness writes
# through $OUT: target/ci-bench/ by default, so a green run leaves the tree
# as it found it (a rerun's timings are host noise, not a new artifact),
# and the repository root under BENCH_SCALE=paper, which refreshes the
# committed files. Each harness keeps its own scale, floors and gates
# either way. At the default scale the run fails if `git status
# --porcelain` differs afterwards.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${BENCH_SCALE:-small}" = "paper" ]; then
    OUT=.
    TREE_BEFORE=
else
    OUT=target/ci-bench
    mkdir -p "$OUT"
    TREE_BEFORE=$(git status --porcelain)
fi

# Building perfbench rewrites perfbench/Cargo.lock whenever a workspace
# crate's dependencies changed since the lock was written, and the
# benchmark's files change only with the benchmark. Keep a copy and put
# it back on every exit path.
mkdir -p target
LOCK_COPY=target/perfbench-Cargo.lock.orig
cp perfbench/Cargo.lock "$LOCK_COPY"
restore_lock() { cp "$LOCK_COPY" perfbench/Cargo.lock; }
trap restore_lock EXIT

echo "== lint gate: rustfmt =="
cargo fmt --check

echo "== lint gate: clippy (warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== lint gate: rustdoc (warnings are errors) =="
# Broken or ambiguous intra-doc links fail here, not in a reader's browser.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== tier-1 gate: offline release build =="
cargo build --release --offline

echo "== tier-1 gate: workspace tests (offline) =="
cargo test -q --offline --workspace

echo "== serve chaos tests, release build =="
# Their busy job must outlast its 1 s deadline in an optimised build too:
# a faster analysis that finishes it in time turns the expected timeout
# into an answer, which the debug run above cannot see.
cargo test -q --release --offline -p cme-serve --test chaos_e2e

echo "== benchmark self-tests (perfbench) =="
# The benchmark is its own cargo project linking the simulator, the
# analysis internals and the serve wire; building and testing it here
# catches a change that would break it.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== row-engine (hit/miss pre-pass) harness =="
# Always at paper scale: times cold serial FindMisses (row engine, then
# the counting classifier on what it leaves) against the classifier alone
# over every point, asserts the reports are bit-identical, and enforces
# the floors: resolution rate MMT >= 90% and MGRID >= 97%, FindMisses
# wall <= every-point wall on MMT, at most one row walked per counted
# point on MMT, at most 0.25 points evaluated (vector scan run) per point
# on MMT and MGRID; stream3 resolved in full with zero
# walked points and >= 100x over the every-point walk; a serial stream3
# padding sweep >= 10x faster than the every-point walk over the layouts
# it evaluated, every trial's ratio equal to the walk's; and an exact
# serve job that answers a never-seen stream3 size without a walk,
# byte-identical to the walked answer.
cargo run -p cme-bench --bin bench_prepass --release --offline -- \
    --scale paper --out "$OUT/BENCH_prepass.json"

echo "== trace subsystem harness =="
# Always at paper scale: generates each workload's exact address stream,
# asserts the cross-validation identity (replay == simulator everywhere;
# FindMisses == replay on hydro/mgrid, >= replay on MMT with <2% drift),
# framed-roundtrip byte identity, a store-backed engine repeat, and a
# >=10M accesses/sec serial replay floor on the MMT trace.
cargo run -p cme-bench --bin bench_trace --release --offline -- \
    --scale paper --out "$OUT/BENCH_trace.json"

echo "== result-store harness =="
# Cold vs hot query through one engine; asserts byte-identical payloads
# (and a >=100x hot speedup at paper scale).
cargo run -p cme-bench --bin bench_serve --release --offline -- \
    --scale "${BENCH_SCALE:-small}" --out "$OUT/BENCH_serve.json"

echo "== geometry-sweep harness =="
# Always at paper scale: a 24-cell grid (sizes x assocs x line sizes) as a
# sweep (one reuse analysis per line size, then FindMisses per cell) vs
# per-geometry loops. Asserts every grid cell byte-identical to its
# independent every-point walk, a repeat engine sweep answered entirely
# from the store, and on the streaming workload the floors: the sweep
# >=5x faster than the walked loop and no slower than the FindMisses
# loop (a serial win — every side runs one thread).
cargo run -p cme-bench --bin bench_sweep --release --offline -- \
    --scale paper --out "$OUT/BENCH_sweep.json"

echo "== serve smoke test (hard 180 s timeout) =="
# The smoke script kills its daemon on every exit path; the hard timeout
# here turns an injected or accidental hang into a fast CI failure
# instead of a wedged job.
timeout --kill-after=10 180 scripts/serve_smoke.sh

echo "== chaos harness =="
# A seeded schedule of >=100 injected faults (torn writes, read errors,
# dropped connections, >=5 worker panics) against a live daemon: every
# completed response byte-identical to the fault-free baseline, every
# failure structured and retryable, the daemon surviving, compaction
# recovering at every injected crash point, and chaos-off bytes equal to
# the seed's.
cargo run -p cme-bench --bin bench_chaos --release --offline -- \
    --out "$OUT/BENCH_chaos.json"

restore_lock
if [ "${BENCH_SCALE:-small}" != "paper" ]; then
    echo "== the tree is as the run found it =="
    TREE_AFTER=$(git status --porcelain)
    if [ "$TREE_AFTER" != "$TREE_BEFORE" ]; then
        echo "ci.sh changed the working tree:" >&2
        diff <(echo "$TREE_BEFORE") <(echo "$TREE_AFTER") >&2 || true
        exit 1
    fi
fi

echo "== ok =="
