#!/usr/bin/env bash
# Offline CI gate + benchmark harnesses.
#
#   scripts/ci.sh            # tier-1 gate, then the harnesses
#   BENCH_SCALE=paper scripts/ci.sh   # also refresh the committed BENCH_*.json
#
# The gate is the repo's tier-1 contract: an offline release build plus the
# full workspace test suite, no registry access required. Serial and
# parallel reports are held equal by the workspace tests
# (crates/core/tests/parallel_determinism.rs).
#
# Committed BENCH_*.json files are paper scale. Every harness writes
# through $OUT: target/ci-bench/ by default, so a green run leaves the tree
# clean (a rerun's timings are host noise, not a new artifact), and the
# repository root under BENCH_SCALE=paper, which refreshes the committed
# files. Each harness keeps its own scale, floors and gates either way.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${BENCH_SCALE:-small}" = "paper" ]; then
    OUT=.
else
    OUT=target/ci-bench
    mkdir -p "$OUT"
fi

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

echo "== benchmark self-tests (perfbench) =="
# The benchmark is its own cargo project linking the simulator, the
# analysis internals and the serve wire; building and testing it here
# catches a change that would break it.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== row-engine (hit/miss pre-pass) harness =="
# Always at paper scale: times cold FindMisses with the pre-pass off vs on
# (serial, counting evaluator), asserts the reports are bit-identical, and
# enforces the floors: resolution rate MMT >= 90% and MGRID >= 97%,
# pre-pass-on wall <= off wall on MMT;
# stream3 resolved in full with zero walked points and >= 100x over the
# walk; a >= 10x stream3 padding sweep over the pre-pass-off sweep with an
# identical plan; and an exact serve job that answers a never-seen stream3
# size without a walk, byte-identical to the walked answer.
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
# independent pre-pass-off run, a repeat engine sweep answered entirely
# from the store, and on the streaming workload the floors: the sweep
# >=5x faster than the pre-pass-off loop and no slower than the default
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

echo "== ok =="
