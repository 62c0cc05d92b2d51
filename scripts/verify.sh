#!/usr/bin/env bash
# Tier-1 verification: the whole workspace (every crate, bin, bench, and
# test target) must build in release mode and the full test suite (unit +
# integration + doc tests, including the backend trait-conformance suite and
# the golden-file snapshots under tests/golden/) must pass. Everything is
# offline: all external dependencies are path stubs under vendor/.
#
# Time knobs for slow machines: PROPTEST_CASES caps property-test cases and
# GOLDEN_RUNS=0 skips the golden-file binary runs.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
# Compiler warnings are gate failures: the workspace must build warning-free.
RUSTFLAGS="-D warnings" cargo build --release --workspace --all-targets
cargo test -q
cargo test -q -p timely-sim
cargo test -q -p timely-dse
cargo test -q -p timely-baselines   # backend trait-conformance suite
cargo test -q -p timely-lint        # lexer/rule units + fixtures + self-check
cargo test -q -p timely-obs         # deterministic telemetry + trace export
# Static analysis gate, run before the golden-file studies so an invariant
# slip fails fast. Clippy enforces the workspace lint table in Cargo.toml
# (panic-freedom, determinism, float equality, `#[expect]`-only suppression;
# an expectation that no longer fires fails as unfulfilled). Test code is
# out of scope, hence `--lib --bins`.
cargo clippy --workspace --lib --bins -- -D warnings
# timely-lint: unit discipline, allocation-free hot loops, and the
# `#[expect]` count ratchet (exits nonzero when the count drifts from
# EXPECT_BUDGET in either direction).
cargo run --release -p timely-lint
# The serving study also exercises the observability exports: the bin
# validates the Chrome trace by parsing it back through the vendored serde
# stubs before writing it (byte-identical across runs; golden-pinned too).
cargo run --release -p timely-bench --bin serving_study -- --smoke \
    --trace target/trace_smoke.json --metrics target/metrics_smoke.txt > /dev/null
cargo run --release -p timely-bench --bin dse_study -- --smoke > /dev/null
cargo run --release -p timely-bench --bin accuracy_study -- --smoke > /dev/null
cargo run --release -p timely-bench --bin backend_matrix > /dev/null
# The stand-alone benchmark package pins its seed-2020 outputs
# (standard_iterations_reproduce_the_pinned_outputs), so a speed-only change
# that moves any simulated, explored or inferred number fails here.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
# Soft perf gate: re-measure DSE/sim throughput and compare against the
# committed BENCH_*.json baselines by ratio. Deltas are reported; only a
# >2x slowdown fails (wall-clock noise between machines must not).
cargo run --release -p timely-bench --bin perf_harness -- --smoke --check
echo "tier-1 verify: OK"
