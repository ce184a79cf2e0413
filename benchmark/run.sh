#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--smoke]
#
# Prints one "name unit value" line per metric, then one JSON object; appends
# the run to benchmark/out/results.jsonl (see compare.sh) and, with --trace 1,
# writes benchmark/out/trace-<workload>.json. Exits non-zero if any output of
# the store was wrong. Run it from the repo root, as BENCHMARK.json does.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
KVBENCH_RUSTC="$(rustc -V)" exec "$target/release/kvbench" --out-dir "$here/out" "$@"
