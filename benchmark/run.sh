#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it from the repo root.
# Usage and flags: see README.md next to this script, or run with --help.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
BENCH_GIT_SHA="$(git describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)" \
    exec "$CARGO_TARGET_DIR/release/ppm-benchmark" "$@"
