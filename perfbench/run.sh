#!/usr/bin/env bash
# Build the benchmark (and the serve / atlas-shard binaries it drives)
# from source, then run it with this script's arguments. Run from the
# repository root:
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" --bins
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
