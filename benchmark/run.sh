#!/usr/bin/env bash
# Builds `lira-serve` in the root workspace and the benchmark package here,
# both `--offline --release`, then runs the benchmark with the arguments
# given (none: all four workloads, seed 42, end-to-end metrics).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds, so `lira-serve` lands beside
# `lira-benchmark`, which looks for it there. A relative CARGO_TARGET_DIR
# is taken from the root of the checkout.
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
/*) ;;
*) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --offline --release --quiet --manifest-path "$root/Cargo.toml" \
    -p lira-serve --bin lira-serve >&2
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/lira-benchmark" "$@"
