#!/usr/bin/env bash
# Regenerates the standard-scale record of the paper's figures.
#
#   bash results/regenerate.sh          # rewrite the record
#   bash results/regenerate.sh --check  # re-run and diff against it
#
# Runs the 20 standard-suite binaries of `lira-bench` in the order below
# and writes their output, each under a `=== <binary> ===` header, to
# `results/experiments_standard.txt`. The commit, host and wall time go to
# `results/experiments_standard.stamp`, so the record itself holds only
# what the code prints. `fig04` (Figures 4 and 5), `fig06` and `fig07`
# also rewrite `results/telemetry/<id>.json`.
#
# `--check` runs the suite in a scratch directory (the tracked files are
# left alone) and fails if its output differs from the record anywhere
# but the `=== fig14 ===` section, whose table is wall time.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

BINS=(fig01 tab01 fig03 fig04 fig06 fig07 fig08 fig09 fig10 fig11 fig12
      fig13 fig14 tab03 ablation exp_history exp_messaging exp_motion_models
      exp_adaptivity exp_knn)
RECORD=results/experiments_standard.txt
STAMP=results/experiments_standard.stamp

check=0
case "${1:-}" in
    "") ;;
    --check) check=1 ;;
    *) echo "usage: bash results/regenerate.sh [--check]" >&2; exit 2 ;;
esac

cargo build --offline --release -p lira-bench --bins

# Runs the suite with `$1` as the working directory (the telemetry files
# land under its `results/telemetry/`) and prints the record.
run_suite() {
    local dir=$1
    for bin in "${BINS[@]}"; do
        echo "=== $bin ==="
        (cd "$dir" && "$ROOT/target/release/$bin")
        echo
    done
}

# The record without its wall-time section.
without_fig14() {
    awk '/^=== / { skip = ($2 == "fig14") } !skip' "$1"
}

if [ "$check" -eq 1 ]; then
    scratch=$(mktemp -d)
    trap 'rm -rf "$scratch"' EXIT
    run_suite "$scratch" > "$scratch/run.txt"
    if diff -u <(without_fig14 "$RECORD") <(without_fig14 "$scratch/run.txt"); then
        echo "standard suite matches $RECORD (fig14 skipped)"
    else
        echo "standard suite differs from $RECORD: re-run bash results/regenerate.sh" >&2
        exit 1
    fi
    exit 0
fi

start=$(date +%s)
run_suite "$ROOT" > "$RECORD.tmp"
mv "$RECORD.tmp" "$RECORD"
{
    echo "commit: $(git rev-parse HEAD 2>/dev/null || echo unknown)"
    if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
        echo "dirty: true"
    else
        echo "dirty: false"
    fi
    echo "date: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
    echo "logical_cores: $(nproc)"
    echo "cpu_model: $(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)"
    echo "rustc: $(rustc -V)"
    echo "wall_s: $(($(date +%s) - start))"
} > "$STAMP"
echo "wrote $RECORD and $STAMP"
