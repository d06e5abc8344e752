#!/usr/bin/env bash
# Regenerates the standard-scale record of the paper's figures, which
# lives in EXPERIMENTS.md.
#
#   bash results/regenerate.sh          # rewrite the record blocks
#   bash results/regenerate.sh --check  # re-run and diff against them
#
# Runs the 20 standard-suite binaries of `lira-bench` in the order below
# and writes each one's output, fenced, between its
#
#   <!-- record:<binary> -->
#   <!-- /record -->
#
# markers in EXPERIMENTS.md, leaving every line outside the blocks as it
# is. Each binary has exactly one block (`tests/record.rs` holds the
# markers to `BINS`). The commit, host and wall time go to
# `results/record.stamp`, so the blocks hold only what the code prints.
# The suite runs in a scratch directory. `fig04` (Figures 4 and 5),
# `fig06` and `fig07` also write a `results/telemetry/<id>.json` there,
# which is copied over the committed one only when its `counters` differ
# (with `jq`): the histograms hold wall time, so copying every run's
# would rewrite the files with nothing changed.
#
# When no block but `fig14`'s (wall time) would change and no telemetry
# counter moved, nothing is written: the record and its stamp stay as
# they are, and two back-to-back runs leave the tree clean.
#
# `--check` leaves the tracked files alone and fails if a block would
# change anywhere but in `fig14`'s,
# whose table is wall time, or if the `counters` of any
# `results/telemetry/<id>.json` snapshot differ from the fresh run's
# (with `jq`; the histograms are left out, since some of their keys are
# wall time: `shard.round_ns`, `*_us`).
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"

BINS=(fig01 tab01 fig03 fig04 fig06 fig07 fig08 fig09 fig10 fig11 fig12
      fig13 fig14 tab03 ablation exp_history exp_messaging exp_motion_models
      exp_adaptivity exp_knn)
DOC=EXPERIMENTS.md
STAMP=results/record.stamp

check=0
case "${1:-}" in
    "") ;;
    --check) check=1 ;;
    *) echo "usage: bash results/regenerate.sh [--check]" >&2; exit 2 ;;
esac

cargo build --offline --release -p lira-bench --bins

# Runs the suite with `$1` as the working directory (the telemetry files
# land under its `results/telemetry/`), each binary's output to
# `$2/<binary>.txt`.
run_suite() {
    local dir=$1 out=$2
    for bin in "${BINS[@]}"; do
        (cd "$dir" && "$ROOT/target/release/$bin") > "$out/$bin.txt"
    done
}

# Prints EXPERIMENTS.md with each record block's body replaced by the
# fenced output in `$1/<binary>.txt`.
render() {
    awk -v out="$1" '
        /^<!-- \/record -->$/ { skip = 0 }
        skip { next }
        { print }
        /^<!-- record:[A-Za-z0-9_]+ -->$/ {
            file = out "/" substr($0, 13, length($0) - 16) ".txt"
            print "```text"
            while ((status = (getline line < file)) > 0) print line
            if (status < 0) { print "no output " file > "/dev/stderr"; exit 1 }
            close(file)
            print "```"
            skip = 1
        }
    ' "$DOC"
}

# The document without the body of the wall-time block.
without_fig14() {
    awk '/^<!-- \/record -->$/ { skip = 0 } !skip; /^<!-- record:fig14 -->$/ { skip = 1 }' "$1"
}

TELEMETRY=(fig04 fig06 fig07)

# Every snapshot's label and counters of one telemetry file, one per line.
counters_of() {
    jq -c '.[] | {label: .label, counters: .snapshot.counters}' "$1"
}

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
mkdir "$scratch/out"

start=$(date +%s)
run_suite "$scratch" "$scratch/out"
render "$scratch/out" > "$scratch/$DOC"
moved=()
for id in "${TELEMETRY[@]}"; do
    file=results/telemetry/$id.json
    if [ ! -f "$file" ] || ! diff -q <(counters_of "$file") <(counters_of "$scratch/$file") >/dev/null; then
        moved+=("$id")
    fi
done

if [ "$check" -eq 1 ]; then
    if diff -u <(without_fig14 "$DOC") <(without_fig14 "$scratch/$DOC"); then
        echo "standard suite matches the record blocks of $DOC (fig14 skipped)"
    else
        echo "standard suite differs from $DOC: re-run bash results/regenerate.sh" >&2
        exit 1
    fi
    if [ ${#moved[@]} -gt 0 ]; then
        for id in "${moved[@]}"; do
            file=results/telemetry/$id.json
            diff -u <(counters_of "$file") <(counters_of "$scratch/$file") || true
            echo "telemetry counters differ from $file" >&2
        done
        echo "re-run bash results/regenerate.sh" >&2
        exit 1
    fi
    echo "telemetry counters match results/telemetry/{$(IFS=,; echo "${TELEMETRY[*]}")}.json"
    exit 0
fi

# Nothing but wall time moved: leave the record and its stamp as they are.
if [ ${#moved[@]} -eq 0 ] && diff -q <(without_fig14 "$DOC") <(without_fig14 "$scratch/$DOC") >/dev/null; then
    echo "the record is unchanged: wrote nothing (fig14's wall time skipped)"
    exit 0
fi

mv "$scratch/$DOC" "$DOC"
for id in "${moved[@]}"; do
    cp "$scratch/results/telemetry/$id.json" "results/telemetry/$id.json"
    echo "telemetry counters moved: rewrote results/telemetry/$id.json"
done
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
echo "wrote the record blocks of $DOC and $STAMP"
