#!/usr/bin/env bash
# The mutant shelf: each `NN-name.patch` here reintroduces a fixed bug or
# breaks a named invariant, and its first line names the test that must
# fail on it:
#
#   Test: <package> <test target> <exact test name>
#
# (the target is `lib` for the library's unit tests, `bin:NAME` for the
# unit tests of binary NAME, or an integration test's name), followed by
# a few lines of why, then a diff `git apply` takes.
#
# The script copies the checkout (tracked and untracked files as they are
# on disk, ignored files left out) into a scratch tree, checks that every
# named test passes there unmutated, then for each patch in turn: applies
# it, requires the mutated tree to build, runs the named test, requires it
# to fail, and reverts the patch. A mutant whose test passes survived.
#
#   bash tests/mutants/run.sh                 # every patch
#   bash tests/mutants/run.sh tests/mutants/03-*.patch
#
# Prints one line per mutant, then `killed K/N`. Exits 0 only if every
# mutant was killed; a patch that no longer applies or builds counts as
# not killed, so a change that moves the code a patch touches must update
# the patch. MUTANTS_DIR names the scratch directory (a fresh temporary
# one by default); its `target/` build cache is reused across runs.
# MUTANT_TIMEOUT caps one test run in seconds (default 900); a run cut off
# by it counts as killed.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
if [ $# -gt 0 ]; then
    patches=("$@")
else
    patches=(tests/mutants/[0-9]*.patch)
fi
if [ -n "${MUTANTS_DIR:-}" ]; then
    scratch=$MUTANTS_DIR
else
    scratch=$(mktemp -d)
    trap 'rm -rf "$scratch"' EXIT
fi
tree="$scratch/tree"
export CARGO_TARGET_DIR="$scratch/target"

rm -rf "$tree"
mkdir -p "$tree"
if git -C "$tree" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    # `git apply` would patch the enclosing repository's paths instead.
    echo "MUTANTS_DIR must lie outside any git work tree: $scratch" >&2
    exit 2
fi
# `-m` stamps every file with the current time: with the files' own
# (older) times, cargo would take a reused `target/` built from the last
# mutant for up to date.
git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -c | tar -x -m -C "$tree"

# The `Test:` line of a patch, as `package target name`.
test_of() {
    sed -n '1s/^Test: //p' "$1"
}

# The `cargo test` flags that select a `Test:` line's target.
target_args() {
    case $1 in
        lib) echo --lib ;;
        bin:*) echo --bin "${1#bin:}" ;;
        *) echo --test "$1" ;;
    esac
}

# Runs one named test in the scratch tree; its exit status is the test's.
run_test() {
    local pkg=$1 target=$2 name=$3 which
    read -ra which <<<"$(target_args "$target")"
    (cd "$tree" && timeout "${MUTANT_TIMEOUT:-900}" \
        cargo test --offline --release -q -p "$pkg" "${which[@]}" -- --exact "$name") \
        >"$scratch/last.log" 2>&1
}

for patch in "${patches[@]}"; do
    spec=$(test_of "$patch")
    if [ -z "$spec" ]; then
        echo "$patch: no 'Test:' line" >&2
        exit 2
    fi
    read -r pkg target name <<<"$spec"
    if ! run_test "$pkg" "$target" "$name"; then
        cat "$scratch/last.log" >&2
        echo "$patch: $name fails on the unmutated tree" >&2
        exit 2
    fi
done

killed=0
for patch in "${patches[@]}"; do
    read -r pkg target name <<<"$(test_of "$patch")"
    label=$(basename "$patch" .patch)
    if ! (cd "$tree" && git apply "$root/$patch"); then
        echo "NOT APPLIED  $label"
        continue
    fi
    read -ra which <<<"$(target_args "$target")"
    if ! (cd "$tree" && cargo test --offline --release -q -p "$pkg" "${which[@]}" --no-run) \
        >"$scratch/last.log" 2>&1; then
        echo "NO BUILD     $label"
        tail -n 20 "$scratch/last.log"
    elif run_test "$pkg" "$target" "$name"; then
        echo "SURVIVED     $label ($name passed)"
    else
        echo "killed       $label by $name"
        killed=$((killed + 1))
    fi
    (cd "$tree" && git apply -R "$root/$patch")
done

echo "killed $killed/${#patches[@]}"
[ "$killed" -eq "${#patches[@]}" ]
