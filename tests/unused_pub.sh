#!/usr/bin/env bash
# Lists every `pub fn` of a workspace library that nothing outside that
# library names, and fails if there is one: such a function is
# `pub(crate)` at most (or dead, which rustc's `dead_code` then says).
#
# A library is the non-binary part of `crates/<name>/src` (everything but
# `src/bin/`). A name counts as used when it appears as a word in any
# other Rust file of the checkout: another crate, the library's own
# binaries, integration tests, benches and examples, the root crate's
# `src/`, `tests/`, `examples/` and `benchmark/`. The vendored shims
# (`vendor/`) and build output count for nothing.
#
# Matching is by name, not by path, so two functions sharing a name hide
# each other: the scan misses some unused items, but never flags a used
# one.
#
#   bash tests/unused_pub.sh       # prints `file:line name` per finding
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"

words=$(mktemp)
trap 'rm -f "$words"' EXIT

found=0
for crate in crates/*/; do
    src="${crate}src"
    # Every word of every Rust file outside this library.
    git ls-files -z --cached --others --exclude-standard -- '*.rs' |
        tr '\0' '\n' |
        grep -v -e "^${src}/" -e '^vendor/' |
        tr '\n' '\0' |
        xargs -0 grep -ohE '[A-Za-z_][A-Za-z0-9_]*' |
        sort -u >"$words"
    # Re-add the library's own binaries, which the filter above dropped.
    if [ -d "$src/bin" ]; then
        git ls-files -z --cached --others --exclude-standard -- "$src/bin/*.rs" |
            xargs -0 -r grep -ohE '[A-Za-z_][A-Za-z0-9_]*' |
            sort -u - "$words" -o "$words"
    fi
    while IFS=: read -r file line name; do
        if ! grep -qxF -- "$name" "$words"; then
            echo "$file:$line $name"
            found=$((found + 1))
        fi
    done < <(git ls-files -z --cached --others --exclude-standard -- "$src/*.rs" |
        tr '\0' '\n' | grep -v "^${src}/bin/" | tr '\n' '\0' |
        xargs -0 grep -nE '^\s*pub (const |unsafe )?fn [A-Za-z_]' |
        sed -E 's/^([^:]*):([0-9]*):.*pub (const |unsafe )?fn ([A-Za-z_][A-Za-z0-9_]*).*/\1:\2:\4/')
done

if [ "$found" -gt 0 ]; then
    echo "$found pub fn(s) above have no caller outside their crate: make them pub(crate)," \
        "or delete them if nothing calls them at all" >&2
    exit 1
fi
echo "every pub fn has a caller outside its crate"
