#!/usr/bin/env bash
# Lists every `pub` item — `fn`, `struct`, `enum`, `const`, `static`,
# `type` or `mod` — of a workspace library that nothing outside that
# library names, and fails if there is one: such an item is `pub(crate)`
# at most (or dead, which rustc's `dead_code` then says).
#
# A library is the non-binary part of `crates/<name>/src` (everything but
# `src/bin/`). A name counts as used when it appears as a word in any
# other Rust file of the checkout: another crate, the library's own
# binaries, integration tests, benches and examples, the root crate's
# `src/`, `tests/`, `examples/` and `benchmark/`. The vendored shims
# (`vendor/`) and build output count for nothing.
#
# Matching is by name, not by path, so two items sharing a name hide
# each other, and a name that also occurs as a word in a comment counts
# as used: the scan misses some unused items, but never flags a used one.
#
#   bash tests/unused_pub.sh       # prints `file:line name` per finding
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"

words=$(mktemp)
sigs=$(mktemp)
trap 'rm -f "$words" "$sigs"' EXIT

# `file:line:word` for every word of the public signatures in the files
# named on stdin (NUL-separated).
signature_words() {
    xargs -0 -r awk '
        function emit(   n, parts, i) {
            n = split($0, parts, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++)
                if (parts[i] != "") print FILENAME ":" FNR ":" parts[i]
        }
        FNR == 1 { insig = 0 }
        /^[[:space:]]*pub[[:space:]]+use[[:space:]]/ { next }
        /^[[:space:]]*pub[[:space:]]/ {
            emit()
            insig = $0 ~ /^[[:space:]]*pub[[:space:]]+((const|unsafe)[[:space:]]+)?fn[[:space:]]/ && $0 !~ /[{;]/
            next
        }
        insig { emit(); if ($0 ~ /[{;]/) insig = 0 }
    '
}

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
    lib_files() {
        git ls-files -z --cached --others --exclude-standard -- "$src/*.rs" |
            tr '\0' '\n' | grep -v "^${src}/bin/" | tr '\n' '\0'
    }
    lib_files | signature_words >"$sigs"
    # The `pub` items of the files named on stdin (NUL-separated), as
    # `file:line:kind:name`.
    pub_items() {
        xargs -0 -r grep -HnE '^\s*pub ((const |unsafe )?fn|struct|enum|const|static|type|mod) [A-Za-z_]' |
            sed -E 's/^([^:]*):([0-9]*):\s*pub ((const |unsafe )?fn|struct|enum|const|static|type|mod) ([A-Za-z_][A-Za-z0-9_]*).*/\1:\2:\3:\5/'
    }
    # Whether the item `name` declared at `file:line` has a user.
    used() {
        local file=$1 line=$2 name=$3
        grep -qxF -- "$name" "$words" ||
            # Named by a public signature other than its own declaration.
            grep -E -- ":${name}\$" "$sigs" | grep -qvxF -- "$file:$line:$name"
    }
    while IFS=: read -r file line kind name; do
        if used "$file" "$line" "$name"; then
            continue
        fi
        if [ "$kind" = mod ]; then
            dir=$(dirname "$file")
            inner=0
            for f in "$dir/$name.rs" "$dir/$name/mod.rs"; do
                [ -f "$f" ] || continue
                while IFS=: read -r ifile iline _ iname; do
                    if used "$ifile" "$iline" "$iname"; then
                        inner=1
                        break
                    fi
                done < <(printf '%s\0' "$f" | pub_items)
            done
            if [ "$inner" = 1 ]; then
                continue
            fi
        fi
        echo "$file:$line $name"
        found=$((found + 1))
    done < <(lib_files | pub_items)
done

if [ "$found" -gt 0 ]; then
    echo "$found pub item(s) above have no user outside their crate: make them pub(crate)," \
        "or delete them if nothing uses them at all" >&2
    exit 1
fi
echo "every pub item has a user outside its crate"
