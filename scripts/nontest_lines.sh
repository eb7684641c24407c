#!/usr/bin/env bash
# Prints each workspace crate's non-test line count: every `src/*.rs`
# file (recursively) counted up to its first line that starts with
# `#[cfg(test)]`, summed per crate, then the total. Run from anywhere
# inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

total=0
for src in crates/*/src src; do
    [ -d "$src" ] || continue
    crate=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$src/../Cargo.toml" | head -n 1)
    sum=0
    while IFS= read -r file; do
        sum=$((sum + $(count "$file")))
    done < <(find "$src" -name '*.rs' | sort)
    printf '%6d  %s\n' "$sum" "$crate"
    total=$((total + sum))
done
printf '%6d  total\n' "$total"
