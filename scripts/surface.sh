#!/usr/bin/env bash
# Public functions nothing calls: the orphan count per crate.
#
# Usage: scripts/surface.sh [--no-tests]
#
# The rule is "every public item has a caller". A `pub fn` defined in a
# file under crates/*/src is an orphan when its name appears, as a whole
# word, in no other git-tracked `.rs` file: not in another crate, not in
# the crate's other files, not in tests/, examples/ or benchmark/src. A
# name used only by its own file is private in all but spelling (make it
# private), and a name used only by its own file's tests has no caller
# (delete it). The scan is by name, so a common name (`new`, `len`) that
# some other file spells is never counted; it undercounts, and never
# counts a used function.
#
# --no-tests counts only non-test code as a caller: each tracked `.rs`
# file under crates/*/src, src/, benchmark/src and examples/, up to its
# first `#[cfg(test)]`. A test is not a client, so a name this mode lists
# is one that only tests call (or nobody). A definition with a
# `// surface: <reason>` line above it (its doc comment and attributes
# may sit in between) states why it stays public anyway, and this mode
# does not list it.
#
# Prints one `<count> crates/<name>` line per crate that has orphans, each
# followed by its orphans as `  <name>  <file>`, then the total of
# distinct names. Exits 1 when that total is not 0.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

no_tests=false
case "${1:-}" in
    "") ;;
    --no-tests) no_tests=true ;;
    *) echo "surface.sh: unknown argument $1" >&2; exit 2 ;;
esac

# The files other than `$1` that name `$2`: any tracked `.rs` file, or
# with --no-tests the non-test part of the caller files copied to $cut.
callers() {
    if $no_tests; then
        (cd "$cut" && grep -rlw -e "$2" . | sed 's|^\./||')
    else
        git grep -lw -e "$2" -- '*.rs'
    fi | grep -vxF "$1" || true
}

if $no_tests; then
    cut="$(mktemp -d)"
    trap 'rm -rf "$cut"' EXIT
    git ls-files -- 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' 'src/*.rs' 'src/**/*.rs' \
        'benchmark/src/*.rs' 'benchmark/src/**/*.rs' 'examples/*.rs' 'examples/**/*.rs' |
        while IFS= read -r f; do
            mkdir -p "$cut/$(dirname "$f")"
            sed '/#\[cfg(test)\]/q' "$f" >"$cut/$f"
        done
fi

# `<file> <name> <reasoned>` for every `pub fn` definition under
# crates/*/src, where <reasoned> is 1 when a `// surface: ` line sits
# above the definition, past its `///` and `#[...]` lines.
reasons() {
    git ls-files -- 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' | xargs awk '
        { above[FNR] = $0 }
        match($0, /(^|[^A-Za-z_0-9])pub fn [A-Za-z_][A-Za-z_0-9]*/) {
            name = substr($0, RSTART, RLENGTH)
            sub(/.*pub fn /, "", name)
            reasoned = 0
            for (i = FNR - 1; i > 0; i--) {
                if (above[i] ~ /^[ \t]*(\/\/\/|#\[)/) continue
                reasoned = above[i] ~ /^[ \t]*\/\/ surface: [^ ]/
                break
            }
            print FILENAME, name, reasoned
        }'
}

# `<file> <name>` for every `pub fn` definition to check: all of them, or
# with --no-tests those without a reason (a name defined twice in a file
# needs a reason at both).
if $no_tests; then
    defs="$(reasons | awk '$3 == 0 {print $1, $2}' | sort -u)"
else
    defs="$(reasons | awk '{print $1, $2}' | sort -u)"
fi

orphans=""
while read -r file name; do
    [ -n "$file" ] || continue
    [ -n "$(callers "$file" "$name")" ] || orphans+="$file $name"$'\n'
done <<<"$defs"

for src in crates/*/src; do
    crate="${src%/src}"
    mine="$(grep "^$src/" <<<"$orphans" || true)"
    [ -n "$mine" ] || continue
    printf '%6d %s\n' "$(awk '{print $2}' <<<"$mine" | sort -u | wc -l)" "$crate"
    awk '{printf "         %s  %s\n", $2, $1}' <<<"$mine"
done
total="$(awk 'NF {print $2}' <<<"$orphans" | sort -u | wc -l)"
printf '%6d total\n' "$total"
[ "$total" -eq 0 ]
