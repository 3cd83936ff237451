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
# is one that only tests call (or nobody).
#
# Prints one `<count> crates/<name>` line per crate that has orphans, each
# followed by its orphans as `  <name>  <file>`, then the total of
# distinct names. Gates nothing.
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

# `<file> <name>` for every `pub fn` definition under crates/*/src.
defs="$(git grep -oE '\bpub fn [A-Za-z_][A-Za-z_0-9]*' -- 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' |
    sed 's/:pub fn / /' | sort -u)"

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
printf '%6d total\n' "$(awk 'NF {print $2}' <<<"$orphans" | sort -u | wc -l)"
