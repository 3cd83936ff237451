#!/usr/bin/env bash
# Public functions nothing calls: the orphan count per crate.
#
# Usage: scripts/surface.sh
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
# Prints one `<count> crates/<name>` line per crate that has orphans, each
# followed by its orphans as `  <name>  <file>`, then the total of
# distinct names. Gates nothing.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# `<file> <name>` for every `pub fn` definition under crates/*/src.
defs="$(git grep -oE '\bpub fn [A-Za-z_][A-Za-z_0-9]*' -- 'crates/*/src/*.rs' 'crates/*/src/**/*.rs' |
    sed 's/:pub fn / /' | sort -u)"

orphans=""
while read -r file name; do
    [ -n "$file" ] || continue
    others="$(git grep -lw -e "$name" -- '*.rs' | grep -vxF "$file" || true)"
    [ -n "$others" ] || orphans+="$file $name"$'\n'
done <<<"$defs"

for src in crates/*/src; do
    crate="${src%/src}"
    mine="$(grep "^$src/" <<<"$orphans" || true)"
    [ -n "$mine" ] || continue
    printf '%6d %s\n' "$(awk '{print $2}' <<<"$mine" | sort -u | wc -l)" "$crate"
    awk '{printf "         %s  %s\n", $2, $1}' <<<"$mine"
done
printf '%6d total\n' "$(awk 'NF {print $2}' <<<"$orphans" | sort -u | wc -l)"
