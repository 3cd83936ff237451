#!/usr/bin/env bash
# Non-test lines per crate under crates/*/src, counted the way ROADMAP.md
# states its line figures.
#
# Usage: scripts/loc.sh
#
# A file counts its lines up to and including its first `#[cfg(test)]`
# (everything after it is the test module). A file that is itself declared
# test-only (`#[cfg(test)] mod name;`, as crates/async/src/testutil.rs is)
# counts nothing. Prints one `<lines> crates/<name>` line per crate, then
# the total. Gates nothing.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# The files declared by a `#[cfg(test)]` followed by `mod name;`, on the
# same line or the next, resolved next to the declaring file.
test_only_files() {
    local src="$1" f dir name
    while IFS= read -r f; do
        dir="$(dirname "$f")"
        awk '/#\[cfg\(test\)\]/ { armed = 2 }
             armed && match($0, /mod [A-Za-z_0-9]+;/) {
                 print substr($0, RSTART + 4, RLENGTH - 5); armed = 0; next }
             armed { armed-- }' "$f" |
            while IFS= read -r name; do
                echo "$dir/$name.rs"
                echo "$dir/$name/mod.rs"
            done
    done < <(find "$src" -name '*.rs')
}

total=0
for src in crates/*/src; do
    crate="${src%/src}"
    skip="$(test_only_files "$src")"
    lines=0
    while IFS= read -r f; do
        grep -qxF "$f" <<<"$skip" && continue
        n=$(sed '/#\[cfg(test)\]/q' "$f" | wc -l)
        lines=$((lines + n))
    done < <(find "$src" -name '*.rs' | sort)
    printf '%6d %s\n' "$lines" "$crate"
    total=$((total + lines))
done
printf '%6d total\n' "$total"
