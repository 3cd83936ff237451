#!/usr/bin/env bash
# Paired A/B of the repo benchmark between two commits: the method PRs 13
# and 14 carried out by hand (build each side's benchmark/ into its own
# target directory, alternate the two binaries with matched seeds, report
# medians with quartiles and every run), as one command.
#
# Usage: scripts/ab.sh <parent-ref> [<change-ref>] [--workload W]...
#            [--pairs N] [--seconds S]
#   parent-ref   the commit to compare against
#   change-ref   the commit under test; left out, the working tree as it
#                stands (uncommitted edits included)
#   --workload   a BENCHMARK.json workload; repeat for several (default:
#                all of them)
#   --pairs      parent/change pairs per workload (default 10). Pair k runs
#                both sides with seed 100+k; odd pairs run the parent first,
#                even pairs the change
#   --seconds    length of each run (default: BENCHMARK.json's run_seconds)
#
# Prints one `run` line per run, then per workload and end-to-end metric:
# median [q1, q3] of each side, the change's median relative to the
# parent's, the pairs the change won and lost, and a verdict:
#   better / worse   the median moved by more than the metric's bound and
#                    the change won / lost at least 9 in 10 of the pairs
#   unchanged        the medians differ by no more than the distance
#                    between the parent's own quartiles, and that distance
#                    is itself inside the bound
#   unresolved       anything else: the runs cannot tell
# then `failed` and `correct` per workload. Exits 1 on any `worse`, or when
# the change failed more operations or got fewer runs correct than the
# parent; 2 on a usage error. Both sides build and run in a temporary
# directory (under $TMPDIR, removed on exit): a commit is exported with
# `git archive`, the working tree as its tracked files plus the untracked
# ones git does not ignore, edits included. So both sides build the same
# way, and the run writes nothing to the repository: not to its .git, not
# to its working tree.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() { sed -n '2,/^set -euo/p' "${BASH_SOURCE[0]}" | sed '$d; s/^# \{0,1\}//'; }

field() { # <json object on one line> <key> -> its value, unquoted
    sed -n "s/.*\"$2\": *\"\{0,1\}\([^,\"}]*\).*/\1/p" <<<"$1"
}

parent_ref="" change_ref="" pairs=10 workloads=()
seconds="$(field "$(grep '"run_seconds"' "$root/BENCHMARK.json")" run_seconds)"
while (($#)); do
    case "$1" in
        --workload) workloads+=("$2"); shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        -h | --help) usage; exit 0 ;;
        -*) echo "ab.sh: unknown flag $1" >&2; exit 2 ;;
        *)
            if [[ -z $parent_ref ]]; then parent_ref="$1"
            elif [[ -z $change_ref ]]; then change_ref="$1"
            else echo "ab.sh: unexpected argument $1" >&2; exit 2; fi
            shift ;;
    esac
done
if [[ -z $parent_ref ]]; then usage >&2; exit 2; fi
if ((${#workloads[@]} == 0)); then
    mapfile -t workloads < <(grep '"why"' "$root/BENCHMARK.json" |
        while read -r line; do field "$line" name; done)
fi
# name, direction and bound of each end-to-end metric, one per line
metrics="$(sed -n '/"end_to_end"/,/\]/p' "$root/BENCHMARK.json" | grep '"name"' |
    while read -r line; do
        echo "$(field "$line" name) $(field "$line" better) $(field "$line" bound)"
    done)"

work="$(mktemp -d "${TMPDIR:-/tmp}/secmod-ab.XXXXXX")"
trap 'rm -rf "$work"' EXIT
declare -A checkout # side -> the directory its runs start in

# side <name> <ref-or-empty>: export the commit (or the working tree),
# build its benchmark into a target directory of its own, keep a copy of
# the binary.
side() {
    local name="$1" ref="$2" dir="$work/$1-src"
    mkdir -p "$dir"
    if [[ -n $ref ]]; then
        git -C "$root" archive "$ref" | tar -x -C "$dir"
    else
        # A tracked file deleted in the working tree is left out.
        git -C "$root" ls-files -z --cached --others --exclude-standard |
            while IFS= read -r -d '' f; do
                if [[ -e $root/$f ]]; then printf '%s\0' "$f"; fi
            done | tar -C "$root" --null -T - -cf - | tar -x -C "$dir"
    fi
    echo "building $name (${ref:-working tree})" >&2
    (cd "$dir" && CARGO_TARGET_DIR="$work/$name-target" \
        cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml)
    cp "$work/$name-target/release/secmod_benchmark" "$work/$name-bin"
    checkout[$name]="$dir"
}
side parent "$parent_ref"
side change "$change_ref"

# run <side> <workload> <pair>: one run from inside that side's checkout
# (the program writes benchmark/out/ relative to where it runs).
run() {
    local name="$1" w="$2" pair="$3" seed=$((100 + $3)) out result line value
    out="$(cd "${checkout[$name]}" && "$work/$name-bin" \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0)"
    result="$(tail -n 1 <<<"$out")"
    line="run $w pair $pair $name seed $seed"
    while read -r metric _ _; do
        value="$(sed -n "s/^metric $metric \([^ ]*\) .*/\1/p" <<<"$out")"
        echo "$value" >>"$work/$w.$metric.$name"
        line+=" $metric $value"
    done <<<"$metrics"
    echo "$(field "$result" failed) $(field "$result" correct)" >>"$work/$w.verdict.$name"
    echo "$line failed $(field "$result" failed) correct $(field "$result" correct)"
}

for w in "${workloads[@]}"; do
    for ((pair = 1; pair <= pairs; pair++)); do
        if ((pair % 2)); then order=(parent change); else order=(change parent); fi
        for name in "${order[@]}"; do run "$name" "$w" "$pair"; done
    done
done

echo
echo "parent ${parent_ref}, change ${change_ref:-working tree}: $pairs pairs of ${seconds} s runs"
for w in "${workloads[@]}"; do
    while read -r metric better bound; do
        paste "$work/$w.$metric.parent" "$work/$w.$metric.change" |
            awk -v w="$w" -v metric="$metric" -v better="$better" -v bound="$bound" '
            function sorted(v, n,    i, j, x) { # insertion sort: n is a few dozen
                for (i = 2; i <= n; i++) {
                    x = v[i]
                    for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
                    v[j + 1] = x
                }
            }
            function quantile(v, n, p,    at, lo) { # of a sorted v[1..n]
                at = (n - 1) * p; lo = int(at)
                return lo + 1 >= n ? v[n] : v[lo + 1] + (at - lo) * (v[lo + 2] - v[lo + 1])
            }
            function summary(v, n) {
                return sprintf("%.6g [%.6g, %.6g]", quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75))
            }
            {
                a[NR] = $1 + 0; b[NR] = $2 + 0
                if (b[NR] != a[NR]) {
                    if ((better == "higher") == (b[NR] > a[NR])) wins++; else losses++
                }
            }
            END {
                sorted(a, NR); sorted(b, NR)
                parent = quantile(a, NR, 0.5); change = quantile(b, NR, 0.5)
                spread = quantile(a, NR, 0.75) - quantile(a, NR, 0.25)
                moved = change > parent ? change - parent : parent - change
                gained = (better == "higher") == (change > parent)
                if (moved > bound * parent && (gained ? wins : losses) >= 0.9 * NR)
                    verdict = gained ? "better" : "worse"
                else if (moved <= spread && spread <= bound * parent)
                    verdict = "unchanged"
                else
                    verdict = "unresolved"
                printf "%-15s %-13s parent %-34s change %-34s %+7.1f%%  won %d lost %d  (%s is better, bound %g%%)  %s\n",
                    w, metric, summary(a, NR), summary(b, NR),
                    (parent ? change / parent - 1 : 0) * 100, wins, losses, better, bound * 100, verdict
            }'
    done <<<"$metrics"
done | tee "$work/verdicts"
status=0
if grep -q ' worse$' "$work/verdicts"; then status=1; fi
for w in "${workloads[@]}"; do
    for name in parent change; do
        awk -v w="$w" -v name="$name" '{ failed += $1; correct += ($2 == "true") }
            END { printf "%-15s %-6s failed %d  correct %d/%d\n", w, name, failed, correct, NR }' \
            "$work/$w.verdict.$name"
    done | tee "$work/$w.tally"
    # failed must not rise and correct must not fall: fields 4 and 6 of
    # the parent line, then of the change line
    awk '{ split($6, c, "/"); f[NR] = $4; ok[NR] = c[1] } END { exit !(f[2] > f[1] || ok[2] < ok[1]) }' \
        "$work/$w.tally" && status=1
done
exit "$status"
