#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark in release mode and
# runs it; every argument goes to the program (see src/main.rs):
#
#   benchmark/run.sh                   all seven workloads, untraced then traced
#   benchmark/run.sh --smoke           the same, one short window each (< 15 s)
#   benchmark/run.sh --repeat 2        twice; fails if the second set is worse by more than a bound
#   benchmark/run.sh --workload sync_call --seed 7 --seconds 10 --trace 0
#                                      one run; last line of stdout is the result
#
# Run it from anywhere; it works from the root of the checkout, and reads
# and writes nothing outside it (build output goes to $CARGO_TARGET_DIR,
# else benchmark/target; results and spans to benchmark/out).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
# Cargo's progress goes to stderr; stdout stays the program's alone.
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/secmod_benchmark" "$@"
