#!/usr/bin/env bash
# A/B timing of the working tree against a git revision with
# pfsim-benchmark: builds both sides, interleaves their runs of every
# BENCHMARK.json workload, and judges the change with --compare.
#
# Usage: scripts/ab.sh <rev> [pairs]
#
#   <rev>    the revision to compare against (usually the parent commit);
#            its benchmark/ and BENCHMARK.json must equal the working
#            tree's, so both sides run identical benchmark code (exit 2
#            otherwise)
#   pairs    runs per side and workload (default 10)
#
# Pair i runs each workload once per side with --seed i, for run_seconds
# (BENCHMARK.json); the revision goes first on odd i and the working tree
# first on even i. Any failed run (a missed anchor or a failed check)
# aborts. Writes results/ab-parent.json and results/ab-change.json, prints
# the --compare table and exits with its status: 0 when no metric of the
# change reads worse.

set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ab.sh <rev> [pairs]" >&2
    exit 2
}
[[ $# -ge 1 && $# -le 2 ]] || usage
rev=$1
pairs=${2:-10}
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
commit=$(git rev-parse --quiet --verify "$rev^{commit}") \
    || { echo "error: '$rev' is not a commit" >&2; exit 2; }
git diff --quiet "$commit" -- benchmark BENCHMARK.json \
    || { echo "error: benchmark/ or BENCHMARK.json differs from $rev;" \
              "both sides must run the same benchmark" >&2; exit 2; }

# The workload names and the seconds per run, from BENCHMARK.json.
spec=$(tr -d '\n' < BENCHMARK.json)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' <<<"$spec")
read -r -a workloads <<<"$(sed 's/.*"workloads": *\[\([^]]*\)\].*/\1/' <<<"$spec" \
    | grep -o '"name": *"[^"]*"' | sed 's/.*"\([^"]*\)"$/\1/' | tr '\n' ' ')"
[[ -n "$seconds" && ${#workloads[@]} -gt 0 ]] \
    || { echo "error: no run_seconds or workloads in BENCHMARK.json" >&2; exit 2; }

# The revision's tree, a clone under .bench_build/ for this run only, so
# the repository's own .git gains no worktree; the clone borrows its
# objects. The build output stays in .bench_build/ for the next run.
tree=.bench_build/ab-rev
rm -rf "$tree"
trap 'rm -rf "$tree"' EXIT
git clone --quiet --shared --no-checkout . "$tree"
git -C "$tree" checkout --quiet --detach "$commit"

echo "==> building pfsim-benchmark at $rev and in the working tree" >&2
cargo build --release --quiet --offline --manifest-path "$tree/benchmark/Cargo.toml" \
    --target-dir .bench_build/ab-rev-target
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml \
    --target-dir benchmark/target
parent_bin=$PWD/.bench_build/ab-rev-target/release/pfsim-benchmark
change_bin=$PWD/benchmark/target/release/pfsim-benchmark

# One run of one side, from that side's tree; prints the result line.
run() {
    local side=$1 workload=$2 seed=$3 bin dir out
    if [[ "$side" == parent ]]; then bin=$parent_bin dir=$tree; else bin=$change_bin dir=.; fi
    echo "[$side] $workload seed $seed" >&2
    out=$(cd "$dir" && "$bin" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) \
        || { echo "error: $side run of $workload (seed $seed) failed" >&2; exit 1; }
    tail -n 1 <<<"$out"
}

declare -A runs
for i in $(seq 1 "$pairs"); do
    if (( i % 2 )); then order=(parent change); else order=(change parent); fi
    for w in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            line=$(run "$side" "$w" "$i")
            runs[$side/$w]+="${runs[$side/$w]:+, }$line"
        done
    done
done

mkdir -p results
for side in parent change; do
    entries=()
    for w in "${workloads[@]}"; do
        entries+=("{\"name\": \"$w\", \"runs\": [${runs[$side/$w]}]}")
    done
    (IFS=,; echo "{\"workloads\": [${entries[*]}]}") > "results/ab-$side.json"
done
echo "==> $rev (A) vs working tree (B), $pairs pairs" >&2
"$change_bin" --compare results/ab-parent.json results/ab-change.json
