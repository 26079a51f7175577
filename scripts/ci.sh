#!/usr/bin/env bash
# The full local CI gate: formatting, clippy (which carries the code
# invariants: see DESIGN.md §11), docs, release build, test suites, the
# benchmark crate, every paper table against results/, and one
# pfsim-benchmark pass per workload. Run from anywhere inside the repo.
#
# Usage: scripts/ci.sh [--no-perf]
#
#   --no-perf   skip the pfsim-benchmark passes (the functional gates still
#               run; useful on loaded machines where wall-clock numbers are
#               meaningless)

set -euo pipefail
cd "$(dirname "$0")/.."

run_perf=1
if [[ "${1:-}" == "--no-perf" ]]; then
    run_perf=0
fi

echo "==> one CLI parser: binaries parse flags only through pfsim_bench::cli"
# Every bench/serve binary must go through cli::Args so flags and error
# messages stay identical across all of them; direct env::args access
# outside the parser is the regression this guards against.
if grep -rn 'env::args' crates/bench/src crates/serve/src | grep -v 'crates/bench/src/cli.rs'; then
    echo "error: direct env::args access outside pfsim_bench::cli" >&2
    echo "       (parse flags with cli::Args::parse so all binaries speak one CLI)" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors)"
# Not skippable: clippy.toml's type and method bans (hash maps, wall
# clock, threads), the hot-path panic denials and the workspace
# `#[expect]` discipline are determinism invariants, not style.
if ! cargo clippy --version >/dev/null 2>&1; then
    echo "error: cargo clippy is not installed; it carries the code invariants" >&2
    exit 1
fi
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (warnings are errors)"
# Broken or private intra-doc links fail here, including links to items a
# change deletes.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test"
cargo test -q --workspace --offline

echo "==> benchmark crate (builds benchmark/, including its CheckSink; runs its tests)"
# benchmark/ is a workspace of its own, so the stages above never compile
# it. Its traced pipeline implements CheckSink against the simulator API.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "==> packed-trace replay (cross-thread decode, bytes/op budget)"
cargo test -q -p pfsim-bench --release --offline --test packed_replay

echo "==> consistency litmus suite (all schemes x baseline/small-cache)"
cargo test -q -p pfsim-check --release --offline --test litmus

echo "==> modern-family oracle suite (chase/mstride/server x all schemes)"
# One scaled-down cell per modern workload family under every prefetching
# scheme with the oracle judging every load, plus the pinned CHASE
# fuzz-seed set.
cargo test -q -p pfsim-check --release --offline --test families

echo "==> pfsim-fuzz --smoke (200 seeded random traces, oracle on)"
./target/release/pfsim-fuzz --smoke

echo "==> warmup-checkpoint determinism gate (snapshot/restore bit-identity)"
# Round-trip equals straight-through — pclock total, per-node stats,
# metrics snapshot, oracle hook stream — across the scheme matrix, plus
# the restore-under-check litmus cell. PFSIM_CHECK=1 makes the spec-level
# test fork a live oracle through every shared checkpoint.
PFSIM_CHECK=1 cargo test -q -p pfsim-bench --release --offline --test checkpoint

echo "==> big-mesh determinism gate (8x8 anchors, checkpoint)"
# The 64-node machine's pinned per-family pclock anchors and an 8x8
# checkpoint round-trip. PFSIM_CHECK=1 forks a live consistency oracle
# through every cell of the spec-level grid, which must stay
# pclock-neutral.
PFSIM_CHECK=1 cargo test -q -p pfsim-bench --release --offline --test bigmesh

echo "==> paper tables: every experiment binary reproduces its results/ file"
# Each table, figure and ablation binary at the default size must print
# its tracked output byte for byte (results/<bin>_default.txt, else
# results/<bin>.txt). workload_char also re-reads and validates the
# manifest it writes, which checks manifest discipline on the big-mesh
# grid. Manifests go to a temp directory, not results/, and a binary's
# progress lines on stderr are shown only if it fails.
tables_dir=$(mktemp -d)
for bin in table2 table3 table4 figure6 \
    ablation_adaptive ablation_block ablation_consistency \
    ablation_degree ablation_detection ablation_slc \
    workload_char workload_table; do
    want=results/${bin}_default.txt
    [[ -f "$want" ]] || want=results/$bin.txt
    PFSIM_RESULTS_DIR="$tables_dir" "./target/release/$bin" \
        >"$tables_dir/$bin.txt" 2>"$tables_dir/$bin.err" \
        || { cat "$tables_dir/$bin.err" >&2; exit 1; }
    cmp "$tables_dir/$bin.txt" "$want" \
        || { echo "error: $bin output differs from $want" >&2
             diff "$want" "$tables_dir/$bin.txt" >&2 || true; exit 1; }
done
rm -rf "$tables_dir"

# The Figure-6 grid as a wire spec (6 apps x baseline, I-det, D-det and
# Seq at degree 1 on the paper's machine) and its pinned pclock total.
# The oracle and serve stages both run it.
fig6_spec=scripts/fig6-default.json
fig6_pclocks=14059066

echo "==> perfsmoke --spec under PFSIM_CHECK=1 (oracle on every fig6-default cell)"
# The oracle's hooks are read-only: the checked run must reproduce the
# grid's anchor total, or checking is perturbing the simulation. --check
# also validates the manifest and its total against the run.
oracle_dir=$(mktemp -d)
PFSIM_CHECK=1 PFSIM_RESULTS_DIR="$oracle_dir" \
    ./target/release/perfsmoke --spec "$fig6_spec" --check
grep -q "\"total_pclocks\": $fig6_pclocks" "$oracle_dir/fig6-default.json" \
    || { echo "error: oracle-on manifest total diverged from $fig6_pclocks" >&2; exit 1; }
rm -rf "$oracle_dir"

echo "==> pfsim-serve end-to-end (submit, cache replay, graceful drain)"
# Boots the service on an ephemeral port, submits the 24-cell anchor
# grid twice through pfsim-client, and checks the whole service
# contract: the manifest validates and carries the grid's anchor total,
# the replay is answered 100% from the result cache with byte-identical
# manifest bytes, and SIGTERM drains cleanly.
serve_dir=$(mktemp -d)
./target/release/pfsim-serve --port 0 --port-file "$serve_dir/port" \
    --results-dir "$serve_dir/results" --workers 1 >"$serve_dir/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    [[ -s "$serve_dir/port" ]] && break
    sleep 0.1
done
[[ -s "$serve_dir/port" ]] || { cat "$serve_dir/serve.log" >&2; exit 1; }
serve_port=$(cat "$serve_dir/port")
./target/release/pfsim-client --port "$serve_port" submit "$fig6_spec" \
    --out "$serve_dir/first.json" > "$serve_dir/first.log"
./target/release/pfsim-client --port "$serve_port" submit "$fig6_spec" \
    --out "$serve_dir/second.json" > "$serve_dir/second.log"
grep -q "\"total_pclocks\": $fig6_pclocks" "$serve_dir/first.json" \
    || { echo "error: serve manifest total diverged from $fig6_pclocks" >&2; exit 1; }
cmp "$serve_dir/first.json" "$serve_dir/second.json" \
    || { echo "error: cache replay manifest is not byte-identical" >&2; exit 1; }
grep -q '(24 cache hits, 0 simulated)' "$serve_dir/second.log" \
    || { echo "error: replay was not answered entirely from the result cache" >&2
         cat "$serve_dir/second.log" >&2; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" \
    || { echo "error: pfsim-serve did not drain cleanly on SIGTERM" >&2; exit 1; }
grep -q 'drained' "$serve_dir/serve.log" \
    || { echo "error: drain never logged" >&2; cat "$serve_dir/serve.log" >&2; exit 1; }
rm -rf "$serve_dir"

if [[ "$run_perf" == 1 ]]; then
    echo "==> pfsim-benchmark: one pass per workload (84 cell anchors)"
    # A run exits 1 if any cell misses its pinned pclock anchor
    # (benchmark/src/grid.rs) or fails a check; a pass also validates its
    # manifest and compares the manifest's total with the run's. These
    # passes gate the fig6-default (14059066) and fig6-large (151368054)
    # totals, the 8x8 families (3363151) and the finite-SLC grid
    # (17725835). fig6-large's peak RSS, which its packed traces dominate,
    # must also stay at or under 350 MB: it measures about 300 MB, and
    # measured 519 MB when a memory op took 9 bytes instead of 4.
    fig6_large_rss_mb=350
    for workload in fig6-default fig6-large families-8x8 fig6-finite16k; do
        out=$(cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 1 --trace 0) \
            || { echo "$out"; exit 1; }
        echo "$out"
        if [[ "$workload" == fig6-large ]]; then
            rss=$(tail -n 1 <<<"$out" | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/p')
            awk -v rss="$rss" -v cap="$fig6_large_rss_mb" 'BEGIN { exit !(rss != "" && rss <= cap) }' \
                || { echo "error: fig6-large peak_rss_mb '$rss' exceeds $fig6_large_rss_mb MB" >&2; exit 1; }
        fi
    done
fi

echo "==> CI gate passed"
