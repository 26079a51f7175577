#!/usr/bin/env bash
# The full local CI gate: formatting, lints, release build, test suite,
# and the performance smoke test. Run from anywhere inside the repo.
#
# Usage: scripts/ci.sh [--no-perf]
#
#   --no-perf   skip the perfsmoke throughput measurement (the functional
#               gates still run; useful on loaded machines where wall-clock
#               numbers are meaningless)

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

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy (warnings are errors)"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> SKIPPED: cargo clippy is not installed on this toolchain"
fi

echo "==> pfsim-lint (token lints + call-graph S102; report -> results/lint.json)"
# The linter exits non-zero on any non-suppressed finding, and validates
# the JSON report it just wrote before exiting (manifest discipline).
# Each lint names a bug class the compiler and tests miss; S102 proves
# every CheckSink hook reachable from the kernel entry points over the
# workspace call graph. This stage runs BEFORE the build, so an oracle
# hook cut off from the kernel fails here first.
mkdir -p results
cargo run -q -p pfsim-lint --release --offline -- --json results/lint.json
grep -q '"schema": 2' results/lint.json \
    || { echo "FAIL: results/lint.json is not a schema-v2 report"; exit 1; }

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test"
cargo test -q --workspace --offline

echo "==> packed-trace replay determinism"
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

echo "==> workload characterization (Table 2 methodology on the modern families)"
# Characterizes CHASE/MSTRIDE/SERVER at 4x4, 8x8, and paper scale; the
# binary re-reads and validates the manifest it just wrote, so this
# stage doubles as a manifest-discipline check for the big-mesh grid.
./target/release/workload_char

echo "==> pfsim-serve end-to-end (submit, cache replay, graceful drain)"
# Boots the service on an ephemeral port, submits the 24-cell anchor
# grid twice through pfsim-client, and checks the whole service
# contract: the manifest validates and carries the BENCH_PR1 seed total
# (14059066), the replay is answered 100% from the result cache with
# byte-identical manifest bytes, and SIGTERM drains cleanly.
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
cat > "$serve_dir/spec.json" <<'SPEC'
{
  "wire_version": 3,
  "name": "ci-serve",
  "size": "default",
  "apps": ["MP3D", "Cholesky", "Water", "LU", "Ocean", "PTHOR"],
  "variants": [
    {"label": "baseline", "scheme": {"kind": "none"}, "config": {}},
    {"label": "I-det(d=1)", "scheme": {"kind": "i-detection", "degree": 1}, "config": {}},
    {"label": "D-det(d=1)", "scheme": {"kind": "d-detection", "degree": 1}, "config": {}},
    {"label": "Seq(d=1)", "scheme": {"kind": "sequential", "degree": 1}, "config": {}}
  ]
}
SPEC
./target/release/pfsim-client --port "$serve_port" submit "$serve_dir/spec.json" \
    --out "$serve_dir/first.json" > "$serve_dir/first.log"
./target/release/pfsim-client --port "$serve_port" submit "$serve_dir/spec.json" \
    --out "$serve_dir/second.json" > "$serve_dir/second.log"
grep -q '"total_pclocks": 14059066' "$serve_dir/first.json" \
    || { echo "error: serve manifest total diverged from the BENCH_PR1 seed" >&2; exit 1; }
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
    echo "==> perfsmoke (throughput + packed pclock/bytes-per-op + manifest validation)"
    # perfsmoke drives a 24-cell ExperimentSpec end-to-end; --check fails
    # unless the pclock total matches the ledger's seed entry AND the JSON
    # run manifest it just emitted parses, validates, and agrees. No
    # --label: CI reads the tracked ledgers' seed entries but never
    # rewrites them.
    ./target/release/perfsmoke --check

    echo "==> perfsmoke under PFSIM_CHECK=1 (oracle on every cell, pclock-neutral)"
    # The oracle's hooks are read-only: the checked run must reproduce the
    # exact same pclock total --check just validated, or checking is
    # perturbing the simulation.
    PFSIM_CHECK=1 ./target/release/perfsmoke --check

    echo "==> perfsmoke --large (event-kernel-bound grid; ledger BENCH_PR6.json)"
    # The large grid is where the event kernel dominates wall-clock;
    # --check pins its pclock total to the BENCH_PR6.json seed the same
    # way the default grid pins 14059066.
    ./target/release/perfsmoke --large --check
fi

echo "==> CI gate passed"
