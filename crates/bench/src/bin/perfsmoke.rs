//! A fixed-size performance smoke test for the simulator core.
//!
//! Runs a Figure-6 workload matrix (every application, baseline plus the
//! three degree-1 prefetching schemes) cell-serially through the
//! [`ExperimentSpec`] runner and reports, separately:
//!
//! * **trace generation time** — each application's packed trace is
//!   generated exactly once (the per-process trace cache) and shared by
//!   all four of its runs;
//! * **simulation time** — the 24 replay runs through `TraceCursor`s;
//! * **resident bytes per trace operation** of the packed encoding.
//!
//! Throughput (simulated pclocks per wall-clock second, generation
//! included) is recorded under a label in the grid's ledger:
//! `BENCH_PR1.json` for the default-size grid, `BENCH_PR6.json` for the
//! `--large` grid (where the event kernel dominates), `BENCH_PR7.json`
//! for the warmed large grid the `--checkpoint` benchmark sweeps; the
//! like-for-like packed-grid measurements live in `BENCH_PR2.json`.
//!
//! Usage:
//! `cargo run -p pfsim-bench --bin perfsmoke --release -- [--label NAME]
//! [--grid NAME] [--large] [--checkpoint] [--trend]
//! [--check] [--spec PATH]`
//!
//! * `--label NAME` records the run in the grid's throughput ledger
//!   (conventional labels: `seed`, `optimized`, `ci`).
//! * `--grid NAME` records the run (with the generation/simulation split
//!   and bytes/op) in BENCH_PR2.json.
//! * `--large` runs the large-size grid (ledger: BENCH_PR6.json,
//!   manifest: `perfsmoke-large`).
//! * `--checkpoint` runs the warmup-checkpoint benchmark instead: the
//!   large grid with a 3M-pclock warmup boundary, swept straight-through
//!   and again forking every cell from shared checkpoints. The two totals
//!   must be bit-identical; both arms plus the unwarmed serial sweep are
//!   recorded in BENCH_PR7.json.
//! * `--trend` prints the pclocks/sec trajectory of every `BENCH_*.json`
//!   ledger and exits without simulating anything.
//! * `--spec PATH` runs the wire-format `ExperimentSpec` (schema v3 JSON,
//!   the same document `pfsim-client submit` sends) instead of the
//!   built-in grid, writes its manifest, and skips the ledgers.
//! * `--check` exits nonzero unless this run's total pclocks match the
//!   ledger's recorded `seed` total (replay determinism — for a grid
//!   whose ledger has no seed entry yet, the comparison is skipped with
//!   a once-per-process notice naming the ledger instead of failing),
//!   the packed encoding stays within its bytes/op budget, and the JSON
//!   run manifest this run just emitted validates and agrees on the
//!   total.

use pfsim::{System, SystemConfig};
use pfsim_analysis::Json;
use pfsim_bench::cli::{Args, PERFSMOKE_FLAGS};
use pfsim_bench::ledger::{update_ledger, Ledger, MissingSeedNotice, SeedCheck};
use pfsim_bench::spec::wire::WireSpec;
use pfsim_bench::{validate_manifest, ExperimentRun, ExperimentSpec, Size};
use pfsim_prefetch::Scheme;
use pfsim_workloads::App;

/// The packed encoding's budget from the trace-subsystem design: a
/// narrow read is 9 bytes, so the app mix must stay under 10.
const BYTES_PER_OP_BUDGET: f64 = 10.0;

/// Warmup boundary for the `--checkpoint` benchmark: deep enough to
/// matter on the apps that dominate the large grid's wall-clock (LU ~20M,
/// Water ~8M, Cholesky ~6M pclocks per cell), past the end of the three
/// short apps (whose cells complete inside the scheme-free prefix — noted
/// in the BENCH_PR7.json annotation).
const CHECKPOINT_WARMUP: u64 = 3_000_000;

fn repo_file(name: &str) -> String {
    format!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../{}"), name)
}

fn main() {
    let args = Args::parse("perfsmoke", PERFSMOKE_FLAGS);

    if args.trend {
        print_trend();
        return;
    }
    if let Some(path) = &args.spec {
        run_wire_spec(path, args.check);
        return;
    }
    if args.checkpoint {
        run_checkpoint_bench(args.check);
        return;
    }

    // The throughput ledger is per grid: the default-size anchor lives
    // in BENCH_PR1.json, the large grid's trend in BENCH_PR6.json (the
    // paper-size grid has no ledger yet; its seed check reads Missing
    // and is tolerated with the once-per-process notice).
    let ledger_path = repo_file(match args.size {
        Size::Default => "BENCH_PR1.json",
        Size::Large => "BENCH_PR6.json",
        Size::Paper => "BENCH_PAPER.json",
    });
    warm_allocator();

    // The 24-cell grid: cell-serial (stable single-threaded timing) and
    // quiet (the point is the totals, not 24 progress lines).
    let run = ExperimentSpec::new(match args.size {
        Size::Default => "perfsmoke",
        Size::Paper => "perfsmoke-paper",
        Size::Large => "perfsmoke-large",
    })
    .size(args.size)
    .apps(App::ALL)
    .baseline_and(&[
        Scheme::IDetection { degree: 1 },
        Scheme::DDetection { degree: 1 },
        Scheme::Sequential { degree: 1 },
    ])
    .serial()
    .quiet()
    .run();

    let gen_seconds = run.gen_seconds;
    let sim_seconds = run.sim_seconds;
    let total_ops: u64 = run.traces.iter().map(|t| t.ops).sum();
    let total_bytes: u64 = run.traces.iter().map(|t| t.packed_bytes).sum();
    let bytes_per_op = total_bytes as f64 / total_ops as f64;

    println!(
        "trace generation: {total_ops} ops in {gen_seconds:.3}s, packed {:.1} KB = {bytes_per_op:.2} bytes/op",
        total_bytes as f64 / 1024.0
    );
    for t in &run.traces {
        println!(
            "  {:10} {:>8} ops, {:.2} bytes/op",
            t.app.name(),
            t.ops,
            t.bytes_per_op
        );
    }

    let pclocks = run.total_pclocks();
    let seconds = gen_seconds + sim_seconds;
    let rate = pclocks as f64 / seconds;

    println!("simulation: {pclocks} pclocks in {sim_seconds:.2}s");
    println!(
        "perfsmoke [{}]: {pclocks} pclocks in {seconds:.2}s = {rate:.0} pclocks/sec (gen {gen_seconds:.2}s + sim {sim_seconds:.2}s)",
        args.label.as_deref().unwrap_or("unrecorded")
    );

    if let Some(label) = &args.label {
        let ledger = update_ledger(
            &ledger_path,
            label,
            ledger_entry(pclocks, seconds, rate, &[]),
        );
        if let (Some(seed), Some(now)) = (ledger.rate_of("seed"), ledger.rate_of(label)) {
            if label != "seed" {
                println!("speedup vs seed: {:.2}x", now / seed);
            }
        }
        println!("ledger: {ledger_path}");
    }

    if let Some(label) = &args.grid {
        let path = repo_file("BENCH_PR2.json");
        update_ledger(
            &path,
            label,
            ledger_entry(
                pclocks,
                seconds,
                rate,
                &[
                    ("gen_seconds", Json::Float(round3(gen_seconds))),
                    ("sim_seconds", Json::Float(round3(sim_seconds))),
                    ("bytes_per_op", Json::Float(round2(bytes_per_op))),
                ],
            ),
        );
        println!("grid ledger: {path}");
    }

    let manifest = run.write_manifest().expect("write run manifest");
    eprintln!("manifest: {}", manifest.display());

    if args.check {
        let mut notice = MissingSeedNotice::default();
        check_seed_or_exit(&ledger_path, pclocks, &mut notice);
        if bytes_per_op > BYTES_PER_OP_BUDGET {
            eprintln!(
                "check FAILED: packed encoding costs {bytes_per_op:.2} bytes/op (> {BYTES_PER_OP_BUDGET})"
            );
            std::process::exit(1);
        }
        let parsed = match validate_manifest(&manifest) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("check FAILED: manifest {}: {e}", manifest.display());
                std::process::exit(1);
            }
        };
        if parsed.total_pclocks != pclocks {
            eprintln!(
                "check FAILED: manifest records {} pclocks but this run simulated {pclocks}",
                parsed.total_pclocks
            );
            std::process::exit(1);
        }
        println!(
            "check OK: {pclocks} pclocks, manifest validates ({} cells), {bytes_per_op:.2} bytes/op <= {BYTES_PER_OP_BUDGET}",
            parsed.cells.len()
        );
    }
}

/// A run entry for the throughput ledgers, plus any grid-specific extras
/// (inserted before the rate so the key order matches the ledger files).
fn ledger_entry(pclocks: u64, seconds: f64, rate: f64, extras: &[(&str, Json)]) -> Json {
    let mut members = vec![
        ("pclocks", Json::uint(pclocks)),
        ("seconds", Json::Float(round3(seconds))),
    ];
    for (k, v) in extras {
        members.push((k, v.clone()));
    }
    members.push(("pclocks_per_sec", Json::uint(rate.round() as u64)));
    Json::obj(members)
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// One small untimed run to warm the allocator and code caches.
fn warm_allocator() {
    let _ = System::new(
        SystemConfig::paper_baseline(),
        pfsim_workloads::micro::sequential_walk(16, 64, 1),
    )
    .run();
}

/// Compares `pclocks` against the seed entry of the ledger at `path`:
/// exits the process on a mismatch, tolerates a missing seed with a
/// once-per-process notice, and prints the match otherwise.
fn check_seed_or_exit(path: &str, pclocks: u64, notice: &mut MissingSeedNotice) {
    match Ledger::read(path).seed_check(pclocks) {
        SeedCheck::Missing => {
            if let Some(line) = notice.tolerate(path) {
                println!("{line}");
            }
        }
        SeedCheck::Mismatch { expected, got } => {
            eprintln!(
                "check FAILED: grid simulated {got} pclocks but the seed entry of {path} records {expected}"
            );
            std::process::exit(1);
        }
        SeedCheck::Match(expected) => {
            println!("check: pclock total matches the seed entry of {path} ({expected})");
        }
    }
}

/// `--spec PATH`: runs a wire-format spec — the offline twin of a
/// `pfsim-serve` submission, sharing the same parse/validate layer.
fn run_wire_spec(path: &str, check: bool) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    });
    let wire = WireSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    });
    let run = wire.to_experiment_spec().serial().run();
    let pclocks = run.total_pclocks();
    println!(
        "spec {}: {} cells, {pclocks} pclocks in {:.2}s",
        wire.name,
        run.cells.len(),
        run.gen_seconds + run.sim_seconds
    );
    let manifest = run.write_manifest().expect("write run manifest");
    println!("manifest: {}", manifest.display());
    if check {
        let parsed = validate_manifest(&manifest).unwrap_or_else(|e| {
            eprintln!("check FAILED: manifest {}: {e}", manifest.display());
            std::process::exit(1);
        });
        assert_eq!(parsed.total_pclocks, pclocks);
        println!(
            "check OK: manifest validates ({} cells)",
            parsed.cells.len()
        );
    }
}

/// The warmup-checkpoint benchmark (`--checkpoint`): three serial sweeps
/// of the large grid, recorded in BENCH_PR7.json.
///
/// 1. `serial` — the unwarmed grid, pinned to the BENCH_PR6.json seed
///    total (the layout-optimization arm: same sweep PR 6 measured).
/// 2. `checkpoint_straight` — a 3M-pclock scheme-free warmup prefix
///    simulated from cold in every cell.
/// 3. `checkpointed` — the same warmed grid, but the cells of each app
///    fork from one shared checkpoint of the warm prefix.
///
/// Arms 2 and 3 must produce bit-identical pclock totals (the checkpoint
/// contract); the wall-clock ratio between them is the checkpointing win
/// on identical simulated work.
fn run_checkpoint_bench(check: bool) {
    let pr7 = repo_file("BENCH_PR7.json");
    let pr6 = repo_file("BENCH_PR6.json");
    warm_allocator();

    let warmed = |name: &'static str, share: bool| {
        let mut spec = ExperimentSpec::new(name)
            .size(Size::Large)
            .apps(App::ALL)
            .baseline_and(&[
                Scheme::IDetection { degree: 1 },
                Scheme::DDetection { degree: 1 },
                Scheme::Sequential { degree: 1 },
            ])
            .warmup(CHECKPOINT_WARMUP)
            .serial()
            .quiet();
        if !share {
            spec = spec.warmup_straight();
        }
        spec.run()
    };

    let record = |run: &ExperimentRun, label: &str| {
        let pclocks = run.total_pclocks();
        let seconds = run.gen_seconds + run.sim_seconds;
        let rate = pclocks as f64 / seconds;
        println!("{label}: {pclocks} pclocks in {seconds:.2}s = {rate:.0} pclocks/sec");
        update_ledger(&pr7, label, ledger_entry(pclocks, seconds, rate, &[]));
        rate
    };

    let serial = ExperimentSpec::new("perfsmoke-large")
        .size(Size::Large)
        .apps(App::ALL)
        .baseline_and(&[
            Scheme::IDetection { degree: 1 },
            Scheme::DDetection { degree: 1 },
            Scheme::Sequential { degree: 1 },
        ])
        .serial()
        .quiet()
        .run();
    let serial_rate = record(&serial, "serial");

    let straight = warmed("perfsmoke-ckpt-straight", false);
    let straight_rate = record(&straight, "checkpoint_straight");

    let shared = warmed("perfsmoke-ckpt", true);
    let shared_rate = record(&shared, "checkpointed");

    assert_eq!(
        straight.total_pclocks(),
        shared.total_pclocks(),
        "checkpointed sweep diverged from the straight-through warmed sweep"
    );
    for (s, c) in straight.cells.iter().zip(&shared.cells) {
        assert_eq!(
            s.result.exec_cycles, c.result.exec_cycles,
            "{} cell diverged between straight and checkpointed warmup",
            s.app
        );
    }
    println!(
        "bit-identity: warmed grid total {} reproduced straight-through and checkpointed",
        shared.total_pclocks()
    );
    println!(
        "checkpointed vs straight-through: {:.2}x   checkpointed vs serial sweep: {:.2}x",
        shared_rate / straight_rate,
        shared_rate / serial_rate
    );
    println!("ledger: {pr7}");

    if check {
        let mut notice = MissingSeedNotice::default();
        // The unwarmed arm is the same sweep the large grid always runs:
        // it must reproduce the BENCH_PR6.json anchor exactly.
        check_seed_or_exit(&pr6, serial.total_pclocks(), &mut notice);
        // The warmed total anchors in this benchmark's own ledger (missing
        // until the grid's seed entry is recorded — tolerated with the
        // warn-once notice).
        check_seed_or_exit(&pr7, shared.total_pclocks(), &mut notice);
        println!("check OK: both sweeps match their ledger anchors");
    }
}

/// `--trend`: the pclocks/sec trajectory of every BENCH_*.json ledger,
/// in ledger order, with each entry's speedup over that grid's seed.
fn print_trend() {
    let root = repo_file("");
    let mut ledgers: Vec<String> = std::fs::read_dir(&root)
        .expect("read repo root")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    ledgers.sort();
    for name in ledgers {
        let ledger = Ledger::read(&format!("{root}{name}"));
        println!("{name}");
        let seed = ledger.rate_of("seed");
        for label in ledger.labels() {
            let (Some(rate), Some(pclocks)) = (ledger.rate_of(label), ledger.pclocks_of(label))
            else {
                continue;
            };
            let vs_seed = match seed {
                Some(s) if s > 0.0 => format!("  {:>5.2}x vs seed", rate / s),
                _ => String::new(),
            };
            println!("  {label:<22} {rate:>12.0} pclocks/sec  ({pclocks} pclocks){vs_seed}");
        }
    }
}
