//! Ablation: **memory consistency model** (§1 premise). The paper opens
//! by noting that "the latency of write accesses can easily be hidden by
//! appropriate write buffers and relaxed memory consistency models", which
//! is why its prefetching study targets *read* misses only. This binary
//! measures that premise: each application under release consistency (the
//! paper's model) vs. sequential consistency (every write stalls), with
//! and without sequential prefetching.
//!
//! Usage: `cargo run -p pfsim-bench --bin ablation_consistency --release`

use pfsim::{ConsistencyModel, SystemConfig};
use pfsim_analysis::TextTable;
use pfsim_bench::cli::{Args, SIZE_FLAGS};
use pfsim_bench::ExperimentSpec;
use pfsim_prefetch::Scheme;
use pfsim_workloads::App;

fn main() {
    let variant = |consistency, scheme| {
        SystemConfig::builder()
            .consistency(consistency)
            .scheme(scheme)
            .build()
    };
    let run = ExperimentSpec::new("ablation_consistency")
        .size(Args::parse("ablation_consistency", SIZE_FLAGS).size)
        .apps(App::ALL)
        .variant("RC", variant(ConsistencyModel::Release, Scheme::None))
        .variant("SC", variant(ConsistencyModel::Sequential, Scheme::None))
        .variant(
            "RC+Seq",
            variant(ConsistencyModel::Release, Scheme::Sequential { degree: 1 }),
        )
        .variant(
            "SC+Seq",
            variant(
                ConsistencyModel::Sequential,
                Scheme::Sequential { degree: 1 },
            ),
        )
        .run();

    let mut table = TextTable::new(vec![
        "".into(),
        "RC exec".into(),
        "SC exec".into(),
        "SC/RC".into(),
        "SC write stall %".into(),
        "Seq gain (RC)".into(),
        "Seq gain (SC)".into(),
    ]);

    for (app, cells) in run.apps.iter().zip(run.by_app()) {
        let [rc_cell, sc_cell, rc_seq_cell, sc_seq_cell] = cells else {
            unreachable!()
        };
        let rc = rc_cell.result.run_metrics();
        let sc = sc_cell.result.run_metrics();
        let write_stall = sc_cell.result.total(|n| n.write_stall);
        let rc_seq = rc_seq_cell.result.run_metrics();
        let sc_seq = sc_seq_cell.result.run_metrics();
        table.row(vec![
            app.name().into(),
            format!("{}", rc.exec_cycles),
            format!("{}", sc.exec_cycles),
            format!("{:.2}", sc.exec_cycles as f64 / rc.exec_cycles as f64),
            format!(
                "{:.0}%",
                100.0 * write_stall as f64 / (16 * sc.exec_cycles) as f64
            ),
            format!("{:.2}", rc_seq.exec_cycles as f64 / rc.exec_cycles as f64),
            format!("{:.2}", sc_seq.exec_cycles as f64 / sc.exec_cycles as f64),
        ]);
    }

    println!("Consistency-model ablation (exec time in pclocks; gain = relative exec)");
    println!("{}", table.render());
    println!("Expectation (§1): release consistency hides write latency, so SC/RC");
    println!("exceeds 1.0 everywhere and read prefetching is the remaining lever.");

    let manifest = run.write_manifest().expect("write run manifest");
    eprintln!("manifest: {}", manifest.display());
}
