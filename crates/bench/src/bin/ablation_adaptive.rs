//! Ablation: **adaptive sequential prefetching** (§6 future work). The
//! paper's stated weakness of plain sequential prefetching is its useless
//! prefetches in low-locality phases; Dahlgren, Dubois & Stenström's
//! adaptive mechanism throttles the degree down (to zero) when prefetches
//! go unused and raises it when they pay off. This binary compares fixed
//! d = 1 sequential prefetching with the adaptive variant on all six
//! applications.
//!
//! Usage: `cargo run -p pfsim-bench --bin ablation_adaptive --release`

use pfsim_analysis::{compare, TextTable};
use pfsim_bench::cli::{Args, SIZE_FLAGS};
use pfsim_bench::ExperimentSpec;
use pfsim_prefetch::Scheme;
use pfsim_workloads::App;

fn main() {
    let run = ExperimentSpec::new("ablation_adaptive")
        .size(Args::parse("ablation_adaptive", SIZE_FLAGS).size)
        .apps(App::ALL)
        .baseline_and(&[
            Scheme::Sequential { degree: 1 },
            Scheme::AdaptiveSequential {
                initial_degree: 1,
                max_degree: 8,
            },
            // Hagersten's adaptive lookahead on the D-detection scheme (§6).
            Scheme::DDetectionAdaptive {
                degree: 1,
                max_depth: 8,
            },
        ])
        .run();

    let mut table = TextTable::new(vec![
        "".into(),
        "Seq misses".into(),
        "Seq eff".into(),
        "Seq traffic".into(),
        "Adapt misses".into(),
        "Adapt eff".into(),
        "Adapt traffic".into(),
        "Ddet-ad misses".into(),
        "Ddet-ad stall".into(),
    ]);

    for (app, cells) in run.apps.iter().zip(run.by_app()) {
        let [base_cell, seq_cell, adapt_cell, dda_cell] = cells else {
            unreachable!()
        };
        let base = base_cell.result.run_metrics();
        let mut row = vec![app.name().to_string()];
        for cell in [seq_cell, adapt_cell] {
            let c = compare(&base, &cell.result.run_metrics());
            row.push(format!("{:.2}", c.relative_misses));
            row.push(format!("{:.2}", c.efficiency));
            row.push(format!("{:.2}", c.relative_traffic));
        }
        let c = compare(&base, &dda_cell.result.run_metrics());
        row.push(format!("{:.2}", c.relative_misses));
        row.push(format!("{:.2}", c.relative_stall));
        table.row(row);
    }
    println!("Adaptive vs fixed sequential prefetching (relative to baseline)");
    println!("{}", table.render());
    println!("Expectation: the adaptive scheme recovers most of fixed-Seq's miss");
    println!("reduction while cutting the useless-prefetch traffic on the");
    println!("low-locality applications (MP3D, Ocean, PTHOR).");

    let manifest = run.write_manifest().expect("write run manifest");
    eprintln!("manifest: {}", manifest.display());
}
