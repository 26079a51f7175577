//! Ablation: **degree of prefetching** (§6). The paper reports that for
//! its prefetching-phase mechanism there was "little difference between
//! different values of d", which is why the main evaluation fixes d = 1.
//! This binary sweeps d ∈ {1, 2, 4, 8} for both the I-detection and the
//! sequential scheme on three contrasting applications so the claim can be
//! checked — and so the LU hot-spot case (where a deeper lookahead hides
//! more of the pivot-column fetch latency) is visible.
//!
//! Usage: `cargo run -p pfsim-bench --bin ablation_degree --release`

use pfsim::SystemConfig;
use pfsim_analysis::{compare, TextTable};
use pfsim_bench::cli::{Args, SIZE_FLAGS};
use pfsim_bench::ExperimentSpec;
use pfsim_prefetch::Scheme;
use pfsim_workloads::App;

fn main() {
    let degrees = [1u32, 2, 4, 8];

    // Per app: 1 baseline + 8 scheme runs, all independent — the runner
    // fans the whole 27-cell grid out across cores.
    let mut spec = ExperimentSpec::new("ablation_degree")
        .size(Args::parse("ablation_degree", SIZE_FLAGS).size)
        .apps([App::Lu, App::Ocean, App::Mp3d])
        .variant("baseline", SystemConfig::paper_baseline());
    for d in degrees {
        for scheme in [
            Scheme::IDetection { degree: d },
            Scheme::Sequential { degree: d },
        ] {
            spec = spec.variant(
                scheme.to_string(),
                SystemConfig::builder().scheme(scheme).build(),
            );
        }
    }
    let run = spec.run();

    for (app, cells) in run.apps.iter().zip(run.by_app()) {
        let (base_cell, scheme_cells) = cells.split_first().expect("baseline present");
        let base = base_cell.result.run_metrics();
        let mut table = TextTable::new(vec![
            "d".into(),
            "I-det misses".into(),
            "I-det stall".into(),
            "I-det eff".into(),
            "Seq misses".into(),
            "Seq stall".into(),
            "Seq eff".into(),
        ]);
        for (d, pair) in degrees.into_iter().zip(scheme_cells.chunks(2)) {
            let mut row = vec![format!("{d}")];
            for cell in pair {
                let c = compare(&base, &cell.result.run_metrics());
                row.push(format!("{:.2}", c.relative_misses));
                row.push(format!("{:.2}", c.relative_stall));
                row.push(format!("{:.2}", c.efficiency));
            }
            table.row(row);
        }
        println!("Degree-of-prefetching sweep: {app} (relative to baseline)");
        println!("{}", table.render());
    }

    let manifest = run.write_manifest().expect("write run manifest");
    eprintln!("manifest: {}", manifest.display());
}
