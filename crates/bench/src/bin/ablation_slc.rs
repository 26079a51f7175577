//! Ablation: **finite SLC sweep** (§5.3 extension). The paper studies one
//! finite size (16 KB); this sweep runs the six applications at several
//! SLC capacities to show how replacement misses change the balance
//! between stride and sequential prefetching — replacement misses are
//! dominated by stride-1 sweeps, which both schemes (and especially
//! sequential prefetching) cover.
//!
//! Usage: `cargo run -p pfsim-bench --bin ablation_slc --release`

use pfsim::SystemConfig;
use pfsim_analysis::{compare, TextTable};
use pfsim_bench::cli::{Args, SIZE_FLAGS};
use pfsim_bench::ExperimentSpec;
use pfsim_prefetch::Scheme;
use pfsim_workloads::App;

fn main() {
    let capacities: [(u64, &str); 4] = [
        (8 * 1024, "8K"),
        (16 * 1024, "16K"),
        (64 * 1024, "64K"),
        (0, "inf"),
    ];
    let schemes = [
        Scheme::None,
        Scheme::IDetection { degree: 1 },
        Scheme::Sequential { degree: 1 },
    ];

    // Per app: 4 capacities × (baseline + 2 schemes) = 12 cells.
    let mut spec = ExperimentSpec::new("ablation_slc")
        .size(Args::parse("ablation_slc", SIZE_FLAGS).size)
        .apps(App::ALL);
    for (bytes, label) in capacities {
        for scheme in schemes {
            let cfg = SystemConfig::paper_baseline().with_scheme(scheme);
            let cfg = if bytes == 0 {
                cfg
            } else {
                cfg.with_finite_slc(bytes)
            };
            spec = spec.variant(format!("{label} {scheme}"), cfg);
        }
    }
    let run = spec.run();

    for (app, cells) in run.apps.iter().zip(run.by_app()) {
        let mut table = TextTable::new(vec![
            "SLC".into(),
            "baseline misses".into(),
            "repl %".into(),
            "I-det rel misses".into(),
            "Seq rel misses".into(),
        ]);
        for ((_, label), group) in capacities.into_iter().zip(cells.chunks(schemes.len())) {
            let (base_cell, scheme_cells) = group.split_first().expect("baseline present");
            let base = base_cell.result.run_metrics();
            let repl = base_cell.result.total(|n| n.replacement_misses);
            let mut row = vec![
                label.to_string(),
                format!("{}", base.read_misses),
                format!(
                    "{:.0}%",
                    100.0 * repl as f64 / base.read_misses.max(1) as f64
                ),
            ];
            for cell in scheme_cells {
                let c = compare(&base, &cell.result.run_metrics());
                row.push(format!("{:.2}", c.relative_misses));
            }
            table.row(row);
        }
        println!("Finite-SLC sweep: {app}");
        println!("{}", table.render());
    }

    let manifest = run.write_manifest().expect("write run manifest");
    eprintln!("manifest: {}", manifest.display());
}
