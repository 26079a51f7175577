//! Ablation: **stride detection schemes** (§3.2 / §6). The paper's §3.2
//! first describes the "simplest stride prefetching scheme" — prefetch as
//! soon as two accesses from one load instruction form a stride, with no
//! confirmation and no shut-off — and notes its drawback: useless
//! prefetches whenever a load's addresses do not actually form a
//! sequence. The Baer–Chen FSM (with its `no-pref` state) was chosen in
//! the paper precisely because it keeps useless prefetches low (§6, citing
//! the companion report DT-191).
//!
//! This binary measures that choice: the simple scheme vs. the FSM vs.
//! D-detection, on all six applications.
//!
//! Usage: `cargo run -p pfsim-bench --bin ablation_detection --release`

use pfsim_analysis::{compare, TextTable};
use pfsim_bench::cli::{Args, SIZE_FLAGS};
use pfsim_bench::ExperimentSpec;
use pfsim_prefetch::Scheme;
use pfsim_workloads::App;

fn main() {
    let run = ExperimentSpec::new("ablation_detection")
        .size(Args::parse("ablation_detection", SIZE_FLAGS).size)
        .apps(App::ALL)
        .baseline_and(&[
            Scheme::SimpleStride { degree: 1 },
            Scheme::IDetection { degree: 1 },
            Scheme::DDetection { degree: 1 },
        ])
        .run();

    let mut misses = TextTable::new(headers());
    let mut eff = TextTable::new(headers());
    let mut traffic = TextTable::new(headers());

    for (app, cells) in run.apps.iter().zip(run.by_app()) {
        let (base_cell, scheme_cells) = cells.split_first().expect("baseline present");
        let base = base_cell.result.run_metrics();
        let mut rows = [
            vec![app.name().to_string()],
            vec![app.name().to_string()],
            vec![app.name().to_string()],
        ];
        for cell in scheme_cells {
            let c = compare(&base, &cell.result.run_metrics());
            rows[0].push(format!("{:.2}", c.relative_misses));
            rows[1].push(format!("{:.2}", c.efficiency));
            rows[2].push(format!("{:.2}", c.relative_traffic));
        }
        let [r0, r1, r2] = rows;
        misses.row(r0);
        eff.row(r1);
        traffic.row(r2);
    }

    println!("Detection-scheme ablation: read misses relative to baseline");
    println!("{}", misses.render());
    println!("Prefetch efficiency (the FSM's no-pref state is the difference)");
    println!("{}", eff.render());
    println!("Network traffic relative to baseline");
    println!("{}", traffic.render());
    println!("Expectation (§3.2/§6): the simple scheme detects the same strides");
    println!("(similar miss reductions on the stride applications) but issues");
    println!("many useless prefetches on MP3D and PTHOR, where the same loads");
    println!("produce non-stride address pairs.");

    let manifest = run.write_manifest().expect("write run manifest");
    eprintln!("manifest: {}", manifest.display());
}

fn headers() -> Vec<String> {
    vec!["".into(), "Simple".into(), "I-det".into(), "D-det".into()]
}
