//! Regenerates **Figure 6** of the paper: for each of the six
//! applications, the three prefetching schemes (I-detection stride,
//! D-detection stride, sequential; all at degree *d* = 1) compared against
//! the baseline architecture on
//!
//! * (top) the number of read misses relative to the baseline,
//! * (middle) the prefetch efficiency, and
//! * (bottom) the read stall time relative to the baseline,
//!
//! plus the network traffic relative to the baseline (discussed in §5.2's
//! text: sequential prefetching's useless prefetches cost bandwidth).
//!
//! Usage: `cargo run -p pfsim-bench --bin figure6 --release [-- --paper]`

use pfsim_analysis::{compare, TextTable};
use pfsim_bench::cli::{Args, SIZE_FLAGS};
use pfsim_bench::ExperimentSpec;
use pfsim_prefetch::Scheme;
use pfsim_workloads::App;

fn main() {
    let run = ExperimentSpec::new("figure6")
        .size(Args::parse("figure6", SIZE_FLAGS).size)
        .apps(App::ALL)
        .baseline_and(&[
            Scheme::IDetection { degree: 1 },
            Scheme::DDetection { degree: 1 },
            Scheme::Sequential { degree: 1 },
        ])
        .run();

    let mut top = TextTable::new(headers());
    let mut middle = TextTable::new(headers());
    let mut bottom = TextTable::new(headers());
    let mut traffic = TextTable::new(headers());
    let mut exec = TextTable::new(headers());

    for (app, cells) in run.apps.iter().zip(run.by_app()) {
        let (base_cell, scheme_cells) = cells.split_first().expect("baseline present");
        let base = base_cell.result.run_metrics();
        let mut rows = [Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for row in &mut rows {
            row.push(app.name().to_string());
        }
        for cell in scheme_cells {
            let c = compare(&base, &cell.result.run_metrics());
            rows[0].push(format!("{:.2}", c.relative_misses));
            rows[1].push(format!("{:.2}", c.efficiency));
            rows[2].push(format!("{:.2}", c.relative_stall));
            rows[3].push(format!("{:.2}", c.relative_traffic));
            rows[4].push(format!("{:.2}", c.relative_exec));
        }
        let [r0, r1, r2, r3, r4] = rows;
        top.row(r0);
        middle.row(r1);
        bottom.row(r2);
        traffic.row(r3);
        exec.row(r4);
    }

    println!("Figure 6 (top): read misses relative to baseline (1.00 = baseline)");
    println!("{}", top.render());
    println!("Figure 6 (middle): prefetch efficiency (useful / issued)");
    println!("{}", middle.render());
    println!("Figure 6 (bottom): read stall time relative to baseline");
    println!("{}", bottom.render());
    println!("Network traffic (flits) relative to baseline (§5.2 discussion)");
    println!("{}", traffic.render());
    println!("Execution time relative to baseline (context)");
    println!("{}", exec.render());

    let manifest = run.write_manifest().expect("write run manifest");
    eprintln!("manifest: {}", manifest.display());
}

fn headers() -> Vec<String> {
    vec!["".into(), "I-det".into(), "D-det".into(), "Seq".into()]
}
