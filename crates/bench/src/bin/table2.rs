//! Regenerates **Table 2** of the paper: application characteristics
//! under an infinitely large second-level cache — the fraction of read
//! misses inside stride sequences, the average sequence length, and the
//! dominant strides (in blocks), measured on one processor of a baseline
//! (no-prefetch) run.
//!
//! Usage: `cargo run -p pfsim-bench --bin table2 --release [-- --paper]`

use pfsim::{RecordMisses, SystemConfig};
use pfsim_analysis::{characterize, TextTable};
use pfsim_bench::cli::{Args, SIZE_FLAGS};
use pfsim_bench::{ExperimentSpec, RECORDED_CPU};
use pfsim_workloads::App;

fn main() {
    let run = ExperimentSpec::new("table2")
        .size(Args::parse("table2", SIZE_FLAGS).size)
        .apps(App::ALL)
        .variant(
            "record",
            SystemConfig::builder()
                .record_misses(RecordMisses::Cpu(RECORDED_CPU))
                .build(),
        )
        .run();

    println!("Table 2: application characteristics, infinite second-level cache");
    println!(
        "(paper values: stride-miss %: 9.2/80/79/93/66/4.1; avg len: 5.2/7.2/8.0/16.9/7.6/3.4)"
    );
    println!();

    let mut table = TextTable::new(vec![
        "".into(),
        "Read misses within stride sequences".into(),
        "Avg. length of sequence".into(),
        "Dominant stride (blocks)".into(),
        "Misses (recorded cpu)".into(),
    ]);

    for (app, cells) in run.apps.iter().zip(run.by_app()) {
        let result = &cells[0].result;
        let ch = characterize(result.miss_events(RECORDED_CPU));
        table.row(vec![
            app.name().into(),
            format!("{:.1}%", ch.stride_fraction() * 100.0),
            format!("{:.1}", ch.avg_sequence_length()),
            ch.dominant_strides_label(),
            format!("{}", ch.total_misses),
        ]);
    }
    println!("{}", table.render());

    let manifest = run.write_manifest().expect("write run manifest");
    eprintln!("manifest: {}", manifest.display());
}
