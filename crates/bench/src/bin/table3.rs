//! Regenerates **Table 3** of the paper: application characteristics for a
//! finite 16 KB direct-mapped second-level cache — the percentage of
//! replacement misses plus the same three stride metrics as Table 2.
//! The paper's headline observation here is that MP3D's and Ocean's
//! replacement misses are overwhelmingly stride-1 sequences (sweeps over
//! data sets that no longer fit), which both stride *and* sequential
//! prefetching cover.
//!
//! Usage: `cargo run -p pfsim-bench --bin table3 --release [-- --paper]`

use pfsim::{MissCause, RecordMisses, SystemConfig};
use pfsim_analysis::{characterize, TextTable};
use pfsim_bench::cli::{Args, SIZE_FLAGS};
use pfsim_bench::{ExperimentSpec, RECORDED_CPU};
use pfsim_workloads::App;

fn main() {
    let run = ExperimentSpec::new("table3")
        .size(Args::parse("table3", SIZE_FLAGS).size)
        .apps(App::ALL)
        .variant(
            "record-16K",
            SystemConfig::builder()
                .slc_kb(16)
                .record_misses(RecordMisses::Cpu(RECORDED_CPU))
                .build(),
        )
        .run();

    println!("Table 3: application characteristics, finite 16 KB direct-mapped SLC");
    println!("(paper: repl-miss %: 32/45/45/76/82/39; stride %: 34/73/67/91/81/4.8)");
    println!();

    let mut table = TextTable::new(vec![
        "".into(),
        "Percentage repl. misses".into(),
        "Read misses within stride sequences".into(),
        "Avg. length of sequence".into(),
        "Dominant stride (blocks)".into(),
        "Misses (recorded cpu)".into(),
    ]);

    for (app, cells) in run.apps.iter().zip(run.by_app()) {
        let result = &cells[0].result;
        let trace = &result.miss_traces[RECORDED_CPU];
        let ch = characterize(result.miss_events(RECORDED_CPU));
        let repl = trace
            .iter()
            .filter(|m| m.cause == MissCause::Replacement)
            .count();
        table.row(vec![
            app.name().into(),
            format!("{:.0}%", 100.0 * repl as f64 / trace.len().max(1) as f64),
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
