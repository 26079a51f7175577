//! Regenerates **Table 4** of the paper: how the three key application
//! characteristics trend when the data sets grow (infinite SLC). The
//! paper reports expectations ("higher", "longer", "about the same");
//! this binary measures the base and enlarged data sets and reports both
//! the numbers and the resulting trend word, so the row can be compared
//! directly against the paper's.
//!
//! PTHOR is excluded exactly as in the paper ("because of time
//! limitations for simulations").
//!
//! Usage: `cargo run -p pfsim-bench --bin table4 --release`

use pfsim::{RecordMisses, SystemConfig};
use pfsim_analysis::{characterize, Characterization, TextTable};
use pfsim_bench::cli::Args;
use pfsim_bench::{CellResult, ExperimentSpec, Size, RECORDED_CPU};
use pfsim_workloads::App;

fn trend(base: f64, large: f64, tolerance: f64) -> &'static str {
    if large > base * (1.0 + tolerance) {
        "higher"
    } else if large < base * (1.0 - tolerance) {
        "lower"
    } else {
        "about the same"
    }
}

fn characterization(cell: &CellResult) -> Characterization {
    characterize(cell.result.miss_events(RECORDED_CPU))
}

fn main() {
    // Table 4 compares fixed sizes (base vs large) and takes no flags;
    // parsing with an empty accept set still rejects stray arguments
    // with the shared error message.
    let _ = Args::parse("table4", &[]);
    println!("Table 4: expected application characteristics for larger data sets");
    println!("(paper: stride fraction — same/higher/higher/higher/higher;");
    println!(" sequence length — limited/longer/longer/longer/longer)");
    println!();

    let recording = SystemConfig::builder()
        .record_misses(RecordMisses::Cpu(RECORDED_CPU))
        .build();
    // 5 apps × {base, large} data sets = 10 independent recording runs.
    let run = ExperimentSpec::new("table4")
        .apps([App::Mp3d, App::Cholesky, App::Water, App::Lu, App::Ocean])
        .variant_sized("base", recording.clone(), Size::Default)
        .variant_sized("large", recording, Size::Large)
        .run();

    let mut table = TextTable::new(vec![
        "".into(),
        "Read misses within stride sequence".into(),
        "Avg. length of sequence".into(),
        "Dominant stride (blocks)".into(),
    ]);

    for (app, cells) in run.apps.iter().zip(run.by_app()) {
        let [base_cell, large_cell] = cells else {
            unreachable!()
        };
        let base = characterization(base_cell);
        let large = characterization(large_cell);
        table.row(vec![
            app.name().into(),
            format!(
                "{} ({:.0}% -> {:.0}%)",
                trend(base.stride_fraction(), large.stride_fraction(), 0.05),
                base.stride_fraction() * 100.0,
                large.stride_fraction() * 100.0
            ),
            format!(
                "{} ({:.1} -> {:.1})",
                trend(
                    base.avg_sequence_length(),
                    large.avg_sequence_length(),
                    0.10
                ),
                base.avg_sequence_length(),
                large.avg_sequence_length()
            ),
            format!(
                "{} -> {}",
                base.dominant_strides_label(),
                large.dominant_strides_label()
            ),
        ]);
    }
    println!("{}", table.render());

    let manifest = run.write_manifest().expect("write run manifest");
    eprintln!("manifest: {}", manifest.display());
}
