//! Characterizes the modern workload families — CHASE, MSTRIDE and
//! SERVER — with the paper's §5.1 (Table 2) methodology: the fraction of
//! read misses inside stride sequences, the average sequence length, and
//! the dominant strides (in blocks), measured on one interior processor
//! of a baseline (no-prefetch) run.
//!
//! Each family is characterized at three machine/problem points: the
//! paper's 4×4 mesh at the selected size, the same trace partitioned
//! onto an 8×8 (64-node) mesh, and the 4×4 mesh at the paper-scale
//! problem size — so the table shows how the access-pattern signature
//! responds to both machine scaling and data-set scaling.
//!
//! The emitted run manifest is re-read and validated before exit, so a
//! CI invocation doubles as a manifest-discipline check.
//!
//! Usage: `cargo run -p pfsim-bench --bin workload_char --release [-- --paper]`

use pfsim::{RecordMisses, SystemConfig};
use pfsim_analysis::{characterize, TextTable};
use pfsim_bench::cli::{Args, SIZE_FLAGS};
use pfsim_bench::{recorded_cpu_for, validate_manifest, ExperimentSpec, Size, RECORDED_CPU};
use pfsim_workloads::App;

fn main() {
    let args = Args::parse("workload_char", SIZE_FLAGS);
    let big_cpu = recorded_cpu_for(8, 8);
    // Per-variant recorded processor: the interior node shifts with the
    // mesh (node 5 on 4×4, node 9 on 8×8).
    let recorded = [RECORDED_CPU, big_cpu, RECORDED_CPU];

    let run = ExperimentSpec::new("workload_char")
        .size(args.size)
        .apps(App::MODERN)
        .variant(
            "4x4",
            SystemConfig::builder()
                .record_misses(RecordMisses::Cpu(RECORDED_CPU))
                .build(),
        )
        .variant(
            "8x8",
            SystemConfig::builder()
                .mesh_dims(8, 8)
                .record_misses(RecordMisses::Cpu(big_cpu))
                .build(),
        )
        .variant_sized(
            "4x4/paper",
            SystemConfig::builder()
                .record_misses(RecordMisses::Cpu(RECORDED_CPU))
                .build(),
            Size::Paper,
        )
        .run();

    println!("Workload characterization: modern families, Table 2 methodology");
    println!("(recorded cpu: node 5 on the 4x4 mesh, node 9 on the 8x8 mesh)");
    println!();

    let mut table = TextTable::new(vec![
        "".into(),
        "Machine".into(),
        "Read misses within stride sequences".into(),
        "Avg. length of sequence".into(),
        "Dominant stride (blocks)".into(),
        "Misses (recorded cpu)".into(),
    ]);

    for (app, cells) in run.apps.iter().zip(run.by_app()) {
        for (cell, &cpu) in cells.iter().zip(&recorded) {
            let ch = characterize(cell.result.miss_events(cpu));
            table.row(vec![
                app.name().into(),
                run.variants[cell.variant].label.clone(),
                format!("{:.1}%", ch.stride_fraction() * 100.0),
                format!("{:.1}", ch.avg_sequence_length()),
                ch.dominant_strides_label(),
                format!("{}", ch.total_misses),
            ]);
        }
    }
    println!("{}", table.render());
    println!("total pclocks: {}", run.total_pclocks());

    let manifest = run.write_manifest().expect("write run manifest");
    validate_manifest(&manifest).expect("the emitted manifest must validate");
    eprintln!("manifest: {} (validated)", manifest.display());
}
