//! Ablation: **block size** (§4). The paper fixes 32-byte blocks and
//! remarks: "although a large block size would be advantageous for the
//! sequential prefetching scheme to be effective for large strides, we
//! pessimistically consider a block size of 32 bytes", citing earlier
//! 128-byte-block results. This sweep measures sequential vs. I-detection
//! prefetching at 32/64/128-byte blocks on the two large-stride
//! applications (Water: 672-byte molecule stride; Ocean: 2080-byte row
//! stride) plus MP3D (pure spatial locality).
//!
//! Usage: `cargo run -p pfsim-bench --bin ablation_block --release`

use pfsim::SystemConfig;
use pfsim_analysis::{compare, TextTable};
use pfsim_bench::cli::{Args, SIZE_FLAGS};
use pfsim_bench::ExperimentSpec;
use pfsim_prefetch::Scheme;
use pfsim_workloads::App;

fn main() {
    let blocks = [32u64, 64, 128];
    let schemes = [
        Scheme::None,
        Scheme::IDetection { degree: 1 },
        Scheme::Sequential { degree: 1 },
    ];

    // Per app: 3 block sizes × (baseline + 2 schemes) = 9 cells.
    let mut spec = ExperimentSpec::new("ablation_block")
        .size(Args::parse("ablation_block", SIZE_FLAGS).size)
        .apps([App::Water, App::Ocean, App::Mp3d]);
    for bs in blocks {
        for scheme in schemes {
            spec = spec.variant(
                format!("{bs}B {scheme}"),
                SystemConfig::builder()
                    .block_bytes(bs)
                    .scheme(scheme)
                    .build(),
            );
        }
    }
    let run = spec.run();

    for (app, cells) in run.apps.iter().zip(run.by_app()) {
        let mut table = TextTable::new(vec![
            "block".into(),
            "baseline misses".into(),
            "I-det rel misses".into(),
            "Seq rel misses".into(),
            "Seq rel traffic".into(),
        ]);
        for (bs, group) in blocks.into_iter().zip(cells.chunks(schemes.len())) {
            let (base_cell, scheme_cells) = group.split_first().expect("baseline present");
            let base = base_cell.result.run_metrics();
            let mut row = vec![format!("{bs}B"), format!("{}", base.read_misses)];
            let mut seq_traffic = String::new();
            for cell in scheme_cells {
                let c = compare(&base, &cell.result.run_metrics());
                row.push(format!("{:.2}", c.relative_misses));
                seq_traffic = format!("{:.2}", c.relative_traffic);
            }
            row.push(seq_traffic);
            table.row(row);
        }
        println!("Block-size sweep: {app}");
        println!("{}", table.render());
    }
    println!("Expectation (§4): larger blocks shrink the stride measured in");
    println!("blocks, so sequential prefetching closes the gap on the");
    println!("large-stride applications as the block size grows.");
    println!();
    println!("Caveat: the workload layouts are fixed (as a real program's would");
    println!("be), so at 64/128-byte blocks partition boundaries no longer fall");
    println!("on block boundaries and the baselines include false-sharing");
    println!("misses that no prefetcher can remove — part of why both schemes'");
    println!("relative numbers drift toward 1.0 at larger blocks.");

    let manifest = run.write_manifest().expect("write run manifest");
    eprintln!("manifest: {}", manifest.display());
}
