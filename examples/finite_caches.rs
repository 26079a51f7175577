//! §5.3 interactively: how a finite second-level cache changes the
//! stride/sequential balance. Sweeps SLC capacities on MP3D — the
//! application whose miss mix changes the most — and prints, per size,
//! the replacement-miss share and each scheme's relative misses.
//!
//! Run with: `cargo run --example finite_caches --release`

use prefetch_repro::pfsim::{System, SystemConfig};
use prefetch_repro::pfsim_prefetch::Scheme;
use prefetch_repro::pfsim_workloads::{mp3d, TraceCursor};

fn workload() -> TraceCursor {
    TraceCursor::new(mp3d::build(mp3d::Mp3dParams {
        particles: 4000,
        cells: 2048,
        steps: 6,
        collision_pct: 50,
        cpus: 16,
    }))
}

fn main() {
    println!("MP3D under shrinking second-level caches (cf. Table 3):");
    println!(
        "{:<8} {:>10} {:>8} {:>12} {:>10}",
        "SLC", "misses", "repl %", "I-det rel", "Seq rel"
    );
    for slc_bytes in [0u64, 64 * 1024, 16 * 1024, 8 * 1024] {
        let cfg = |scheme| {
            let c = SystemConfig::paper_baseline().with_scheme(scheme);
            if slc_bytes == 0 {
                c
            } else {
                c.with_finite_slc(slc_bytes)
            }
        };
        let base = System::new(cfg(Scheme::None), workload()).run();
        let idet = System::new(cfg(Scheme::IDetection { degree: 1 }), workload()).run();
        let seq = System::new(cfg(Scheme::Sequential { degree: 1 }), workload()).run();
        let label = if slc_bytes == 0 {
            "inf".to_string()
        } else {
            format!("{}K", slc_bytes / 1024)
        };
        let repl = base.total(|n| n.replacement_misses);
        println!(
            "{:<8} {:>10} {:>7.0}% {:>12.2} {:>10.2}",
            label,
            base.read_misses(),
            100.0 * repl as f64 / base.read_misses().max(1) as f64,
            idet.read_misses() as f64 / base.read_misses() as f64,
            seq.read_misses() as f64 / base.read_misses() as f64,
        );
    }
    println!();
    println!("As the cache shrinks, replacement misses (sequential sweeps of");
    println!("the particle array) dominate, and both schemes — especially the");
    println!("sequential one — cover them: the paper's §5.3 observation.");
}
