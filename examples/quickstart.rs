//! Quickstart: build the paper's baseline machine (Table 1), attach a
//! prefetching scheme, run a workload, and read the statistics.
//!
//! Run with: `cargo run --example quickstart --release`

use std::sync::Arc;

use prefetch_repro::pfsim::{System, SystemConfig};
use prefetch_repro::pfsim_prefetch::Scheme;
use prefetch_repro::pfsim_workloads::{lu, TraceCursor};

fn main() {
    // The fixed architectural parameters of Table 1.
    let cfg = SystemConfig::paper_baseline();
    println!("Table 1-style configuration:");
    println!("  processors:            {}", cfg.nodes);
    println!("  FLC size:              {} bytes", cfg.flc_bytes);
    println!(
        "  block size:            {} bytes",
        cfg.geometry.block_bytes()
    );
    println!(
        "  FLWB / SLWB entries:   {} / {}",
        cfg.flwb_entries, cfg.slwb_entries
    );
    println!(
        "  read from SLC:         {} pclocks",
        cfg.slc_read_latency()
    );
    println!(
        "  read from local mem:   {} pclocks",
        cfg.local_memory_read_latency()
    );
    println!();

    // A small LU factorization, built once and replayed by a cursor per
    // run: first on the baseline...
    let trace = Arc::new(lu::build(lu::LuParams { n: 64, cpus: 16 }));
    println!("workload: {} ({} ops)", trace.name(), trace.total_ops());
    let base = System::new(cfg.clone(), TraceCursor::new(Arc::clone(&trace))).run();

    // ...then with degree-1 sequential prefetching.
    let seq_cfg = cfg.with_scheme(Scheme::Sequential { degree: 1 });
    let seq = System::new(seq_cfg, TraceCursor::new(trace)).run();

    println!();
    println!("                     baseline    Seq(d=1)");
    println!(
        "read misses        {:>10} {:>11}",
        base.read_misses(),
        seq.read_misses()
    );
    println!(
        "read stall (pclk)  {:>10} {:>11}",
        base.read_stall(),
        seq.read_stall()
    );
    println!(
        "exec time (pclk)   {:>10} {:>11}",
        base.exec_cycles, seq.exec_cycles
    );
    println!(
        "prefetches issued  {:>10} {:>11}",
        0,
        seq.total(|n| n.prefetches_issued)
    );
    println!(
        "prefetch efficiency{:>10} {:>11.2}",
        "-",
        seq.prefetch_efficiency()
    );
    println!(
        "network flits      {:>10} {:>11}",
        base.net.flits, seq.net.flits
    );
}
