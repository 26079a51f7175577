//! Writing your own workload: the public API for building reference
//! streams and evaluating how the prefetching schemes handle them.
//!
//! This example models a producer/consumer pipeline over a ring buffer —
//! a pattern none of the paper's six applications covers — and asks which
//! scheme copes best.
//!
//! Run with: `cargo run --example custom_workload --release`

use prefetch_repro::pfsim::RecordMisses;
use prefetch_repro::pfsim::{System, SystemConfig};
use prefetch_repro::pfsim_analysis::characterize;
use prefetch_repro::pfsim_prefetch::Scheme;
use prefetch_repro::pfsim_workloads::{TraceBuilder, TraceCursor};

/// CPU 0 produces 64-byte records into a ring buffer; CPUs 1..4 consume
/// interleaved records (consumer c takes records c-1, c-1+3, ...). Each
/// consumer therefore sees a stride-6-block sequence; the producer writes
/// sequentially.
fn pipeline(records: u64) -> TraceCursor {
    const RECORD: u64 = 64; // 2 blocks
    let consumers = 3u64;
    let mut b = TraceBuilder::new("ring-pipeline", 16);
    let ring = b.alloc("ring", records, RECORD);
    let flag = b.alloc("flags", records, 8);
    let pc_w = b.pc_site();
    let pc_flag_w = b.pc_site();
    let pc_r0 = b.pc_site();
    let pc_r1 = b.pc_site();
    let pc_flag_r = b.pc_site();

    // Producer fills the ring in batches, then a barrier hands it over.
    for i in 0..records {
        b.write(0, b.element(ring, RECORD, i), pc_w);
        b.write(0, b.field(ring, RECORD, i, 32), pc_w);
        b.compute(0, 6);
        b.write(0, b.element(flag, 8, i), pc_flag_w);
    }
    b.barrier_all();
    for c in 0..consumers {
        let cpu = (c + 1) as usize;
        let mut i = c;
        while i < records {
            b.read(cpu, b.element(flag, 8, i), pc_flag_r);
            b.read(cpu, b.element(ring, RECORD, i), pc_r0);
            b.read(cpu, b.field(ring, RECORD, i, 32), pc_r1);
            b.compute(cpu, 20);
            i += consumers;
        }
    }
    TraceCursor::new(b.finish())
}

fn main() {
    // First: characterize the consumers' miss stream the way §5.1 would.
    let mut sys = System::new(
        SystemConfig::paper_baseline().with_recording(RecordMisses::Cpu(1)),
        pipeline(512),
    );
    let base = sys.run();
    let ch = characterize(base.miss_events(1));
    println!("consumer 1 characterization (the paper's Table 2 metrics):");
    println!(
        "  {:.0}% of misses in stride sequences, avg length {:.1}, dominant stride {}",
        ch.stride_fraction() * 100.0,
        ch.avg_sequence_length(),
        ch.dominant_strides_label(),
    );
    println!();

    // Then: which scheme handles it best?
    println!(
        "{:<12} {:>8} {:>12} {:>11}",
        "scheme", "misses", "read stall", "efficiency"
    );
    println!(
        "{:<12} {:>8} {:>12} {:>11}",
        "baseline",
        base.read_misses(),
        base.read_stall(),
        "-"
    );
    for scheme in [
        Scheme::Sequential { degree: 1 },
        Scheme::IDetection { degree: 1 },
        Scheme::DDetection { degree: 1 },
    ] {
        let r = System::new(
            SystemConfig::paper_baseline().with_scheme(scheme),
            pipeline(512),
        )
        .run();
        println!(
            "{:<12} {:>8} {:>12} {:>11.2}",
            scheme.to_string(),
            r.read_misses(),
            r.read_stall(),
            r.prefetch_efficiency(),
        );
    }
    println!();
    println!("Consumers stride 6 blocks (3 consumers x 2-block records), so");
    println!("stride detection wins; sequential prefetching only catches the");
    println!("second block of each record.");
}
