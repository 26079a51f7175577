//! The paper's headline comparison in miniature: all six applications ×
//! all three prefetching schemes (plus the adaptive extension), at small
//! problem sizes so the whole sweep finishes in seconds.
//!
//! Run with: `cargo run --example scheme_shootout --release`

use prefetch_repro::pfsim::{System, SystemConfig};
use prefetch_repro::pfsim_analysis::{compare, RunMetrics};
use prefetch_repro::pfsim_prefetch::Scheme;
use prefetch_repro::pfsim_workloads::{App, ProblemSize, TraceCursor};

fn metrics(app: App, scheme: Scheme) -> RunMetrics {
    System::new(
        SystemConfig::paper_baseline().with_scheme(scheme),
        TraceCursor::new(app.build_packed_for(ProblemSize::Default, 16)),
    )
    .run()
    .run_metrics()
}

fn main() {
    let schemes = [
        Scheme::IDetection { degree: 1 },
        Scheme::DDetection { degree: 1 },
        Scheme::Sequential { degree: 1 },
        Scheme::AdaptiveSequential {
            initial_degree: 1,
            max_degree: 8,
        },
    ];

    println!("relative read misses (lower is better; baseline = 1.00)");
    println!(
        "{:<10} {:>7} {:>7} {:>7} {:>10}",
        "", "I-det", "D-det", "Seq", "Adapt-Seq"
    );
    let mut wins = [0u32; 4];
    for app in App::ALL {
        let base = metrics(app, Scheme::None);
        let mut row = format!("{:<10}", app.name());
        let mut best = (f64::INFINITY, 0usize);
        for (i, scheme) in schemes.iter().enumerate() {
            let c = compare(&base, &metrics(app, *scheme));
            if c.relative_misses < best.0 {
                best = (c.relative_misses, i);
            }
            row.push_str(&format!(
                " {:>width$.2}",
                c.relative_misses,
                width = if i == 3 { 10 } else { 7 }
            ));
        }
        wins[best.1] += 1;
        println!("{row}");
    }
    println!();
    println!(
        "apps where each scheme removes the most misses: I-det {}, D-det {}, Seq {}, Adapt-Seq {}",
        wins[0], wins[1], wins[2], wins[3]
    );
    println!();
    println!("The paper's conclusion: sequential prefetching does better or the");
    println!("same as stride prefetching in five of the six applications, with");
    println!("Ocean (large strides, low non-stride locality) the exception.");
}
