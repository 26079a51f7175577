//! The paper's headline qualitative claims, asserted as tests on
//! scaled-down inputs. These are the properties a reader of the paper
//! would expect any faithful reimplementation to reproduce:
//!
//! 1. Sequential prefetching removes at least as many misses as stride
//!    prefetching on the short-stride / high-locality applications.
//! 2. Stride prefetching beats sequential prefetching on Ocean (large
//!    strides, low non-stride locality).
//! 3. Neither helps PTHOR much.
//! 4. I-detection has the higher prefetch efficiency on the low-locality
//!    applications (its detection phase is more selective).
//! 5. Sequential prefetching pays more network traffic on the
//!    low-locality applications.
//! 6. Sub-block strides are covered by sequential prefetching (the
//!    "most strides are shorter than the block size" argument).

use prefetch_repro::pfsim::{RecordMisses, SimResult, System, SystemConfig};
use prefetch_repro::pfsim_analysis::{characterize, MissEvent};
use prefetch_repro::pfsim_prefetch::Scheme;
use prefetch_repro::pfsim_workloads::{
    micro, mp3d, ocean, pthor, App, PackedTrace, ProblemSize, TraceCursor,
};

fn run(wl: PackedTrace, scheme: Scheme) -> SimResult {
    let cfg = SystemConfig::paper_baseline().with_scheme(scheme);
    System::new(cfg, TraceCursor::new(wl)).run()
}

fn default_size(app: App) -> TraceCursor {
    TraceCursor::new(app.build_packed_for(ProblemSize::Default, 16))
}

fn mp3d_small() -> PackedTrace {
    mp3d::build(mp3d::Mp3dParams {
        particles: 1600,
        cells: 1024,
        steps: 4,
        collision_pct: 50,
        cpus: 16,
    })
}

fn ocean_small() -> PackedTrace {
    // Ocean's stride advantage needs subgrids tall enough for the
    // column-boundary sequences to be detected, so use the full default
    // size (still subsecond).
    ocean::build(ocean::OceanParams::default())
}

fn pthor_small() -> PackedTrace {
    pthor::build(pthor::PthorParams {
        elements: 1024,
        tasks_per_cpu: 800,
        fanout: 3,
        cpus: 16,
    })
}

/// The Table 2 signature of every application, within bands: this is the
/// regression guard that keeps the workload models honest. (Ranges are
/// generous — the paper's exact values are recorded in EXPERIMENTS.md.)
#[test]
fn table2_characteristics_stay_in_band() {
    let characterize_app = |app: App| {
        let mut sys = System::new(
            SystemConfig::paper_baseline().with_recording(RecordMisses::Cpu(5)),
            default_size(app),
        );
        let r = sys.run();
        let misses: Vec<MissEvent> = r.miss_traces[5]
            .iter()
            .map(|m| MissEvent {
                pc: m.pc,
                block: m.block,
            })
            .collect();
        characterize(&misses)
    };

    // MP3D: few stride misses, stride 1 dominant among them.
    let ch = characterize_app(App::Mp3d);
    assert!(
        ch.stride_fraction() < 0.35,
        "MP3D {:.2}",
        ch.stride_fraction()
    );
    assert_eq!(ch.dominant_strides()[0].0, 1, "MP3D");

    // Cholesky: stride-dominated, stride 1.
    let ch = characterize_app(App::Cholesky);
    assert!(
        ch.stride_fraction() > 0.7,
        "Cholesky {:.2}",
        ch.stride_fraction()
    );
    assert_eq!(ch.dominant_strides()[0].0, 1, "Cholesky");

    // Water: stride-dominated with the 21-block molecule stride.
    let ch = characterize_app(App::Water);
    assert!(
        ch.stride_fraction() > 0.7,
        "Water {:.2}",
        ch.stride_fraction()
    );
    assert_eq!(ch.dominant_strides()[0].0, 21, "Water");

    // LU: almost everything in long stride-1 sequences.
    let ch = characterize_app(App::Lu);
    assert!(
        ch.stride_fraction() > 0.85,
        "LU {:.2}",
        ch.stride_fraction()
    );
    assert_eq!(ch.dominant_strides()[0].0, 1, "LU");
    assert!(
        ch.avg_sequence_length() > 10.0,
        "LU {:.1}",
        ch.avg_sequence_length()
    );

    // Ocean: large 65-block strides lead, stride 1 second.
    let ch = characterize_app(App::Ocean);
    assert!(
        ch.stride_fraction() > 0.5,
        "Ocean {:.2}",
        ch.stride_fraction()
    );
    let top: Vec<i64> = ch
        .dominant_strides()
        .iter()
        .take(2)
        .map(|&(s, _)| s)
        .collect();
    assert!(
        top.contains(&65) && top.contains(&1),
        "Ocean top strides {top:?}"
    );
    assert_eq!(top[0], 65, "Ocean must be 65-dominant with an infinite SLC");

    // PTHOR: essentially no stride sequences.
    let ch = characterize_app(App::Pthor);
    assert!(
        ch.stride_fraction() < 0.1,
        "PTHOR {:.2}",
        ch.stride_fraction()
    );
}

/// The Table 3 headline: under a finite 16 KB SLC, Ocean's dominant
/// stride flips from 65 to 1 (replacement misses are sweeps).
#[test]
fn table3_ocean_flips_to_stride_one() {
    let mut sys = System::new(
        SystemConfig::paper_baseline()
            .with_finite_slc(16 * 1024)
            .with_recording(RecordMisses::Cpu(5)),
        default_size(App::Ocean),
    );
    let r = sys.run();
    let misses: Vec<MissEvent> = r.miss_traces[5]
        .iter()
        .map(|m| MissEvent {
            pc: m.pc,
            block: m.block,
        })
        .collect();
    let ch = characterize(&misses);
    assert_eq!(
        ch.dominant_strides()[0].0,
        1,
        "finite-SLC Ocean must be stride-1 dominant: {}",
        ch.dominant_strides_label()
    );
}

#[test]
fn sequential_beats_stride_on_mp3d() {
    // §5.2: "I-detection and D-detection reduce the number of read misses
    // by only 5% ... Sequential prefetching ... by 28%."
    let base = run(mp3d_small(), Scheme::None).read_misses();
    let idet = run(mp3d_small(), Scheme::IDetection { degree: 1 }).read_misses();
    let seq = run(mp3d_small(), Scheme::Sequential { degree: 1 }).read_misses();
    assert!(seq < idet, "Seq {seq} should beat I-det {idet} on MP3D");
    assert!(
        seq * 100 < base * 90,
        "Seq should remove >10% of MP3D misses: {seq} of {base}"
    );
    assert!(
        idet * 100 > base * 85,
        "stride prefetching should barely help MP3D: {idet} of {base}"
    );
}

#[test]
fn stride_beats_sequential_on_ocean() {
    // §5.2: "For Ocean ... stride prefetching is more effective than
    // sequential prefetching."
    let idet = run(ocean_small(), Scheme::IDetection { degree: 1 }).read_misses();
    let seq = run(ocean_small(), Scheme::Sequential { degree: 1 }).read_misses();
    assert!(idet < seq, "I-det {idet} should beat Seq {seq} on Ocean");
}

#[test]
fn nothing_helps_pthor_much() {
    // §5.2: "For PTHOR, all three techniques perform poorly."
    let base = run(pthor_small(), Scheme::None).read_misses();
    for scheme in [
        Scheme::IDetection { degree: 1 },
        Scheme::DDetection { degree: 1 },
        Scheme::Sequential { degree: 1 },
    ] {
        let misses = run(pthor_small(), scheme).read_misses();
        assert!(
            misses * 100 > base * 80,
            "{scheme} removed too many PTHOR misses: {misses} of {base}"
        );
    }
}

#[test]
fn idetection_is_more_selective_on_low_locality_apps() {
    // §5.2: "I-detection in general has a higher prefetch efficiency ...
    // because it is more selective in the detection phase." The clean
    // cases are MP3D and Ocean; on PTHOR both schemes issue so few useful
    // prefetches that only the traffic difference is robust.
    for (name, wl) in [
        ("MP3D", mp3d_small as fn() -> PackedTrace),
        ("Ocean", ocean_small),
    ] {
        let idet = run(wl(), Scheme::IDetection { degree: 1 });
        let seq = run(wl(), Scheme::Sequential { degree: 1 });
        assert!(
            idet.prefetch_efficiency() > seq.prefetch_efficiency(),
            "{name}: I-det eff {:.2} vs Seq eff {:.2}",
            idet.prefetch_efficiency(),
            seq.prefetch_efficiency()
        );
    }
    // Sequential prefetching's indiscriminate issue shows up as extra
    // traffic on every low-locality application, PTHOR included.
    for wl in [mp3d_small as fn() -> PackedTrace, ocean_small, pthor_small] {
        let idet = run(wl(), Scheme::IDetection { degree: 1 });
        let seq = run(wl(), Scheme::Sequential { degree: 1 });
        assert!(
            seq.net.flits > idet.net.flits,
            "Seq should cost more traffic"
        );
    }
}

#[test]
fn sequential_covers_sub_block_strides() {
    // §1: "most strides are shorter than the block size, which means that
    // sequential prefetching is as effective for stride accesses".
    // A stride-8B stream touches every block in sequence.
    let wl = || micro::stride_stream(16, 8, 1024, 1);
    let base = System::new(SystemConfig::paper_baseline(), wl()).run();
    let seq = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 1 }),
        wl(),
    )
    .run();
    assert!(
        seq.read_misses() * 5 < base.read_misses(),
        "Seq left {} of {}",
        seq.read_misses(),
        base.read_misses()
    );
}

#[test]
fn idetection_also_covers_sub_block_strides_via_block_grain() {
    // The RPT sees one SLC request per block for a sub-block stride (the
    // FLC absorbs the rest), so it detects the one-block stride and covers
    // the stream too — the paper's framing that both schemes handle short
    // strides.
    let wl = || micro::stride_stream(16, 8, 1024, 1);
    let base = System::new(SystemConfig::paper_baseline(), wl()).run();
    let idet = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::IDetection { degree: 1 }),
        wl(),
    )
    .run();
    assert!(
        idet.read_misses() * 3 < base.read_misses(),
        "I-det left {} of {}",
        idet.read_misses(),
        base.read_misses()
    );
}

#[test]
fn large_strides_defeat_sequential_but_not_stride_prefetching() {
    // §3.4: "sequential prefetching is expected to only capture stride
    // sequences for strides smaller than or equal to the block size".
    let wl = || micro::stride_stream(16, 160, 256, 1); // 5-block stride
    let base = System::new(SystemConfig::paper_baseline(), wl()).run();
    let seq = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 1 }),
        wl(),
    )
    .run();
    let idet = System::new(
        SystemConfig::paper_baseline().with_scheme(Scheme::IDetection { degree: 1 }),
        wl(),
    )
    .run();
    assert!(seq.read_misses() * 10 > base.read_misses() * 9);
    assert!(idet.read_misses() * 2 < base.read_misses());
}
