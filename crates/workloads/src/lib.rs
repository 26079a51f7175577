//! Parallel scientific workload models for the prefetching study.
//!
//! The paper drives its simulator with six applications — MP3D, Cholesky,
//! Water and PTHOR from the SPLASH suite plus the Stanford LU and Ocean
//! programs — compiled for SPARC and executed program-driven. This crate
//! substitutes *workload models*: Rust implementations of the same parallel
//! algorithms that emit, per processor, the stream of shared-memory
//! operations ([`Op`]) the application's parallel section would issue —
//! PC-tagged reads, writes, compute delays, lock acquire/release and
//! barriers. The models reproduce each application's documented data
//! layout, partitioning, synchronization and sharing structure, which is
//! what determines the Table 2 characteristics (fraction of read misses in
//! stride sequences, sequence lengths, dominant strides) that the paper
//! uses to explain its results. See `DESIGN.md` for the substitution
//! rationale.
//!
//! Beyond the paper's six, three *modern* families probe access patterns
//! the 1995 suite under-represents: [`chase`] (pointer-chasing linked
//! structures), [`mstride`] (multi-strided nested loops) and [`server`]
//! (irregular, large-footprint mixed traffic). All generators accept a
//! `cpus` parameter, so the same algorithm re-partitions onto larger
//! meshes; [`App::build_packed_for`] selects family, [`ProblemSize`] and
//! processor count in one call.
//!
//! All generators are deterministic: the same parameters always produce the
//! same trace.
//!
//! # Examples
//!
//! ```
//! use pfsim_workloads::{lu, TraceCursor, Workload};
//!
//! let mut wl = TraceCursor::new(lu::build(lu::LuParams { n: 32, ..Default::default() }));
//! assert_eq!(wl.num_cpus(), 16);
//! let first = wl.next(0).expect("cpu 0 has work");
//! println!("cpu 0 starts with {first:?}");
//! ```

#![warn(missing_docs)]

mod builder;
mod op;
mod packed;
mod stats;

pub mod chase;
pub mod cholesky;
pub mod fuzz;
pub mod lu;
pub mod micro;
pub mod mp3d;
pub mod mstride;
pub mod ocean;
pub mod pthor;
pub mod server;
pub mod water;

pub use builder::TraceBuilder;
pub use op::{Op, Workload};
pub use packed::{OpIter, PackedTrace, TraceCursor};
pub use stats::{packed_stats, TraceStats};

/// A problem-size selector usable across every application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProblemSize {
    /// Scaled-down inputs for tests and quick runs.
    Default,
    /// Inputs at (approximately) the paper's scale.
    Paper,
    /// Enlarged data sets (the §5.4 trend study).
    Large,
}

/// The applications: the paper's six (in its presentation order) plus
/// the three modern families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Rarefied-fluid particle simulation (SPLASH).
    Mp3d,
    /// Sparse Cholesky factorization (SPLASH).
    Cholesky,
    /// N-body molecular dynamics of water (SPLASH).
    Water,
    /// Dense LU factorization (Stanford).
    Lu,
    /// Ocean-basin eddy-current simulation (Stanford).
    Ocean,
    /// Parallel logic simulator (SPLASH).
    Pthor,
    /// Pointer-chasing over randomized linked structures (modern).
    Chase,
    /// Multi-strided nested-loop kernel (modern).
    Mstride,
    /// Irregular request-serving mixed traffic (modern).
    Server,
}

/// Expands to the preset of `$ty` selected by a [`ProblemSize`], with the
/// processor count overridden. `$large` names the method backing
/// `ProblemSize::Large` (PTHOR has no enlarged input, so it re-uses
/// `paper`, as the paper's §5.4 does).
macro_rules! preset {
    ($ty:ty, $size:expr, $cpus:expr) => {
        preset!($ty, $size, $cpus, large)
    };
    ($ty:ty, $size:expr, $cpus:expr, $large:ident) => {{
        let mut p = match $size {
            ProblemSize::Default => <$ty>::default(),
            ProblemSize::Paper => <$ty>::paper(),
            ProblemSize::Large => <$ty>::$large(),
        };
        p.cpus = $cpus;
        p
    }};
}

impl App {
    /// The paper's six applications in its presentation order.
    pub const ALL: [App; 6] = [
        App::Mp3d,
        App::Cholesky,
        App::Water,
        App::Lu,
        App::Ocean,
        App::Pthor,
    ];

    /// The three modern workload families of the scaling study.
    pub const MODERN: [App; 3] = [App::Chase, App::Mstride, App::Server];

    /// Every application: the paper's six followed by the modern three.
    pub const EVERY: [App; 9] = [
        App::Mp3d,
        App::Cholesky,
        App::Water,
        App::Lu,
        App::Ocean,
        App::Pthor,
        App::Chase,
        App::Mstride,
        App::Server,
    ];

    /// The application's display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            App::Mp3d => "MP3D",
            App::Cholesky => "Cholesky",
            App::Water => "Water",
            App::Lu => "LU",
            App::Ocean => "Ocean",
            App::Pthor => "PTHOR",
            App::Chase => "CHASE",
            App::Mstride => "MSTRIDE",
            App::Server => "SERVER",
        }
    }

    /// Builds the application's trace at `size` for a machine with `cpus`
    /// processors (the paper's machine has 16; other counts re-partition
    /// the same algorithm).
    pub fn build_packed_for(self, size: ProblemSize, cpus: usize) -> PackedTrace {
        match self {
            App::Mp3d => mp3d::build(preset!(mp3d::Mp3dParams, size, cpus)),
            App::Cholesky => cholesky::build(preset!(cholesky::CholeskyParams, size, cpus)),
            App::Water => water::build(preset!(water::WaterParams, size, cpus)),
            App::Lu => lu::build(preset!(lu::LuParams, size, cpus)),
            App::Ocean => ocean::build(preset!(ocean::OceanParams, size, cpus)),
            App::Pthor => pthor::build(preset!(pthor::PthorParams, size, cpus, paper)),
            App::Chase => chase::build(preset!(chase::ChaseParams, size, cpus)),
            App::Mstride => mstride::build(preset!(mstride::MstrideParams, size, cpus)),
            App::Server => server::build(preset!(server::ServerParams, size, cpus)),
        }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_build_at_default_size() {
        for app in App::EVERY {
            let trace = app.build_packed_for(ProblemSize::Default, 16);
            assert_eq!(trace.num_cpus(), 16, "{app}");
            let total = trace.total_ops();
            assert!(total > 1000, "{app} produced only {total} ops");
            assert!(trace.ops(0) > 0, "{app} cpu 0 empty");
        }
    }

    #[test]
    fn names_match_paper_tables() {
        let names: Vec<_> = App::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["MP3D", "Cholesky", "Water", "LU", "Ocean", "PTHOR"]);
    }

    #[test]
    fn rosters_are_consistent() {
        let every: Vec<_> = App::ALL.iter().chain(&App::MODERN).copied().collect();
        assert_eq!(every, App::EVERY);
        let names: Vec<_> = App::MODERN.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["CHASE", "MSTRIDE", "SERVER"]);
    }

    /// Re-partitioning onto a bigger machine gives every processor work.
    #[test]
    fn modern_apps_scale_to_64_cpus() {
        for app in App::MODERN {
            let trace = app.build_packed_for(ProblemSize::Default, 64);
            assert_eq!(trace.num_cpus(), 64, "{app}");
            for cpu in 0..64 {
                assert!(trace.ops(cpu) > 0, "{app} cpu {cpu} empty");
            }
        }
    }
}
