//! The scheme set of the paper's central comparison. A run itself is
//! `System::new(cfg, workload).run()`.

use pfsim_prefetch::Scheme;

/// The comparison of Figure 6: baseline, I-detection, D-detection and
/// sequential prefetching at degree 1, on the same workload.
pub fn figure6_schemes() -> [Scheme; 4] {
    [
        Scheme::None,
        Scheme::IDetection { degree: 1 },
        Scheme::DDetection { degree: 1 },
        Scheme::Sequential { degree: 1 },
    ]
}
