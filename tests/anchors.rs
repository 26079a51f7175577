//! Pinned pclock anchors, checked by the tier-1 suite.
//!
//! `pfsim-benchmark` pins all 84 cells of its four grids
//! (`benchmark/src/grid.rs`), but it is a release binary outside `cargo
//! test`. These three rows of its tables run in seconds even in debug and
//! together cover every Figure-6 scheme, both mesh sizes and both SLC
//! kinds, so any change to simulated time fails here too.

use std::sync::Arc;

use prefetch_repro::pfsim::experiment::figure6_schemes;
use prefetch_repro::pfsim::{System, SystemConfig};
use prefetch_repro::pfsim_workloads::{App, ProblemSize, TraceCursor};

/// Runs `app` at the default size on a `width`×`height` mesh, with a
/// direct-mapped SLC of `slc_bytes` (`None`: the paper's infinite SLC),
/// under each `figure6_schemes()` column, and checks every cell's
/// exec_cycles against `anchors`.
fn assert_row(app: App, (width, height): (u16, u16), slc_bytes: Option<u64>, anchors: [u64; 4]) {
    let cpus = usize::from(width * height);
    let trace = Arc::new(app.build_packed_for(ProblemSize::Default, cpus));
    let pclocks = figure6_schemes().map(|scheme| {
        let mut cfg = SystemConfig::builder()
            .mesh_dims(width, height)
            .scheme(scheme)
            .build();
        if let Some(bytes) = slc_bytes {
            cfg = cfg.with_finite_slc(bytes);
        }
        System::new(cfg, TraceCursor::new(Arc::clone(&trace)))
            .run()
            .exec_cycles
    });
    assert_eq!(
        pclocks, anchors,
        "{app} on {width}x{height}, SLC {slc_bytes:?}"
    );
}

#[test]
fn ocean_4x4_infinite_slc() {
    assert_row(App::Ocean, (4, 4), None, [158243, 151166, 151116, 152333]);
}

#[test]
fn ocean_4x4_finite_16k_slc() {
    assert_row(
        App::Ocean,
        (4, 4),
        Some(16 * 1024),
        [391247, 369728, 373784, 379530],
    );
}

#[test]
fn mstride_8x8_infinite_slc() {
    assert_row(App::Mstride, (8, 8), None, [33708, 27932, 29247, 52855]);
}
