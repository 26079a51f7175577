//! Shared plumbing for the experiment binaries that regenerate every table
//! and figure of the paper. See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for measured-vs-paper results.

#![warn(missing_docs)]

use std::collections::HashMap;
#[expect(
    clippy::disallowed_types,
    reason = "the shared trace cache is one of the two places pfsim-bench may use locks"
)]
use std::sync::{Arc, Mutex, OnceLock};

use pfsim_workloads::{App, PackedTrace, ProblemSize, TraceCursor};

pub mod cli;
pub mod manifest;
mod parallel;
pub mod spec;

pub use manifest::{validate_manifest, Manifest};
pub use parallel::par_map;
pub use spec::{CellResult, ExperimentRun, ExperimentSpec, Runner, TraceInfo, Variant};

/// Problem-size selection for the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Size {
    /// Scaled-down inputs: minutes-fast, same qualitative behaviour.
    #[default]
    Default,
    /// The paper's input sizes (slower).
    Paper,
    /// The enlarged §5.4 data sets (Table 4's "larger data sets" column).
    Large,
}

impl std::fmt::Display for Size {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Size::Default => "default",
            Size::Paper => "paper",
            Size::Large => "large",
        })
    }
}

impl Size {
    /// Parses a manifest/wire size name (the [`Display`](std::fmt::Display)
    /// form) back into a [`Size`].
    pub fn parse(name: &str) -> Result<Size, String> {
        match name {
            "default" => Ok(Size::Default),
            "paper" => Ok(Size::Paper),
            "large" => Ok(Size::Large),
            other => Err(format!("unknown size '{other}'")),
        }
    }

    /// The workload-crate problem-size selector this bench size names.
    pub fn problem(self) -> ProblemSize {
        match self {
            Size::Default => ProblemSize::Default,
            Size::Paper => ProblemSize::Paper,
            Size::Large => ProblemSize::Large,
        }
    }
}

/// Per-process memoized trace cache: each `(app, size, cpus)` is
/// generated once, packed, and shared by every subsequent run.
///
/// The per-key cell is initialized *outside* the map lock, so concurrent
/// `par_map` workers asking for different traces generate them in
/// parallel, while workers asking for the same trace block on one
/// generation instead of duplicating it. The cache holds at most
/// [`TRACE_CACHE_BYTES`] of packed traces (see [`TraceCache::evict_to`]).
#[expect(
    clippy::disallowed_types,
    reason = "the shared trace cache is one of the two places pfsim-bench may use locks"
)]
static TRACE_CACHE: OnceLock<Mutex<TraceCache>> = OnceLock::new();

/// The packed bytes the process-wide trace cache may hold: over sixty times
/// the whole Large trace set (16 MB), so no benchmark grid evicts, while
/// a long-running `pfsim-serve` asked for ever more `(app, size, cpus)`
/// keys stays bounded.
pub const TRACE_CACHE_BYTES: usize = 1 << 30;

/// The cache's key: `(app, size, cpus)`.
type TraceKey = (App, Size, u16);

/// One cache slot: a lazily-filled cell holding the shared packed trace.
#[expect(
    clippy::disallowed_types,
    reason = "the shared trace cache is one of the two places pfsim-bench may use locks"
)]
type TraceCell = Arc<OnceLock<Arc<PackedTrace>>>;

/// The trace cache's map, with each entry's last request time.
#[derive(Debug, Default)]
struct TraceCache {
    entries: HashMap<TraceKey, (TraceCell, u64)>,
    /// Requests served so far; stamps each entry's latest request.
    requests: u64,
}

impl TraceCache {
    /// The cell for `key`, created empty on first request, stamped as the
    /// most recently requested.
    fn request(&mut self, key: TraceKey) -> TraceCell {
        self.requests += 1;
        let (cell, stamp) = self.entries.entry(key).or_default();
        *stamp = self.requests;
        Arc::clone(cell)
    }

    /// Drops the least recently requested filled entries, never `keep`,
    /// until the cached traces' packed bytes fit under `cap`. A run that
    /// holds a dropped trace keeps it alive; the next request regenerates
    /// it.
    fn evict_to(&mut self, cap: usize, keep: TraceKey) {
        let bytes = |cell: &TraceCell| cell.get().map_or(0, |t| t.packed_bytes());
        let mut held: usize = self.entries.values().map(|(cell, _)| bytes(cell)).sum();
        while held > cap {
            let Some((&victim, (cell, _))) = self
                .entries
                .iter()
                .filter(|&(&key, (cell, _))| key != keep && bytes(cell) > 0)
                .min_by_key(|(_, (_, stamp))| *stamp)
            else {
                break;
            };
            held -= bytes(cell);
            self.entries.remove(&victim);
        }
    }
}

/// The process-wide trace cache, locked.
fn trace_cache() -> std::sync::MutexGuard<'static, TraceCache> {
    TRACE_CACHE
        .get_or_init(Default::default)
        .lock()
        .expect("nothing panics while holding the trace cache lock")
}

/// The shared packed trace for `(app, size)` on the paper's 16-processor
/// machine, generating it on first use.
pub fn shared_trace(app: App, size: Size) -> Arc<PackedTrace> {
    shared_trace_for(app, size, 16)
}

/// The shared packed trace for `(app, size)` partitioned onto `cpus`
/// processors — the big-mesh grids ask for 64 (8×8) or 256 (16×16).
pub fn shared_trace_for(app: App, size: Size, cpus: u16) -> Arc<PackedTrace> {
    let key = (app, size, cpus);
    let cell = trace_cache().request(key);
    let mut filled = false;
    let trace = Arc::clone(cell.get_or_init(|| {
        filled = true;
        Arc::new(app.build_packed_for(size.problem(), cpus as usize))
    }));
    if filled {
        trace_cache().evict_to(TRACE_CACHE_BYTES, key);
    }
    trace
}

/// A fresh replay cursor over the cached shared trace for `(app, size)`.
///
/// This is what the experiment binaries feed to `System`: every run gets
/// its own cursor, all cursors decode the same immutable packed trace.
pub fn cursor(app: App, size: Size) -> TraceCursor {
    TraceCursor::new(shared_trace(app, size))
}

/// [`cursor`] for a machine with `cpus` processors.
pub fn cursor_for(app: App, size: Size, cpus: u16) -> TraceCursor {
    TraceCursor::new(shared_trace_for(app, size, cpus))
}

/// The processor whose miss stream the characterization records: an
/// *interior* node of the 4×4 mesh (the paper measures "one processor ...
/// which has been shown to be representative"; a corner node would
/// under-represent Ocean's boundary exchanges).
pub const RECORDED_CPU: usize = 5;

/// The interior node a `width`×`height` mesh records: row 1, column 1 —
/// the smallest-index node with four mesh neighbours (node 5 on the
/// paper's 4×4, node 9 on 8×8, node 17 on 16×16).
///
/// # Panics
///
/// Panics if either dimension is below 3 (no interior exists).
pub fn recorded_cpu_for(width: u16, height: u16) -> usize {
    assert!(
        width >= 3 && height >= 3,
        "a {width}x{height} mesh has no interior node"
    );
    width as usize + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfsim_workloads::App;

    /// Size names round-trip through their `Display` form (the spelling
    /// manifests and wire specs use).
    #[test]
    fn size_names_round_trip() {
        for size in [Size::Default, Size::Paper, Size::Large] {
            assert_eq!(Size::parse(&size.to_string()), Ok(size));
        }
        assert!(Size::parse("huge").is_err());
        assert!(Size::parse("Paper").is_err());
    }

    #[test]
    fn shared_trace_is_generated_once_and_shared() {
        let a = shared_trace(App::Mp3d, Size::Default);
        let b = shared_trace(App::Mp3d, Size::Default);
        assert!(Arc::ptr_eq(&a, &b), "cache must return the same trace");
        assert!(Arc::ptr_eq(cursor(App::Mp3d, Size::Default).trace(), &a));
    }

    #[test]
    fn shared_trace_survives_concurrent_first_use() {
        let traces: Vec<Arc<PackedTrace>> =
            par_map(vec![(); 4], |()| shared_trace(App::Cholesky, Size::Default));
        for t in &traces {
            assert!(Arc::ptr_eq(t, &traces[0]));
        }
    }

    /// The cache drops the least recently *requested* filled entries
    /// first, never the one just requested, and a dropped entry comes back
    /// empty, to be regenerated, on its next request.
    #[test]
    fn trace_cache_evicts_least_recently_requested_first() {
        let trace = |reads: u64| {
            let mut b = pfsim_workloads::TraceBuilder::new("t", 1);
            let pc = b.pc_site();
            for i in 0..reads {
                b.read(0, pfsim_mem::Addr::new(64 * i), pc);
            }
            Arc::new(b.finish())
        };
        let [a, b, c] = [Size::Default, Size::Paper, Size::Large].map(|size| (App::Lu, size, 16));
        let bytes = trace(25).packed_bytes();
        let mut cache = TraceCache::default();
        for key in [a, b, c] {
            cache.request(key).set(trace(25)).unwrap();
        }
        cache.request(a); // b is now the least recently requested
        cache.evict_to(3 * bytes, c);
        assert_eq!(cache.entries.len(), 3, "three traces fit a three-trace cap");
        cache.evict_to(3 * bytes - 1, c);
        assert!(!cache.entries.contains_key(&b), "b goes first");
        cache.evict_to(0, c);
        let left: Vec<_> = cache.entries.keys().collect();
        assert_eq!(left, [&c], "c was just requested, so it stays over the cap");
        assert!(cache.request(b).get().is_none());
    }

    #[test]
    fn recorded_cpu_is_an_interior_mesh_node() {
        // 4x4 mesh: interior nodes are 5, 6, 9, 10.
        assert!([5usize, 6, 9, 10].contains(&RECORDED_CPU));
    }

    /// The scaled recording helper agrees with the pinned 4×4 constant
    /// and picks interior nodes on the big meshes.
    #[test]
    fn recorded_cpu_scales_with_the_mesh() {
        assert_eq!(recorded_cpu_for(4, 4), RECORDED_CPU);
        assert_eq!(recorded_cpu_for(8, 8), 9);
        assert_eq!(recorded_cpu_for(16, 16), 17);
    }

    #[test]
    #[should_panic(expected = "no interior node")]
    fn recorded_cpu_rejects_meshes_without_an_interior() {
        recorded_cpu_for(2, 4);
    }

    /// The cpus-keyed cache keeps 16- and 64-processor partitions of the
    /// same app distinct, and the 16-cpu key is the legacy entry point.
    #[test]
    fn shared_trace_is_keyed_by_cpus() {
        let paper_machine = shared_trace(App::Chase, Size::Default);
        let same = shared_trace_for(App::Chase, Size::Default, 16);
        assert!(Arc::ptr_eq(&paper_machine, &same));
        let big = shared_trace_for(App::Chase, Size::Default, 64);
        assert!(!Arc::ptr_eq(&paper_machine, &big));
        assert_eq!(paper_machine.num_cpus(), 16);
        assert_eq!(big.num_cpus(), 64);
        assert!(Arc::ptr_eq(
            cursor_for(App::Chase, Size::Default, 64).trace(),
            &big
        ));
    }
}
