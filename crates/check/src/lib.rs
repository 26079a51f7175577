//! `pfsim-check` — the correctness layer of the prefetching study.
//!
//! The timing simulator in `pfsim` moves cache *permissions*; this crate
//! supplies the value semantics and judges them. Three pieces:
//!
//! - A shadow [`MachineModel`] driven by the simulator's
//!   [`CheckSink`](pfsim::CheckSink) hooks replays the data movement the
//!   protocol implies, so every simulated load resolves to the unique
//!   write it observed (or the initial value).
//! - An axiomatic [`Checker`] judges each observation against release
//!   consistency + per-location coherence, and a flat reference memory
//!   supplies a differential final-state comparison (a whole-run "no
//!   data lost or duplicated stale" audit).
//! - A delta-debugging [`shrink`]er turns random fuzz failures into
//!   minimal, ready-to-paste regression tests (see the `pfsim-fuzz`
//!   binary).
//!
//! The oracle follows the repo's instrumentation discipline: opt-in
//! (install per run, or `PFSIM_CHECK=1` through the bench runner),
//! zero-cost when off, and timing-neutral when on — every hook is
//! read-only with respect to simulator state, so pclock totals are
//! bit-identical with checking enabled.
//!
//! # Example
//!
//! ```
//! use pfsim::SystemConfig;
//! use pfsim_check::run_checked;
//! use pfsim_workloads::micro;
//!
//! let report = run_checked(
//!     SystemConfig::paper_baseline(),
//!     micro::sequential_walk(16, 64, 1),
//! );
//! assert!(report.ok, "{:?}", report.violations);
//! assert!(report.reads_checked > 0);
//! ```

#![warn(missing_docs)]

mod checker;
mod model;
mod oracle;
mod shrink;

pub use checker::{Checker, WriteMeta};
pub use model::{Block, FaultInjection, MachineModel, Observed, WriteId};
pub use oracle::{run_checked, run_with_fault, CheckReport, ConsistencyOracle};
pub use shrink::{emit_repro, shrink, total_ops, Lane, OpMatrix};
