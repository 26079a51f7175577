//! `pfsim-benchmark`: the one harness pfsim's performance is measured
//! with.
//!
//! A *timed* run simulates one workload — a pinned grid of the simulator —
//! in full passes for a time budget and reports the end-to-end metrics
//! (pass wall-clock, simulated pclocks per second, trace set-up time, peak
//! RSS), checking every cell against its pinned pclock anchor. A *traced*
//! run produces the per-layer table: counts from the simulator's own
//! statistics, host costs from replaying each layer's recorded input stream
//! through that layer's public API. See `README.md` for the metric tables
//! and how to run it.

#![warn(missing_docs)]

pub mod grid;
pub mod metrics;
pub mod report;
pub mod stats;
pub mod timed;
pub mod traced;
