//! `pfsim` — a program-driven simulator of the cache-coherent NUMA
//! multiprocessor of Dahlgren & Stenström, *"Effectiveness of
//! Hardware-Based Stride and Sequential Prefetching in Shared-Memory
//! Multiprocessors"* (HPCA 1995).
//!
//! Each of the 16 processing nodes couples a blocking-load processor, a
//! 4 KB write-through first-level cache, a FIFO first-level write buffer,
//! and a lockup-free write-back second-level cache (with its 16-entry
//! second-level write buffer) to a full-map write-invalidate directory and
//! interleaved memory, all connected by a 4×4 wormhole mesh. Release
//! consistency lets writes proceed under buffered stores; queue-based
//! locks live at memory. Prefetching — sequential, I-detection stride or
//! D-detection stride — attaches to the SLC (see [`pfsim_prefetch`]).
//!
//! The node organization (the paper's Figure 1):
//!
//! ```text
//!   ┌─────────────┐
//!   │  Processor  │ blocking loads, 100 MHz
//!   └──────┬──────┘
//!    ┌─────┴─────┐         ┌──────┐
//!    │    FLC    │◄────────┤ inval│ (block-invalidation pin)
//!    │ 4KB WT DM │         │  pin │
//!    └─────┬─────┘         └──▲───┘
//!    ┌─────┴─────┐            │
//!    │   FLWB    │ 8-entry FIFO (reads, writes, sync)
//!    └─────┬─────┘            │
//!    ┌─────┴────────────┬─────┴──┐
//!    │        SLC       │  SLWB  │ lockup-free WB cache + 16 MSHRs
//!    │  (+ prefetcher)  │        │
//!    └─────┬────────────┴────────┘
//!    ┌─────┴──────────────────────┐
//!    │ directory · memory · locks │ full-map, interleaved, 256-bit bus
//!    └─────┬──────────────────────┘
//!    ┌─────┴─────┐
//!    │ 4×4 mesh  │ wormhole, 32-bit flits
//!    └───────────┘
//! ```
//!
//! The simulator is deterministic: the same configuration and workload
//! produce the same interleaving, statistics and timing, as the paper's
//! methodology requires.
//!
//! # Quickstart
//!
//! ```
//! use pfsim::{System, SystemConfig};
//! use pfsim_prefetch::Scheme;
//! use pfsim_workloads::micro;
//!
//! // A 16-CPU sequential walk with degree-1 sequential prefetching:
//! let cfg = SystemConfig::paper_baseline().with_scheme(Scheme::Sequential { degree: 1 });
//! let result = System::new(cfg, micro::sequential_walk(16, 256, 1)).run();
//! println!(
//!     "misses: {}, prefetch efficiency: {:.2}",
//!     result.read_misses(),
//!     result.prefetch_efficiency(),
//! );
//! ```

#![warn(missing_docs)]

pub mod check;
pub mod checkpoint;
mod config;
pub mod experiment;
mod msg;
mod node;
mod stats;
mod sync;
mod system;

pub use check::{CheckSink, HookCounts};
pub use checkpoint::Checkpoint;
pub use config::{ConsistencyModel, RecordMisses, SystemConfig, SystemConfigBuilder};
pub use pfsim_coherence::{DirStats, MAX_SHARERS};
pub use pfsim_engine::metrics::{HistogramSnapshot, MetricsSnapshot};
pub use pfsim_engine::Cycle;
pub use pfsim_network::NetStats;
pub use stats::{MissCause, MissRecord, NodeStats, SimResult};
pub use sync::{BarrierTable, LockTable};
pub use system::System;
