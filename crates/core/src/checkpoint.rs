//! Warmup checkpointing: snapshot a paused [`System`] and fork cheap
//! copies of it.
//!
//! The paper's methodology sweeps many prefetching-scheme cells over the
//! *same* warmed-up machine. Re-simulating the identical warmup prefix
//! from cold for every cell is pure waste; a [`Checkpoint`] captures the
//! full machine state once — calendar queue (with its seq counter),
//! per-node caches, MSHRs and write buffers, directory, mesh in-flight
//! traffic, prefetcher tables, workload cursor (which carries any
//! workload RNG), pclock counters, the optional consistency oracle — and
//! every cell restores from it, so an N-cell ablation costs one warmup
//! plus N deltas.
//!
//! Bit-identity is the contract: `System::restore(&sys.snapshot())`
//! followed by [`System::run`](System::run) produces exactly the
//! `SimResult`, metrics snapshot and oracle-hook stream of running the
//! original system straight through. A checkpoint is therefore a paused
//! [`System`], and snapshot and restore are the same fork: the machine
//! state derives `Clone`, which cannot skip a field, and the check sink
//! forks through [`CheckSink::fork`](crate::CheckSink::fork).

use crate::system::System;
use pfsim_workloads::Workload;

/// A paused machine state, cheap to fork into fresh [`System`]s.
///
/// Obtained from [`System::snapshot`]; consumed (by reference, any number
/// of times) by [`System::restore`]. The type parameter is the workload:
/// the snapshot owns a copy of the workload cursor so restored systems
/// replay the remaining references identically.
pub struct Checkpoint<W>(System<W>);

impl<W: Workload + Clone> System<W> {
    /// An independent copy of this system: the machine state cloned and
    /// the check sink forked. `None` when the sink cannot fork.
    fn fork(&self) -> Option<System<W>> {
        let check = match &self.check {
            None => None,
            Some(sink) => Some(sink.fork()?),
        };
        Some(System {
            machine: self.machine.clone(),
            check,
        })
    }

    /// Captures the complete machine state.
    ///
    /// Returns `None` when a check sink is installed that does not
    /// support [`CheckSink::fork`](crate::CheckSink::fork) — refusing the
    /// snapshot outright beats silently dropping the observer mid-run.
    pub fn snapshot(&self) -> Option<Checkpoint<W>> {
        self.fork().map(Checkpoint)
    }

    /// Builds a fresh system from a checkpoint. Restoring the same
    /// checkpoint N times yields N independent, bit-identical machines.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's stored check sink refuses to fork —
    /// impossible for a consistent
    /// [`CheckSink::fork`](crate::CheckSink::fork) implementation, since
    /// the sink already forked once to get into the checkpoint.
    pub fn restore(checkpoint: &Checkpoint<W>) -> System<W> {
        checkpoint
            .0
            .fork()
            .expect("a check sink that forked into a checkpoint must fork out of it")
    }
}
