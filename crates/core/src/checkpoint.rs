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
//! original system straight through. The snapshot therefore copies
//! *every* field of [`System`] by exhaustive destructuring (no `..` rest
//! patterns, no `Default::default()` fills; a test below keeps it that
//! way), so adding machine state without snapshotting it is a compile
//! error. `Node` and `Obs` derive `Clone`, which cannot skip a field
//! either.

use crate::check::CheckSink;
use crate::node::Node;
use crate::system::{Obs, System};
use pfsim_workloads::Workload;

/// A paused machine state, cheap to fork into fresh [`System`]s.
///
/// Obtained from [`System::snapshot`]; consumed (by reference, any number
/// of times) by [`System::restore`]. The type parameter is the workload:
/// the snapshot owns a copy of the workload cursor so restored systems
/// replay the remaining references identically.
pub struct Checkpoint<W> {
    cfg: crate::SystemConfig,
    workload: W,
    queue: pfsim_engine::EventQueue<crate::system::Ev>,
    mesh: pfsim_network::Mesh,
    nodes: Vec<Node>,
    last_time: crate::system::Clock,
    dir_actions: pfsim_coherence::ActionBuf,
    obs: Obs,
    check: Option<Box<dyn CheckSink>>,
    started: bool,
}

impl<W: Workload> System<W> {
    /// Captures the complete machine state.
    ///
    /// Returns `None` when a check sink is installed that does not
    /// support [`CheckSink::fork`] — refusing the snapshot outright beats
    /// silently dropping the observer mid-run.
    pub fn snapshot(&self) -> Option<Checkpoint<W>>
    where
        W: Clone,
    {
        let System {
            cfg,
            workload,
            queue,
            mesh,
            nodes,
            last_time,
            dir_actions,
            obs,
            check,
            started,
        } = self;
        let check = match check {
            None => None,
            Some(sink) => Some(sink.fork()?),
        };
        Some(Checkpoint {
            cfg: cfg.clone(),
            workload: workload.clone(),
            queue: queue.clone(),
            mesh: mesh.clone(),
            nodes: nodes.clone(),
            last_time: *last_time,
            dir_actions: dir_actions.clone(),
            obs: obs.clone(),
            check,
            started: *started,
        })
    }

    /// Builds a fresh system from a checkpoint. Restoring the same
    /// checkpoint N times yields N independent, bit-identical machines.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's stored check sink refuses to fork —
    /// impossible for a consistent [`CheckSink::fork`] implementation,
    /// since the sink already forked once to get into the checkpoint.
    pub fn restore(checkpoint: &Checkpoint<W>) -> System<W>
    where
        W: Clone,
    {
        let Checkpoint {
            cfg,
            workload,
            queue,
            mesh,
            nodes,
            last_time,
            dir_actions,
            obs,
            check,
            started,
        } = checkpoint;
        let check = check.as_ref().map(|sink| {
            sink.fork()
                .expect("a check sink that forked into a checkpoint must fork out of it")
        });
        System {
            cfg: cfg.clone(),
            workload: workload.clone(),
            queue: queue.clone(),
            mesh: mesh.clone(),
            nodes: nodes.clone(),
            last_time: *last_time,
            dir_actions: dir_actions.clone(),
            obs: obs.clone(),
            check,
            started: *started,
        }
    }
}

#[cfg(test)]
mod tests {
    /// The snapshot and restore paths above destructure and rebuild
    /// `System` and `Checkpoint` field by field. A `..` rest pattern, a
    /// `..base` struct update or a `Default::default()` fill would let a
    /// newly added field escape the checkpoint without a compile error.
    #[test]
    fn snapshot_code_names_every_field() {
        let src = include_str!("checkpoint.rs");
        let code: String = src
            .split("#[cfg(test)]")
            .next()
            .unwrap_or(src)
            .lines()
            .map(|l| l.split("//").next().unwrap_or(""))
            .collect::<String>()
            .split_whitespace()
            .collect();
        for banned in ["..}", "..)", "{..", ",..", "Default::default"] {
            assert!(!code.contains(banned), "checkpoint.rs contains `{banned}`");
        }
    }
}
