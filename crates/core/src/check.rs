//! Correctness-observer hooks for online memory-consistency checking.
//!
//! The simulator is a *timing* model: it moves ownership and permissions,
//! not data values. A [`CheckSink`] installed with
//! [`System::set_check_sink`](crate::System::set_check_sink) receives a
//! callback at every event that moves simulated data — write issue, read
//! completion, cache fill, invalidation, directory memory access — which is
//! exactly enough for an external observer to maintain a *shadow* data
//! machine (who holds which value of every block) and check that each load
//! observes a write that release consistency and per-location coherence
//! permit. The `pfsim-check` crate implements such an oracle.
//!
//! Discipline (matching the instrumentation layer): the sink is opt-in and
//! `Option`-boxed, so the disabled path costs one branch per hook site;
//! hooks are read-only with respect to simulator state, so an installed
//! sink cannot perturb timing — pclock totals are identical with the
//! oracle on and off.

use pfsim_mem::{Addr, BlockAddr};
use std::any::Any;

/// Declares the hooks once. From one list it generates [`CheckSink`], with
/// a no-op default per hook, and [`HookCounts`], a sink that counts every
/// call; a test asserts that each hook fires.
macro_rules! check_hooks {
    ($(
        $(#[$meta:meta])*
        fn $hook:ident(&mut self $(, $arg:ident: $ty:ty)*);
    )*) => {
        /// Observer for the simulator's data-movement events.
        ///
        /// All methods default to no-ops so sinks implement only what they need.
        /// `cpu`/`home` are node indices; `block` identifiers are block-aligned.
        /// See the method docs for exactly when each fires relative to the
        /// protocol state change.
        #[expect(unused_variables, reason = "the default hooks ignore their arguments")]
        pub trait CheckSink {
            $(
                $(#[$meta])*
                fn $hook(&mut self $(, $arg: $ty)*) {}
            )*

            /// Deep-copies the sink mid-run so a checkpoint can capture observer
            /// state alongside machine state. A forked sink must continue from
            /// exactly the hook stream it has seen so far: restoring the snapshot
            /// and replaying the rest of the run produces the same verdict as a
            /// straight-through run. Sinks that cannot be duplicated return
            /// `None` (the default), which makes the whole system snapshot fail
            /// rather than silently dropping the observer.
            fn fork(&self) -> Option<Box<dyn CheckSink>> {
                None
            }

            /// Recovers the concrete sink after
            /// [`System::take_check_sink`](crate::System::take_check_sink) for
            /// result extraction.
            fn into_any(self: Box<Self>) -> Box<dyn Any>;
        }

        /// A [`CheckSink`] that counts the calls of every hook.
        #[derive(Debug, Clone, Default)]
        pub struct HookCounts {
            $(
                #[doc = concat!("Calls of [`CheckSink::", stringify!($hook), "`].")]
                pub $hook: u64,
            )*
        }

        impl HookCounts {
            /// `(hook, calls)` for every hook, in declaration order.
            pub fn counts(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($hook), self.$hook)),*]
            }
        }

        impl CheckSink for HookCounts {
            $(
                fn $hook(&mut self $(, _: $ty)*) {
                    self.$hook += 1;
                }
            )*

            fn into_any(self: Box<Self>) -> Box<dyn Any> {
                self
            }
        }
    };
}

check_hooks! {
    // ---- processor side -------------------------------------------------

    /// CPU `cpu` issued a store to `addr` into its write buffer (FLWB).
    /// The store is globally invisible until `write_applied`.
    fn write_issued(&mut self, cpu: u16, addr: Addr);

    /// CPU `cpu` load of `addr` hit the first-level cache and completed
    /// immediately (no `read_request`/`read_completed` pair follows).
    fn read_flc_hit(&mut self, cpu: u16, addr: Addr);

    /// CPU `cpu` load of `addr` reached the second-level cache; the CPU
    /// blocks until `read_completed` fires for the containing block.
    fn read_request(&mut self, cpu: u16, addr: Addr);

    /// The blocked load of CPU `cpu` on `block` completed; the value
    /// observed is whatever the node's copy of the block holds *now*.
    fn read_completed(&mut self, cpu: u16, block: BlockAddr);

    /// A buffered store of CPU `cpu` to `addr` drained into an SLC line
    /// already held Modified: it is globally performed at this instant.
    fn write_applied(&mut self, cpu: u16, addr: Addr);

    /// A buffered store of CPU `cpu` to `addr` drained but the line is not
    /// writable; it performs when ownership arrives (`fill` exclusive or
    /// `promote` for the containing block).
    fn write_deferred(&mut self, cpu: u16, addr: Addr);

    // ---- SLC / protocol side -------------------------------------------

    /// Node `cpu` received a data reply and filled `block`
    /// (`exclusive`: writable). Deferred stores to the block perform now
    /// if exclusive.
    fn fill(&mut self, cpu: u16, block: BlockAddr, exclusive: bool);

    /// Node `cpu`'s Shared copy of `block` was promoted to Modified
    /// (upgrade acknowledged with the copy still present). Deferred
    /// stores to the block perform now.
    fn promote(&mut self, cpu: u16, block: BlockAddr);

    /// Node `cpu`'s upgrade of `block` was acknowledged but the copy was
    /// invalidated in flight; the node relinquishes the (dataless) grant
    /// and re-requests exclusively.
    fn promote_failed(&mut self, cpu: u16, block: BlockAddr);

    /// Node `cpu` evicted `block`; if `dirty`, a writeback carrying the
    /// node's data is on its way to the home.
    fn evict(&mut self, cpu: u16, block: BlockAddr, dirty: bool);

    /// Node `cpu` invalidated its copy of `block` on a protocol
    /// invalidation.
    fn invalidated(&mut self, cpu: u16, block: BlockAddr);

    /// Node `cpu`, owner of `block`, was asked to supply it to the home
    /// (`had_copy`: it still held the line; `inval`: the fetch also
    /// invalidates the owner's copy). If `had_copy`, the node's data is
    /// on its way to the home.
    fn fetch_supplied(&mut self, cpu: u16, block: BlockAddr, inval: bool, had_copy: bool);

    // ---- synchronization ------------------------------------------------

    /// CPU `cpu`'s release of `lock` left the write buffer: all its prior
    /// stores have performed (the drain gate guarantees it).
    fn release_drained(&mut self, cpu: u16, lock: Addr);

    /// CPU `cpu`'s arrival at barrier `id` left the write buffer: all its
    /// prior stores have performed.
    fn barrier_drained(&mut self, cpu: u16, id: u32);

    /// CPU `cpu` was granted `lock` (acquire completes: the releaser's
    /// pre-release stores are now required reading).
    fn lock_granted(&mut self, cpu: u16, lock: Addr);

    /// CPU `cpu` was released from barrier `id` (everyone's pre-barrier
    /// stores are now required reading).
    fn barrier_released(&mut self, cpu: u16, id: u32);

    // ---- directory / home side ------------------------------------------

    /// Home `home` starts a directory action batch for `block` (demand
    /// request or invalidation-ack arrival).
    fn home_begin(&mut self, home: u16, block: BlockAddr);

    /// Home `home` starts a batch for a writeback of `block` from node
    /// `from` (the writeback's data — if any — is consumed by this batch).
    fn home_begin_writeback(&mut self, home: u16, block: BlockAddr, from: u16);

    /// Home `home` starts a batch for an owner's fetch reply for `block`
    /// (`had_copy`: the reply carries the owner's data).
    fn home_begin_fetch(&mut self, home: u16, block: BlockAddr, had_copy: bool);

    /// Within the current batch: home read `block` from memory (subsequent
    /// data replies in this batch carry memory's value).
    fn home_read_memory(&mut self, block: BlockAddr);

    /// Within the current batch: home wrote the batch's staged data (the
    /// writeback or fetch-reply payload) to memory.
    fn home_write_memory(&mut self, block: BlockAddr);

    /// Within the current batch: home sent a data reply for `block` to
    /// node `to`, carrying the staged data (or memory's value if nothing
    /// was staged).
    fn home_send_data(&mut self, block: BlockAddr, to: u16);

    // ---- lifecycle -------------------------------------------------------

    /// The simulation ran to completion: all traffic quiesced.
    fn run_finished(&mut self);
}
