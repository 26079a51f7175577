//! The online consistency oracle: a [`CheckSink`] that couples the
//! shadow [`MachineModel`] to the RC [`Checker`].

use crate::checker::Checker;
use crate::model::{FaultInjection, MachineModel, Observed};
use pfsim::{CheckSink, SimResult, System, SystemConfig};
use pfsim_mem::{Addr, BlockAddr, FxHashMap, Geometry};
use pfsim_workloads::Workload;
use std::any::Any;

/// The oracle: installs into a [`System`] via
/// [`set_check_sink`](System::set_check_sink) and judges every load of
/// the run; at completion the flat reference memory is compared against
/// the machine's final state.
#[derive(Clone)]
pub struct ConsistencyOracle {
    geometry: Geometry,
    model: MachineModel,
    checker: Checker,
    /// Per cpu: the byte address of the blocked load awaiting completion.
    pending_read: Vec<Option<Addr>>,
    finished: bool,
    final_violations: Vec<String>,
}

impl ConsistencyOracle {
    /// An oracle for a machine with `nodes` processors.
    pub fn new(geometry: Geometry, nodes: usize) -> Self {
        Self::with_fault(geometry, nodes, FaultInjection::None)
    }

    /// An oracle whose *model* deliberately mis-models the protocol (the
    /// simulator is untouched); the run must then report violations,
    /// which validates the oracle's sensitivity.
    pub fn with_fault(geometry: Geometry, nodes: usize, fault: FaultInjection) -> Self {
        ConsistencyOracle {
            geometry,
            model: MachineModel::new(geometry, nodes, fault),
            checker: Checker::new(nodes),
            pending_read: vec![None; nodes],
            finished: false,
            final_violations: Vec::new(),
        }
    }

    /// `true` when no violation of any kind was found.
    pub fn ok(&self) -> bool {
        self.checker.violations().is_empty()
            && self.model.desync().is_empty()
            && self.final_violations.is_empty()
    }

    /// All violations: consistency, model desynchronization, final state.
    pub fn violations(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        out.extend(self.checker.violations().iter().cloned());
        out.extend(
            self.model
                .desync()
                .iter()
                .map(|d| format!("model desync: {d}")),
        );
        out.extend(self.final_violations.iter().cloned());
        out
    }

    /// Load observations judged.
    pub fn reads_checked(&self) -> u64 {
        self.checker.reads_checked()
    }

    /// Stores tracked.
    pub fn writes_tracked(&self) -> u64 {
        self.checker.writes_tracked()
    }

    fn observe_at(&mut self, cpu: u16, addr: Addr) {
        let obs = self.model.observe(cpu, addr);
        self.checker.observe(cpu, addr, obs);
    }
}

impl CheckSink for ConsistencyOracle {
    fn write_issued(&mut self, cpu: u16, addr: Addr) {
        let id = self.checker.issue(cpu, addr);
        self.model.write_issued(cpu, addr, id);
    }

    fn read_flc_hit(&mut self, cpu: u16, addr: Addr) {
        self.observe_at(cpu, addr);
    }

    fn read_request(&mut self, cpu: u16, addr: Addr) {
        self.pending_read[cpu as usize] = Some(addr);
    }

    fn read_completed(&mut self, cpu: u16, block: BlockAddr) {
        match self.pending_read[cpu as usize].take() {
            Some(addr) if self.geometry.block_of(addr) == block => self.observe_at(cpu, addr),
            // A completion for a block the cpu never requested (or with
            // no request outstanding) is itself a protocol bug; surface
            // it through the checker as an impossible observation.
            _ => self
                .checker
                .observe(cpu, Addr::new(block.as_u64()), Observed::Applied(u64::MAX)),
        }
    }

    fn write_applied(&mut self, cpu: u16, addr: Addr) {
        if let Some(id) = self.model.write_applied(cpu, addr) {
            self.checker.apply(id);
        }
    }

    fn write_deferred(&mut self, cpu: u16, addr: Addr) {
        self.model.write_deferred(cpu, addr);
    }

    fn fill(&mut self, cpu: u16, block: BlockAddr, exclusive: bool) {
        for id in self.model.fill(cpu, block, exclusive) {
            self.checker.apply(id);
        }
    }

    fn promote(&mut self, cpu: u16, block: BlockAddr) {
        for id in self.model.promote(cpu, block) {
            self.checker.apply(id);
        }
    }

    fn promote_failed(&mut self, cpu: u16, block: BlockAddr) {
        self.model.promote_failed(cpu, block);
    }

    fn evict(&mut self, cpu: u16, block: BlockAddr, dirty: bool) {
        self.model.evict(cpu, block, dirty);
    }

    fn invalidated(&mut self, cpu: u16, block: BlockAddr) {
        self.model.invalidated(cpu, block);
    }

    fn fetch_supplied(&mut self, cpu: u16, block: BlockAddr, inval: bool, had_copy: bool) {
        self.model.fetch_supplied(cpu, block, inval, had_copy);
    }

    fn release_drained(&mut self, cpu: u16, lock: Addr) {
        self.checker.release(cpu, lock);
    }

    fn barrier_drained(&mut self, cpu: u16, id: u32) {
        self.checker.barrier_arrive(cpu, id);
    }

    fn lock_granted(&mut self, cpu: u16, lock: Addr) {
        self.checker.acquire(cpu, lock);
    }

    fn barrier_released(&mut self, cpu: u16, id: u32) {
        self.checker.barrier_release(cpu, id);
    }

    fn home_begin(&mut self, _home: u16, _block: BlockAddr) {
        self.model.home_begin();
    }

    fn home_begin_writeback(&mut self, _home: u16, block: BlockAddr, from: u16) {
        self.model.home_begin_writeback(block, from);
    }

    fn home_begin_fetch(&mut self, _home: u16, block: BlockAddr, had_copy: bool) {
        self.model.home_begin_fetch(block, had_copy);
    }

    fn home_read_memory(&mut self, block: BlockAddr) {
        self.model.home_read_memory(block);
    }

    fn home_write_memory(&mut self, block: BlockAddr) {
        self.model.home_write_memory(block);
    }

    fn home_send_data(&mut self, block: BlockAddr, to: u16) {
        self.model.home_send_data(block, to);
    }

    fn run_finished(&mut self) {
        self.finished = true;
        for id in self.checker.unapplied() {
            self.final_violations
                .push(format!("{} never performed", self.checker.describe(id)));
        }
        let mut expected: FxHashMap<u64, crate::model::Block> = FxHashMap::default();
        for (&addr, &id) in self.checker.flat().sorted_entries() {
            let b = self.geometry.block_of(Addr::new(addr)).as_u64();
            expected.entry(b).or_default().insert(addr, id);
        }
        let checker = &self.checker;
        self.final_violations.extend(
            self.model
                .final_state_violations(&expected, |id| checker.describe(id)),
        );
    }

    fn fork(&self) -> Option<Box<dyn CheckSink>> {
        Some(Box::new(self.clone()))
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Result of a checked run.
pub struct CheckReport {
    /// The simulation's statistics (timing is unaffected by the oracle).
    pub result: SimResult,
    /// No violations found.
    pub ok: bool,
    /// Everything found, in discovery order.
    pub violations: Vec<String>,
    /// Load observations judged.
    pub reads_checked: u64,
    /// Stores tracked.
    pub writes_tracked: u64,
}

/// Runs `workload` on `cfg` with the oracle installed.
pub fn run_checked<W: Workload>(cfg: SystemConfig, workload: W) -> CheckReport {
    run_with_fault(cfg, workload, FaultInjection::None)
}

/// As [`run_checked`], with a deliberate model defect injected (for
/// validating that the oracle catches the corresponding bug class).
pub fn run_with_fault<W: Workload>(
    cfg: SystemConfig,
    workload: W,
    fault: FaultInjection,
) -> CheckReport {
    let geometry = cfg.geometry;
    let nodes = cfg.nodes as usize;
    let mut sys = System::new(cfg, workload);
    sys.set_check_sink(Box::new(ConsistencyOracle::with_fault(
        geometry, nodes, fault,
    )));
    let result = sys.run();
    let oracle = sys
        .take_check_sink()
        .expect("sink installed above")
        .into_any()
        .downcast::<ConsistencyOracle>()
        .expect("sink is the oracle");
    CheckReport {
        result,
        ok: oracle.ok(),
        violations: oracle.violations(),
        reads_checked: oracle.reads_checked(),
        writes_tracked: oracle.writes_tracked(),
    }
}
