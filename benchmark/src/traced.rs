//! The traced run: the per-layer table.
//!
//! Counts come from `SimResult` and the observability registry of a
//! recording pass. Host costs come from replays: the recording pass
//! captures each layer's input stream through public hooks (a
//! [`CheckSink`] and `RecordMisses::All`), and each stream is replayed
//! through the layer's public API alone, timed here, so the simulator
//! crates stay clock-free. What the replays do not explain is the core
//! residual: CPU step, FLC, write buffers, MSHRs and glue.

use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use pfsim::experiment::figure6_schemes;
use pfsim::{CheckSink, RecordMisses, SimResult, System, SystemConfig};
use pfsim_bench::{cursor_for, shared_trace_for};
use pfsim_cache::{Eviction, LineState, SecondLevelCache};
use pfsim_check::ConsistencyOracle;
use pfsim_coherence::{ActionBuf, DirAction, DirRequest, Directory};
use pfsim_engine::{Cycle, EventQueue};
use pfsim_mem::{Addr, BlockAddr, Geometry, NodeId, SplitMix64};
use pfsim_network::{Mesh, MessageKind};
use pfsim_prefetch::{ReadAccess, ReadOutcome, Scheme};
use pfsim_workloads::{App, Workload};

use crate::grid::{scheme_label, Grid};
use crate::stats::median;
use crate::timed::{measure_setup, pass};

// ---------------------------------------------------------------------
// The recorded node-side stream
// ---------------------------------------------------------------------

/// One node-side event of the recorded SLC/protocol stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
    FillShared,
    FillExclusive,
    Promote,
    PromoteFailed,
    EvictClean,
    EvictDirty,
    Invalidate,
    Downgrade,
    FetchInvalidate,
}

const KINDS: [Kind; 11] = [
    Kind::Read,
    Kind::Write,
    Kind::FillShared,
    Kind::FillExclusive,
    Kind::Promote,
    Kind::PromoteFailed,
    Kind::EvictClean,
    Kind::EvictDirty,
    Kind::Invalidate,
    Kind::Downgrade,
    Kind::FetchInvalidate,
];

/// Packs an event into one word: kind in bits 0..4, node in 4..12, block
/// from bit 16 (48 bits of block number, far beyond any trace's range).
fn pack(kind: Kind, cpu: u16, block: BlockAddr) -> u64 {
    assert!(cpu < 256 && block.as_u64() < 1 << 48, "event out of range");
    kind as u64 | u64::from(cpu) << 4 | block.as_u64() << 16
}

fn unpack(e: u64) -> (Kind, usize, BlockAddr) {
    (
        KINDS[(e & 0xf) as usize],
        ((e >> 4) & 0xff) as usize,
        BlockAddr::new(e >> 16),
    )
}

/// A [`CheckSink`] recording every SLC-visible event in order.
struct Recorder {
    geometry: Geometry,
    events: Vec<u64>,
}

impl Recorder {
    fn push(&mut self, kind: Kind, cpu: u16, block: BlockAddr) {
        self.events.push(pack(kind, cpu, block));
    }
}

impl CheckSink for Recorder {
    fn read_request(&mut self, cpu: u16, addr: Addr) {
        self.push(Kind::Read, cpu, self.geometry.block_of(addr));
    }
    fn write_applied(&mut self, cpu: u16, addr: Addr) {
        self.push(Kind::Write, cpu, self.geometry.block_of(addr));
    }
    fn write_deferred(&mut self, cpu: u16, addr: Addr) {
        self.push(Kind::Write, cpu, self.geometry.block_of(addr));
    }
    fn fill(&mut self, cpu: u16, block: BlockAddr, exclusive: bool) {
        let kind = if exclusive {
            Kind::FillExclusive
        } else {
            Kind::FillShared
        };
        self.push(kind, cpu, block);
    }
    fn promote(&mut self, cpu: u16, block: BlockAddr) {
        self.push(Kind::Promote, cpu, block);
    }
    fn promote_failed(&mut self, cpu: u16, block: BlockAddr) {
        self.push(Kind::PromoteFailed, cpu, block);
    }
    fn evict(&mut self, cpu: u16, block: BlockAddr, dirty: bool) {
        let kind = if dirty {
            Kind::EvictDirty
        } else {
            Kind::EvictClean
        };
        self.push(kind, cpu, block);
    }
    fn invalidated(&mut self, cpu: u16, block: BlockAddr) {
        self.push(Kind::Invalidate, cpu, block);
    }
    fn fetch_supplied(&mut self, cpu: u16, block: BlockAddr, inval: bool, _had_copy: bool) {
        let kind = if inval {
            Kind::FetchInvalidate
        } else {
            Kind::Downgrade
        };
        self.push(kind, cpu, block);
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

// ---------------------------------------------------------------------
// Replays
// ---------------------------------------------------------------------

/// Time and operation count of one replay.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    seconds: f64,
    ops: u64,
}

impl Cost {
    fn add(&mut self, other: Cost) {
        self.seconds += other.seconds;
        self.ops += other.ops;
    }

    /// Nanoseconds per operation (0 when nothing was replayed).
    fn ns_per_op(self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.seconds * 1e9 / self.ops as f64
        }
    }
}

/// The median-time one of `reps` repetitions of the replay `f`.
fn median_of(reps: usize, mut f: impl FnMut() -> Cost) -> Cost {
    let mut runs: Vec<Cost> = (0..reps).map(|_| f()).collect();
    runs.sort_by(|a, b| a.seconds.total_cmp(&b.seconds));
    runs[reps / 2]
}

/// What the SLC replay saw besides its cost.
struct SlcReplay {
    cost: Cost,
    demand_reads: u64,
    evictions: u64,
    recorded_evictions: u64,
}

/// Replays the recorded stream through one `SecondLevelCache` per node.
fn replay_slc(events: &[u64], cfg: &SystemConfig) -> SlcReplay {
    let mut slcs: Vec<SecondLevelCache> = (0..cfg.nodes)
        .map(|_| SecondLevelCache::with_block_bytes(cfg.slc, cfg.geometry.block_bytes()))
        .collect();
    let mut evictions = 0u64;
    let start = Instant::now();
    for &e in events {
        let (kind, cpu, block) = unpack(e);
        let slc = &mut slcs[cpu];
        match kind {
            Kind::Read => {
                black_box(slc.demand_access(block));
            }
            Kind::Write => {
                black_box(slc.write_access(block));
            }
            Kind::FillShared | Kind::FillExclusive => {
                let state = if kind == Kind::FillExclusive {
                    LineState::Modified
                } else {
                    LineState::Shared
                };
                if slc.fill(block, state, false) != Eviction::None {
                    evictions += 1;
                }
            }
            Kind::Promote | Kind::PromoteFailed => {
                black_box(slc.promote(block));
            }
            Kind::Invalidate | Kind::FetchInvalidate => {
                black_box(slc.invalidate(block));
            }
            Kind::Downgrade => {
                black_box(slc.downgrade(block));
            }
            // The victim already left inside the fill that displaced it.
            Kind::EvictClean | Kind::EvictDirty => {}
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let count = |f: fn(Kind) -> bool| events.iter().filter(|&&e| f(unpack(e).0)).count() as u64;
    SlcReplay {
        cost: Cost {
            seconds,
            ops: count(|k| !matches!(k, Kind::EvictClean | Kind::EvictDirty)),
        },
        demand_reads: count(|k| k == Kind::Read),
        evictions,
        recorded_evictions: count(|k| matches!(k, Kind::EvictClean | Kind::EvictDirty)),
    }
}

/// One directory request of the replay, with its home precomputed.
struct Request {
    home: u16,
    block: BlockAddr,
    req: DirRequest,
}

/// The requests the recorded node-side events imply, in completion order:
/// a fill is the read (shared or exclusive) it completed, a promotion the
/// upgrade, a failed promotion the upgrade plus the relinquishing
/// writeback, a dirty eviction the writeback.
fn dir_requests(events: &[u64], cfg: &SystemConfig) -> Vec<Request> {
    let mut out = Vec::new();
    for &e in events {
        let (kind, cpu, block) = unpack(e);
        let from = NodeId::new(cpu as u16);
        let home = cfg
            .placement
            .home_of(cfg.geometry.page_of_block(block))
            .as_u16();
        let mut push = |req| out.push(Request { home, block, req });
        match kind {
            Kind::FillShared => push(DirRequest::read_shared(from)),
            Kind::FillExclusive => push(DirRequest::ReadExclusive { from }),
            Kind::Promote => push(DirRequest::Upgrade { from }),
            Kind::PromoteFailed => {
                push(DirRequest::Upgrade { from });
                push(DirRequest::Writeback { from });
            }
            Kind::EvictDirty => push(DirRequest::Writeback { from }),
            _ => {}
        }
    }
    out
}

/// One mesh message the directory replay implies: `(from, to, flits)`.
type Msg = (u16, u16, u64);

/// Replays `requests` through one `Directory` per home, resolving every
/// fetch and invalidation inline (the owner always still holds its copy;
/// every sharer acknowledges at once). With `msgs`, also collects the
/// protocol messages each request costs.
fn replay_directory(
    requests: &[Request],
    cfg: &SystemConfig,
    mut msgs: Option<&mut Vec<Msg>>,
) -> Cost {
    let control = MessageKind::Control.flits_for(cfg.geometry.block_bytes());
    let data = MessageKind::Data.flits_for(cfg.geometry.block_bytes());
    let mut dirs: Vec<Directory> = (0..cfg.nodes).map(|_| Directory::new(cfg.nodes)).collect();
    let (mut cur, mut next) = (ActionBuf::new(), ActionBuf::new());
    let start = Instant::now();
    for r in requests {
        let dir = &mut dirs[r.home as usize];
        let home = r.home;
        let mut send = |from: u16, to: u16, flits: u64| {
            if let Some(m) = msgs.as_deref_mut() {
                m.push((from, to, flits));
            }
        };
        let from = r.req.from().as_u16();
        let req_flits = if matches!(r.req, DirRequest::Writeback { .. }) {
            data
        } else {
            control
        };
        send(from, home, req_flits);
        cur.clear();
        dir.request(r.block, r.req, &mut cur);
        while !cur.is_empty() {
            next.clear();
            for action in cur.iter() {
                match action {
                    DirAction::SendData { to, .. } => send(home, to.as_u16(), data),
                    DirAction::SendAck { to } => send(home, to.as_u16(), control),
                    DirAction::Fetch { owner } | DirAction::FetchInval { owner } => {
                        send(home, owner.as_u16(), control);
                        send(owner.as_u16(), home, data);
                        dir.fetch_done(r.block, true, &mut next);
                    }
                    DirAction::Invalidate { targets } => {
                        for t in targets.iter() {
                            send(home, t.as_u16(), control);
                            send(t.as_u16(), home, control);
                            dir.inval_ack(r.block, &mut next);
                        }
                    }
                    DirAction::ReadMemory | DirAction::WriteMemory => {}
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
    }
    Cost {
        seconds: start.elapsed().as_secs_f64(),
        ops: requests.len() as u64,
    }
}

/// Sends `msgs` through a fresh `Mesh`, injected evenly at the run's
/// measured messages per pclock.
fn replay_mesh(msgs: &[Msg], cfg: &SystemConfig, r: &SimResult) -> Cost {
    let pclocks_per_msg = r.exec_cycles as f64 / r.net.messages.max(1) as f64;
    let timed: Vec<(Cycle, NodeId, NodeId, u64)> = msgs
        .iter()
        .enumerate()
        .map(|(i, &(from, to, flits))| {
            let at = Cycle::new((i as f64 * pclocks_per_msg) as u64);
            (at, NodeId::new(from), NodeId::new(to), flits)
        })
        .collect();
    let mut mesh = Mesh::new(cfg.mesh);
    let start = Instant::now();
    for &(at, from, to, flits) in &timed {
        black_box(mesh.send(at, from, to, flits));
    }
    Cost {
        seconds: start.elapsed().as_secs_f64(),
        ops: timed.len() as u64,
    }
}

/// The three schemes the prefetcher replay times, in report order.
const PREFETCHERS: [Scheme; 3] = [
    Scheme::IDetection { degree: 1 },
    Scheme::DDetection { degree: 1 },
    Scheme::Sequential { degree: 1 },
];

/// Replays every node's recorded miss stream through a fresh `scheme`
/// prefetcher per node.
fn replay_prefetcher(r: &SimResult, scheme: Scheme, geometry: Geometry) -> Cost {
    let mut pfs: Vec<_> = r
        .miss_traces
        .iter()
        .map(|_| scheme.build(geometry))
        .collect();
    let mut out = Vec::new();
    let mut ops = 0u64;
    let start = Instant::now();
    for (trace, pf) in r.miss_traces.iter().zip(&mut pfs) {
        for m in trace {
            let access = ReadAccess {
                pc: m.pc,
                addr: m.addr,
                outcome: ReadOutcome::Miss,
            };
            pf.on_read(&access, &mut out);
            black_box(&out);
            out.clear();
        }
        ops += trace.len() as u64;
    }
    Cost {
        seconds: start.elapsed().as_secs_f64(),
        ops,
    }
}

/// A full `TraceCursor::next` sweep over the trace of `app`.
fn decode_sweep(app: App, grid: &Grid) -> Cost {
    let mut cursor = cursor_for(app, grid.size, grid.cpus());
    let cpus = cursor.num_cpus();
    let mut ops = 0u64;
    let start = Instant::now();
    for cpu in 0..cpus {
        while let Some(op) = cursor.next(cpu) {
            black_box(op);
            ops += 1;
        }
    }
    Cost {
        seconds: start.elapsed().as_secs_f64(),
        ops,
    }
}

/// An event of the simulator's size class (a node index plus a protocol
/// message) for the queue hold model.
type HoldEvent = [u64; 3];

/// The classic hold model on an `EventQueue`: keep `depth` events queued,
/// and `ops` times pop the earliest and schedule one successor. The
/// successor's delay follows the workload's event-kind mix (`mix`: CPU
/// steps, SLC work, deliveries), with a representative delay per kind: a
/// CPU slice of up to 32 pclocks, the 3-pclock SLC service, a mesh
/// traversal of 6 to 45 pclocks.
fn queue_hold(depth: usize, mix: [u64; 3], ops: usize, rng: &mut SplitMix64) -> Cost {
    let total: u64 = mix.iter().sum::<u64>().max(1);
    let delays: Vec<u64> = (0..1 << 16)
        .map(|_| {
            let pick = rng.below(total);
            if pick < mix[0] {
                1 + rng.below(32)
            } else if pick < mix[0] + mix[1] {
                3
            } else {
                6 + rng.below(40)
            }
        })
        .collect();
    let mut q: EventQueue<HoldEvent> = EventQueue::new();
    for i in 0..depth.max(1) {
        q.schedule(Cycle::new(delays[i % delays.len()]), [i as u64; 3]);
    }
    let start = Instant::now();
    for i in 0..ops {
        let (at, ev) = q.pop().expect("the hold model keeps the queue non-empty");
        q.schedule(at + delays[i % delays.len()], black_box(ev));
    }
    Cost {
        seconds: start.elapsed().as_secs_f64(),
        ops: ops as u64,
    }
}

/// Hold-model operations timed per run: enough for a stable mean, few
/// enough to stay a small part of the traced run.
const HOLD_OPS: usize = 4_000_000;

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// The per-layer table of one traced run, plus its checks.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Per-layer metric values, every name of
    /// [`PER_LAYER`](crate::metrics::PER_LAYER).
    pub values: BTreeMap<&'static str, f64>,
    /// Cells checked.
    pub cells_run: u64,
    /// Cells failing an anchor or a stream-fidelity check.
    pub cells_failed: u64,
    /// What went wrong (empty when correct).
    pub failures: Vec<String>,
}

/// Sums over the traced cells.
#[derive(Debug, Default)]
struct Totals {
    ops: u64,
    untraced_s: f64,
    traced_s: f64,
    cell_s_max: f64,
    events: u64,
    event_mix: [u64; 3],
    queue_depth: (u64, u64),
    mshr: (u64, u64),
    slc: Cost,
    slc_reads: u64,
    slc_read_hits: u64,
    evictions: u64,
    dir: Cost,
    invalidations: u64,
    mesh: Cost,
    messages: u64,
    flit_hops: u64,
    queuing: u64,
    issued: u64,
    useful: u64,
    dropped: u64,
    prefetch: [Cost; 3],
    /// Read misses of the cells running each of [`PREFETCHERS`]: the
    /// detection work the replay times (plain hits do little or nothing).
    prefetch_misses: [u64; 3],
    read_stall: u64,
    cpu_cycles: u64,
}

/// Simulates `workload` on `cfg` with the recorder, miss recording and
/// instrumentation on. Returns the result, the recorded stream and the
/// simulation's seconds.
fn record<W: Workload>(cfg: &SystemConfig, workload: W) -> (SimResult, Vec<u64>, f64) {
    let cfg = cfg
        .clone()
        .with_recording(RecordMisses::All)
        .with_instrumentation(true);
    let geometry = cfg.geometry;
    let mut sys = System::new(cfg, workload);
    sys.set_check_sink(Box::new(Recorder {
        geometry,
        events: Vec::new(),
    }));
    let start = Instant::now();
    let r = sys.run();
    let seconds = start.elapsed().as_secs_f64();
    let recorder = sys
        .take_check_sink()
        .expect("installed above")
        .into_any()
        .downcast::<Recorder>()
        .expect("the sink is the recorder");
    (r, recorder.events, seconds)
}

/// Records one simulation of `workload` on `cfg` and replays its streams.
/// Returns every stream-fidelity failure: empty when the replays saw
/// exactly the stream the simulation made.
pub fn check_streams<W: Workload>(cfg: &SystemConfig, workload: W) -> Vec<String> {
    let (r, events, _) = record(cfg, workload);
    account(cfg, &r, &events, &mut Totals::default())
}

/// Replays one recorded simulation's streams, adds its counts and costs
/// to `t`, and returns the stream-fidelity failures.
fn account(cfg: &SystemConfig, r: &SimResult, events: &[u64], t: &mut Totals) -> Vec<String> {
    let mut failures = Vec::new();
    let slc = replay_slc(events, cfg);
    let slc_reads = r.total(|n| n.reads - n.flc_read_hits);
    if slc.demand_reads != slc_reads {
        failures.push(format!(
            "replayed {} SLC demand reads, the run made {slc_reads}",
            slc.demand_reads
        ));
    }
    if slc.evictions != slc.recorded_evictions {
        failures.push(format!(
            "replayed fills evict {} lines, the run evicted {}",
            slc.evictions, slc.recorded_evictions
        ));
    }
    let misses: u64 = r.miss_traces.iter().map(|m| m.len() as u64).sum();
    if misses != r.read_misses() {
        failures.push(format!(
            "miss stream holds {misses} misses, the run counted {}",
            r.read_misses()
        ));
    }
    t.slc.add(slc.cost);
    t.slc_reads += slc_reads;
    t.slc_read_hits += r.total(|n| n.slc_read_hits);
    t.evictions += slc.evictions;

    let requests = dir_requests(events, cfg);
    t.dir.add(replay_directory(&requests, cfg, None));
    let mut msgs = Vec::new();
    replay_directory(&requests, cfg, Some(&mut msgs));
    t.mesh.add(replay_mesh(&msgs, cfg, r));
    t.invalidations += r.dir.invalidations;
    t.messages += r.net.messages;
    t.flit_hops += r.net.flit_hops;
    t.queuing += r.net.queuing_cycles;

    for (i, &scheme) in PREFETCHERS.iter().enumerate() {
        t.prefetch[i].add(replay_prefetcher(r, scheme, cfg.geometry));
        if cfg.scheme == scheme {
            t.prefetch_misses[i] += r.read_misses();
        }
    }
    t.issued += r.total(|n| n.prefetches_issued);
    t.useful += r.total(|n| n.prefetches_useful);
    t.dropped += r.total(|n| n.pf_dropped_present + n.pf_dropped_inflight + n.pf_dropped_full);
    t.read_stall += r.read_stall();
    t.cpu_cycles += r.exec_cycles * r.nodes.len() as u64;

    let m = r.metrics.as_ref().expect("the traced cell is instrumented");
    let counter = |name| m.counter(name).unwrap_or(0);
    let mix = [
        counter("ev_cpu_step"),
        counter("ev_slc_work"),
        counter("ev_deliver"),
    ];
    for (acc, v) in t.event_mix.iter_mut().zip(mix) {
        *acc += v;
    }
    t.events += mix.iter().sum::<u64>();
    for (acc, name) in [
        (&mut t.queue_depth, "queue_depth"),
        (&mut t.mshr, "mshr_occupancy"),
    ] {
        if let Some(h) = m.histogram(name) {
            acc.0 += h.sum;
            acc.1 += h.count;
        }
    }
    failures
}

/// Runs the traced measurement of `grid`, with cell orders drawn from
/// `seed`: one full pass (anchors, manifest costs, and a warm process),
/// then per cell an untraced and a recording simulation back to back with
/// every replay, then the decode sweep, the queue hold model and the
/// oracle pass.
pub fn run_traced(grid: &Grid, seed: u64, out_dir: &Path) -> TracedRun {
    let setup = measure_setup(grid);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let full = pass(grid, &mut rng, out_dir);
    let mut failures = full.failures.clone();
    let mut cells_failed = full.cells_failed;
    let mut t = Totals::default();

    for (c, &cell) in full.run.cells.iter().zip(&full.cells) {
        let cursor = || cursor_for(cell.app, grid.size, grid.cpus());
        let cfg = grid.config(cell.scheme);
        let start = Instant::now();
        let plain = System::new(cfg.clone(), cursor()).run().exec_cycles;
        let plain_s = start.elapsed().as_secs_f64();
        let (r, events, traced_s) = record(&cfg, cursor());

        let mut cell_failures = account(&cfg, &r, &events, &mut t);
        if plain != c.result.exec_cycles || r.exec_cycles != c.result.exec_cycles {
            cell_failures.push(format!(
                "the untraced and recording simulations made {plain} and {} pclocks, the pass {}",
                r.exec_cycles, c.result.exec_cycles
            ));
        }
        if !cell_failures.is_empty() {
            cells_failed += 1;
            let what = format!("{} × {}", cell.app, scheme_label(cell.scheme));
            failures.extend(cell_failures.into_iter().map(|f| format!("{what}: {f}")));
        }
        t.ops += cursor().total_ops() as u64;
        t.untraced_s += plain_s;
        t.traced_s += traced_s;
        t.cell_s_max = t.cell_s_max.max(plain_s);
    }

    // Every cell decodes its whole trace once, and every application has
    // one cell per scheme, so one sweep per trace gives the per-op cost.
    let decode = median_of(3, || {
        let mut sweep = Cost::default();
        for app in grid.apps() {
            sweep.add(decode_sweep(app, grid));
        }
        sweep
    });

    let depth = ratio(t.queue_depth.0, t.queue_depth.1).round() as usize;
    let queue = median_of(3, || queue_hold(depth, t.event_mix, HOLD_OPS, &mut rng));

    let (oracle_ns, oracle_failures) = oracle_cost(grid);
    cells_failed += oracle_failures.len() as u64;
    failures.extend(oracle_failures);

    let (mut trace_ops, mut packed_bytes) = (0u64, 0u64);
    for app in grid.apps() {
        let trace = shared_trace_for(app, grid.size, grid.cpus());
        trace_ops += trace.total_ops() as u64;
        packed_bytes += trace.packed_bytes() as u64;
    }
    let gen_s = median(&setup);

    let ops = t.ops as f64;
    let per_op = |n: u64| n as f64 / ops;
    let untraced_ns = t.untraced_s * 1e9 / ops;
    let prefetch_ns: f64 = (0..3)
        .map(|i| t.prefetch[i].ns_per_op() * t.prefetch_misses[i] as f64)
        .sum::<f64>()
        / ops;
    let explained = decode.ns_per_op()
        + queue.ns_per_op() * per_op(t.events)
        + t.slc.ns_per_op() * per_op(t.slc.ops)
        + t.dir.ns_per_op() * per_op(t.dir.ops)
        + t.mesh.ns_per_op() * per_op(t.messages)
        + prefetch_ns;
    let residual = untraced_ns - explained;

    let values: BTreeMap<&'static str, f64> = [
        ("workloads.decode_ns_per_op", decode.ns_per_op()),
        ("workloads.gen_ns_per_op", gen_s * 1e9 / trace_ops as f64),
        (
            "workloads.packed_bytes_per_op",
            ratio(packed_bytes, trace_ops),
        ),
        ("sim-engine.events_per_op", per_op(t.events)),
        (
            "sim-engine.queue_depth_mean",
            ratio(t.queue_depth.0, t.queue_depth.1),
        ),
        ("sim-engine.queue_ns_per_event", queue.ns_per_op()),
        ("cache.slc_ops_per_op", per_op(t.slc.ops)),
        ("cache.slc_ns_per_access", t.slc.ns_per_op()),
        ("cache.slc_hit_ratio", ratio(t.slc_read_hits, t.slc_reads)),
        ("cache.evictions", t.evictions as f64),
        ("cache.mshr_occupancy_mean", ratio(t.mshr.0, t.mshr.1)),
        ("coherence.dir_requests_per_op", per_op(t.dir.ops)),
        ("coherence.dir_ns_per_request", t.dir.ns_per_op()),
        ("coherence.invalidations", t.invalidations as f64),
        ("network.messages_per_op", per_op(t.messages)),
        (
            "network.flit_hops_per_message",
            ratio(t.flit_hops, t.messages),
        ),
        (
            "network.queuing_cycles_per_message",
            ratio(t.queuing, t.messages),
        ),
        ("network.mesh_ns_per_send", t.mesh.ns_per_op()),
        ("prefetch.issued", t.issued as f64),
        ("prefetch.useful", t.useful as f64),
        ("prefetch.efficiency", ratio(t.useful, t.issued)),
        ("prefetch.dropped", t.dropped as f64),
        ("prefetch.idet_ns_per_read", t.prefetch[0].ns_per_op()),
        ("prefetch.ddet_ns_per_read", t.prefetch[1].ns_per_op()),
        ("prefetch.seq_ns_per_read", t.prefetch[2].ns_per_op()),
        ("core.read_stall_share", ratio(t.read_stall, t.cpu_cycles)),
        ("core.residual_ns_per_op", residual),
        ("core.cell_s_max", t.cell_s_max),
        ("check.oracle_ns_per_op", oracle_ns),
        ("bench.manifest_write_ms", full.write_s * 1e3),
        ("bench.manifest_validate_ms", full.validate_s * 1e3),
        ("bench.manifest_bytes", full.manifest_bytes as f64),
        (
            "trace.overhead_pct",
            (t.traced_s / t.untraced_s - 1.0) * 100.0,
        ),
    ]
    .into_iter()
    .collect();

    TracedRun {
        values,
        cells_run: full.run.cells.len() as u64,
        cells_failed,
        failures,
    }
}

/// `num / den`, 0 for an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nanoseconds per op the consistency oracle adds, measured on the cells
/// of the grid's first application (oracle on minus oracle off), plus any
/// violation it reports.
fn oracle_cost(grid: &Grid) -> (f64, Vec<String>) {
    let app = grid.apps().next().expect("a grid has applications");
    let (mut off, mut on, mut ops) = (0.0, 0.0, 0u64);
    let mut failures = Vec::new();
    for scheme in 0..figure6_schemes().len() {
        let cfg = grid.config(scheme);
        let cursor = || cursor_for(app, grid.size, grid.cpus());
        ops += cursor().total_ops() as u64;

        let start = Instant::now();
        black_box(System::new(cfg.clone(), cursor()).run());
        off += start.elapsed().as_secs_f64();

        let mut sys = System::new(cfg.clone(), cursor());
        sys.set_check_sink(Box::new(ConsistencyOracle::new(
            cfg.geometry,
            cfg.nodes as usize,
        )));
        let start = Instant::now();
        black_box(sys.run());
        on += start.elapsed().as_secs_f64();
        let oracle = sys
            .take_check_sink()
            .expect("installed above")
            .into_any()
            .downcast::<ConsistencyOracle>()
            .expect("the sink is the oracle");
        if !oracle.ok() {
            failures.push(format!(
                "{app} × {}: consistency violations: {}",
                scheme_label(scheme),
                oracle.violations().join("; ")
            ));
        }
    }
    ((on - off) * 1e9 / ops as f64, failures)
}
