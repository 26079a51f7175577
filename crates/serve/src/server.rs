//! The experiment service: a bounded worker pool around the
//! [`Runner`], fronted by the HTTP API and backed
//! by the manifest-hash result cache.
//!
//! Concurrency model: one accept loop (non-blocking, polling the drain
//! flag), one short-lived handler thread per connection, and a fixed
//! pool of worker threads that pull job ids from a bounded queue under
//! a single mutex. The simulator itself stays single-threaded per cell;
//! nothing here can perturb simulated time — the service only decides
//! *whether* a cell needs simulating at all.
//!
//! Caching happens at two levels. Each cell's result document is cached
//! under a key spelling out app, size, warmup, the fully-resolved
//! configuration (`Debug` form) and the producing build — everything
//! the simulation outcome depends on. A whole manifest is additionally
//! cached by (spec, build), and a full hit replays the stored bytes
//! verbatim — so re-submitting an identical spec returns a
//! byte-identical manifest even though manifests embed wall-clock
//! fields.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pfsim_analysis::Json;
use pfsim_bench::manifest::{
    self, assemble_manifest, cell_json, git_describe, trace_json, variant_json,
};
use pfsim_bench::spec::wire::WireSpec;
use pfsim_bench::spec::Variant;
use pfsim_bench::{ExperimentSpec, Manifest, Runner};
use pfsim_engine::metrics::{CounterId, HistogramId, MetricsSnapshot, Registry};
use pfsim_workloads::App;

use crate::cache::Cache;
use crate::http::{self, Request};
use crate::job::{parse_job_id, Job, JobState};

/// How a server instance is configured (the binary fills this from
/// flags; tests construct it directly).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Worker pool size.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs; submissions beyond this
    /// are rejected with 429.
    pub queue_depth: usize,
    /// Default per-job wall-clock budget when the spec names none.
    pub default_timeout_secs: Option<u64>,
    /// Where manifests land and the cache lives.
    pub results_dir: PathBuf,
    /// Artificial pause before each cell, for exercising cancellation
    /// and backpressure in tests (`PFSIM_SERVE_CELL_DELAY_MS`).
    pub cell_delay_ms: u64,
    /// External drain flag (the binary's SIGTERM handler); polled by
    /// the accept loop alongside `/shutdown`.
    pub external_drain: Option<&'static AtomicBool>,
    /// Suppress per-job log lines.
    pub quiet: bool,
}

impl ServeConfig {
    /// Defaults for serving out of `results_dir`.
    pub fn new(results_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            port: 0,
            workers: 2,
            queue_depth: 8,
            default_timeout_secs: None,
            results_dir: results_dir.into(),
            cell_delay_ms: 0,
            external_drain: None,
            quiet: false,
        }
    }
}

/// The service metric ids, registered once against the PR-3 registry so
/// `/status` can expose a snapshot in the same shape manifests use.
struct Metrics {
    reg: Registry,
    http_requests: CounterId,
    jobs_submitted: CounterId,
    jobs_rejected: CounterId,
    jobs_done: CounterId,
    jobs_failed: CounterId,
    jobs_cancelled: CounterId,
    jobs_timed_out: CounterId,
    cache_hits: CounterId,
    cache_misses: CounterId,
    manifest_cache_hits: CounterId,
    gen_ms: HistogramId,
    sim_ms: HistogramId,
    job_ms: HistogramId,
}

impl Metrics {
    fn new() -> Metrics {
        let mut reg = Registry::new(true);
        Metrics {
            http_requests: reg.counter("serve_http_requests"),
            jobs_submitted: reg.counter("serve_jobs_submitted"),
            jobs_rejected: reg.counter("serve_jobs_rejected"),
            jobs_done: reg.counter("serve_jobs_done"),
            jobs_failed: reg.counter("serve_jobs_failed"),
            jobs_cancelled: reg.counter("serve_jobs_cancelled"),
            jobs_timed_out: reg.counter("serve_jobs_timed_out"),
            cache_hits: reg.counter("serve_cache_hits"),
            cache_misses: reg.counter("serve_cache_misses"),
            manifest_cache_hits: reg.counter("serve_manifest_cache_hits"),
            gen_ms: reg.histogram("serve_gen_ms"),
            sim_ms: reg.histogram("serve_sim_ms"),
            job_ms: reg.histogram("serve_job_ms"),
            reg,
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.reg.snapshot()
    }
}

/// Mutable server state, under one mutex.
struct State {
    next_id: u64,
    queue: VecDeque<u64>,
    jobs: std::collections::BTreeMap<u64, Job>,
    running: usize,
    draining: bool,
}

struct Shared {
    cfg: ServeConfig,
    cache: Cache,
    git: String,
    state: Mutex<State>,
    wake: Condvar,
    metrics: Mutex<Metrics>,
}

impl Shared {
    fn count(&self, id: CounterId) {
        self.metrics.lock().unwrap().reg.inc(id, 1);
    }

    fn observe_ms(&self, id: HistogramId, seconds: f64) {
        let ms = (seconds * 1000.0).round().max(0.0) as u64;
        self.metrics.lock().unwrap().reg.observe(id, ms);
    }

    fn metric_ids(&self) -> (CounterId, CounterId, CounterId, CounterId) {
        let m = self.metrics.lock().unwrap();
        (
            m.cache_hits,
            m.cache_misses,
            m.manifest_cache_hits,
            m.http_requests,
        )
    }
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    port: u16,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener (127.0.0.1 only) and prepares shared state.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let port = listener.local_addr()?.port();
        let cache = Cache::new(&cfg.results_dir);
        let shared = Arc::new(Shared {
            git: git_describe(),
            cache,
            cfg,
            state: Mutex::new(State {
                next_id: 1,
                queue: VecDeque::new(),
                jobs: std::collections::BTreeMap::new(),
                running: 0,
                draining: false,
            }),
            wake: Condvar::new(),
            metrics: Mutex::new(Metrics::new()),
        });
        Ok(Server {
            listener,
            port,
            shared,
        })
    }

    /// The bound port (useful with `port: 0`).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Serves until drained: accepts connections, runs jobs on the
    /// worker pool, and returns once a drain was requested (SIGTERM via
    /// the external flag, or `POST /shutdown`) *and* every accepted job
    /// has reached a terminal state.
    pub fn run(self) {
        let Server {
            listener, shared, ..
        } = self;
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let mut workers = Vec::new();
        for i in 0..shared.cfg.workers.max(1) {
            let sh = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pfsim-serve-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn worker"),
            );
        }
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if let Some(flag) = shared.cfg.external_drain {
                if flag.load(Ordering::SeqCst) {
                    request_drain(&shared);
                }
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let sh = Arc::clone(&shared);
                    handlers.push(
                        std::thread::Builder::new()
                            .name("pfsim-serve-conn".to_string())
                            .spawn(move || handle_connection(&sh, stream))
                            .expect("spawn handler"),
                    );
                    handlers.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let done = {
                        let st = shared.state.lock().unwrap();
                        st.draining && st.queue.is_empty() && st.running == 0
                    };
                    if done {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    eprintln!("pfsim-serve: accept: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        shared.wake.notify_all();
        for w in workers {
            let _ = w.join();
        }
        for h in handlers {
            let _ = h.join();
        }
    }
}

/// Marks the server draining and wakes everyone blocked on the queue.
fn request_drain(shared: &Shared) {
    let mut st = shared.state.lock().unwrap();
    if !st.draining {
        st.draining = true;
        if !shared.cfg.quiet {
            println!("pfsim-serve: draining ({} queued)", st.queue.len());
        }
    }
    drop(st);
    shared.wake.notify_all();
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let id = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(id) = st.queue.pop_front() {
                    st.running += 1;
                    let job = st.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Running;
                    break id;
                }
                if st.draining {
                    return;
                }
                // Timed wait so an externally-signalled drain is noticed
                // even if no notification races this worker.
                let (guard, _timeout) = shared
                    .wake
                    .wait_timeout(st, Duration::from_millis(200))
                    .unwrap();
                st = guard;
            }
        };
        run_job(shared, id);
        let mut st = shared.state.lock().unwrap();
        st.running -= 1;
        drop(st);
        shared.wake.notify_all();
    }
}

/// The cache key of one cell: everything its result depends on, and
/// nothing it does not.
fn cell_key(git: &str, spec: &WireSpec, app: App, var_idx: usize) -> String {
    format!(
        "cell|git={git}|app={}|size={}|warmup={}|cfg={:?}",
        app.name(),
        spec.size,
        spec.warmup,
        spec.cell_config(var_idx)
    )
}

/// The cache key of a whole manifest: the exact spec plus the build.
fn manifest_key(git: &str, spec: &WireSpec) -> String {
    format!("manifest|git={git}|spec={}", spec.to_json().render())
}

/// Rewrites the `variant` index of a cached/fresh cell document to its
/// position in *this* job's grid (cells are cached position-free).
fn with_variant_index(cell: Json, var_idx: usize) -> Json {
    match cell {
        Json::Object(members) => Json::Object(
            members
                .into_iter()
                .map(|(k, v)| {
                    if k == "variant" {
                        (k, Json::uint(var_idx as u64))
                    } else {
                        (k, v)
                    }
                })
                .collect(),
        ),
        other => other,
    }
}

/// One NDJSON progress line for a finished cell.
fn cell_event(done: usize, total: usize, app: App, label: &str, source: &str, cycles: u64) -> Json {
    Json::obj(vec![
        ("cell", Json::uint(done as u64)),
        ("of", Json::uint(total as u64)),
        ("app", Json::str(app.name())),
        ("variant", Json::str(label)),
        ("source", Json::str(source)),
        ("exec_cycles", Json::uint(cycles)),
    ])
}

/// Appends a progress event and bumps per-cell counters under the lock.
fn record_cell(shared: &Shared, id: u64, event: Json, hit: bool) {
    let mut st = shared.state.lock().unwrap();
    if let Some(job) = st.jobs.get_mut(&id) {
        job.cells_done += 1;
        if hit {
            job.cache_hits += 1;
        } else {
            job.cache_misses += 1;
        }
        job.events.push(event.render());
    }
    drop(st);
    shared.wake.notify_all();
}

/// Moves the job to a terminal state, emits the terminal event, and
/// updates the terminal-state metrics.
fn finish(shared: &Shared, id: u64, state: JobState, error: Option<String>) {
    let mut st = shared.state.lock().unwrap();
    if let Some(job) = st.jobs.get_mut(&id) {
        job.state = state;
        job.error = error;
        let terminal = Json::obj(vec![
            ("job", Json::str(job.public_id())),
            ("state", Json::str(state.name())),
            ("cache_hits", Json::uint(job.cache_hits)),
            ("cache_misses", Json::uint(job.cache_misses)),
        ]);
        job.events.push(terminal.render());
        if !shared.cfg.quiet {
            println!(
                "pfsim-serve: {} {} ({}/{} cells, {} cached)",
                job.public_id(),
                state.name(),
                job.cells_done,
                job.cells_total,
                job.cache_hits
            );
        }
    }
    drop(st);
    shared.wake.notify_all();
    let m = shared.metrics.lock().unwrap();
    let counter = match state {
        JobState::Done => m.jobs_done,
        JobState::Failed => m.jobs_failed,
        JobState::Cancelled => m.jobs_cancelled,
        JobState::TimedOut => m.jobs_timed_out,
        JobState::Queued | JobState::Running => return,
    };
    drop(m);
    shared.count(counter);
}

fn cancel_requested(shared: &Shared, id: u64) -> bool {
    let st = shared.state.lock().unwrap();
    st.jobs.get(&id).is_some_and(|j| j.cancel_requested)
}

/// Lowers one grid cell to a runnable 1×1 spec.
fn one_cell_spec(spec: &WireSpec, app: App, var_idx: usize) -> ExperimentSpec {
    let v = &spec.variants[var_idx];
    ExperimentSpec::new(spec.name.clone())
        .size(spec.size)
        .apps([app])
        .variant(v.label.clone(), v.config())
        .instrument(spec.instrument)
        .warmup(spec.warmup)
        .serial()
        .quiet()
}

/// Runs one job to a terminal state: replay the manifest cache, else
/// walk the grid cell by cell (cache first, simulate on miss), then
/// assemble, validate, persist and cache the manifest.
fn run_job(shared: &Shared, id: u64) {
    let started = Instant::now();
    let spec = {
        let st = shared.state.lock().unwrap();
        st.jobs.get(&id).expect("running job exists").spec.clone()
    };
    let (hits_id, misses_id, manifest_hits_id, _) = shared.metric_ids();
    let timeout = spec
        .timeout_secs
        .or(shared.cfg.default_timeout_secs)
        .map(Duration::from_secs);
    let total = spec.apps.len() * spec.variants.len();

    // Whole-spec replay: identical spec on the same build returns the
    // stored manifest bytes verbatim (wall-clock fields included).
    let mkey = manifest_key(&shared.git, &spec);
    if let Some(stored) = shared.cache.get("manifests", &mkey) {
        if let Some(text) = stored.as_str() {
            match Manifest::parse(text) {
                Ok(man) => {
                    shared.count(manifest_hits_id);
                    for (i, cell) in man.cells.iter().enumerate() {
                        let app = spec.apps[i / spec.variants.len()];
                        let label = &spec.variants[cell.variant].label;
                        let ev = cell_event(i + 1, total, app, label, "cache", cell.exec_cycles);
                        record_cell(shared, id, ev, true);
                        shared.count(hits_id);
                    }
                    let path = shared.cfg.results_dir.join(format!("{}.json", spec.name));
                    if let Err(e) = std::fs::create_dir_all(&shared.cfg.results_dir)
                        .and_then(|()| std::fs::write(&path, text))
                    {
                        finish(shared, id, JobState::Failed, Some(format!("write: {e}")));
                        return;
                    }
                    let text = text.to_string();
                    let mut st = shared.state.lock().unwrap();
                    if let Some(job) = st.jobs.get_mut(&id) {
                        job.manifest = Some(text);
                        job.manifest_path = Some(path.display().to_string());
                    }
                    drop(st);
                    let job_ms = shared.metrics.lock().unwrap().job_ms;
                    shared.observe_ms(job_ms, started.elapsed().as_secs_f64());
                    finish(shared, id, JobState::Done, None);
                    return;
                }
                Err(_) => {
                    // A stale/corrupt manifest entry: fall through and
                    // rebuild from the cell caches.
                }
            }
        }
    }

    let runner = Runner::with_out_dir(&shared.cfg.results_dir);
    let mut cells: Vec<Json> = Vec::with_capacity(total);
    let mut traces: Vec<Option<Json>> = vec![None; spec.apps.len()];
    let mut gen_seconds = 0.0;
    let mut sim_seconds = 0.0;
    let (gen_id, sim_id) = {
        let m = shared.metrics.lock().unwrap();
        (m.gen_ms, m.sim_ms)
    };
    for (app_idx, &app) in spec.apps.iter().enumerate() {
        for var_idx in 0..spec.variants.len() {
            if cancel_requested(shared, id) {
                finish(shared, id, JobState::Cancelled, None);
                return;
            }
            if let Some(limit) = timeout {
                if started.elapsed() > limit {
                    finish(
                        shared,
                        id,
                        JobState::TimedOut,
                        Some(format!("exceeded {}s", limit.as_secs())),
                    );
                    return;
                }
            }
            if shared.cfg.cell_delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(shared.cfg.cell_delay_ms));
            }
            let key = cell_key(&shared.git, &spec, app, var_idx);
            let label = spec.variants[var_idx].label.clone();
            let (cell, trace, hit) = match shared.cache.get("cells", &key) {
                Some(entry) => {
                    let cell = entry.get("cell").cloned();
                    let trace = entry.get("trace").cloned();
                    match (cell, trace) {
                        (Some(c), Some(t)) => (c, t, true),
                        _ => {
                            finish(
                                shared,
                                id,
                                JobState::Failed,
                                Some("malformed cache entry".to_string()),
                            );
                            return;
                        }
                    }
                }
                None => {
                    let run = runner.execute(one_cell_spec(&spec, app, var_idx));
                    gen_seconds += run.gen_seconds;
                    sim_seconds += run.sim_seconds;
                    shared.observe_ms(gen_id, run.gen_seconds);
                    shared.observe_ms(sim_id, run.sim_seconds);
                    let cell = cell_json(&run.cells[0]);
                    let trace = trace_json(&run.traces[0]);
                    shared.cache.put(
                        "cells",
                        &key,
                        Json::obj(vec![("cell", cell.clone()), ("trace", trace.clone())]),
                    );
                    (cell, trace, false)
                }
            };
            shared.count(if hit { hits_id } else { misses_id });
            let cell = with_variant_index(cell, var_idx);
            let cycles = cell.get("exec_cycles").and_then(Json::as_u64).unwrap_or(0);
            if traces[app_idx].is_none() {
                traces[app_idx] = Some(trace);
            }
            let done = cells.len() + 1;
            cells.push(cell);
            let ev = cell_event(
                done,
                total,
                app,
                &label,
                if hit { "cache" } else { "sim" },
                cycles,
            );
            record_cell(shared, id, ev, hit);
        }
    }

    let total_pclocks: u64 = cells
        .iter()
        .map(|c| c.get("exec_cycles").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    let doc = assemble_manifest(
        &spec.name,
        &spec.size.to_string(),
        (gen_seconds, sim_seconds, 0.0),
        total_pclocks,
        spec.apps.iter().map(|a| a.name().to_string()).collect(),
        spec.variants
            .iter()
            .map(|v| {
                variant_json(&Variant {
                    label: v.label.clone(),
                    cfg: v.config(),
                    size: None,
                })
            })
            .collect(),
        traces.into_iter().flatten().collect(),
        cells,
    );
    let text = doc.render();
    if let Err(e) = Manifest::from_json(&doc) {
        finish(
            shared,
            id,
            JobState::Failed,
            Some(format!("assembled manifest invalid: {e}")),
        );
        return;
    }
    let path = shared.cfg.results_dir.join(format!("{}.json", spec.name));
    if let Err(e) =
        std::fs::create_dir_all(&shared.cfg.results_dir).and_then(|()| std::fs::write(&path, &text))
    {
        finish(shared, id, JobState::Failed, Some(format!("write: {e}")));
        return;
    }
    shared.cache.put("manifests", &mkey, Json::str(&text));
    let mut st = shared.state.lock().unwrap();
    if let Some(job) = st.jobs.get_mut(&id) {
        job.manifest = Some(text);
        job.manifest_path = Some(path.display().to_string());
    }
    drop(st);
    let job_ms = shared.metrics.lock().unwrap().job_ms;
    shared.observe_ms(job_ms, started.elapsed().as_secs_f64());
    finish(shared, id, JobState::Done, None);
}

// ---------------------------------------------------------------------
// HTTP handlers
// ---------------------------------------------------------------------

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let req = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            let _ = http::respond(&mut stream, 400, &error_json(&e));
            return;
        }
    };
    let (_, _, _, http_id) = shared.metric_ids();
    shared.count(http_id);
    let outcome = route(shared, &req, &mut stream);
    if let Err(e) = outcome {
        // The peer went away mid-response; nothing to do but log.
        if !shared.cfg.quiet {
            eprintln!("pfsim-serve: {} {}: {e}", req.method, req.path);
        }
    }
}

fn error_json(message: &str) -> Json {
    Json::obj(vec![("error", Json::str(message))])
}

fn route(shared: &Shared, req: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => submit(shared, &req.body, stream),
        ("GET", "/status") => http::respond(stream, 200, &server_status_json(shared)),
        ("POST", "/shutdown") => {
            request_drain(shared);
            http::respond(
                stream,
                200,
                &Json::obj(vec![("draining", Json::Bool(true))]),
            )
        }
        (method, path) => {
            let Some(rest) = path.strip_prefix("/jobs/") else {
                return http::respond(stream, 404, &error_json("no such endpoint"));
            };
            let (id_part, tail) = match rest.split_once('/') {
                Some((a, b)) => (a, b),
                None => (rest, ""),
            };
            let Some(id) = parse_job_id(id_part) else {
                return http::respond(stream, 404, &error_json("no such job"));
            };
            match (method, tail) {
                ("GET", "") => job_status(shared, id, stream),
                ("GET", "manifest") => job_manifest(shared, id, stream),
                ("GET", "events") => job_events(shared, id, stream),
                ("POST", "cancel") => job_cancel(shared, id, stream),
                _ => http::respond(stream, 405, &error_json("method not allowed")),
            }
        }
    }
}

fn submit(shared: &Shared, body: &str, stream: &mut TcpStream) -> std::io::Result<()> {
    let spec = match WireSpec::parse(body) {
        Ok(s) => s,
        Err(e) => return http::respond(stream, 400, &error_json(&format!("invalid spec: {e}"))),
    };
    let mut st = shared.state.lock().unwrap();
    if st.draining {
        return http::respond(stream, 503, &error_json("server is draining"));
    }
    if st.queue.len() >= shared.cfg.queue_depth {
        drop(st);
        let m = shared.metrics.lock().unwrap().jobs_rejected;
        shared.count(m);
        return http::respond(
            stream,
            429,
            &Json::obj(vec![
                ("error", Json::str("queue full")),
                ("queue_depth", Json::uint(shared.cfg.queue_depth as u64)),
            ]),
        );
    }
    let id = st.next_id;
    st.next_id += 1;
    let job = Job::new(id, spec);
    let accepted = Json::obj(vec![
        ("job", Json::str(job.public_id())),
        ("state", Json::str(job.state.name())),
        ("cells", Json::uint(job.cells_total as u64)),
    ]);
    if !shared.cfg.quiet {
        println!(
            "pfsim-serve: {} queued: {} ({} cells)",
            job.public_id(),
            job.spec.name,
            job.cells_total
        );
    }
    st.jobs.insert(id, job);
    st.queue.push_back(id);
    drop(st);
    shared.wake.notify_all();
    let m = shared.metrics.lock().unwrap().jobs_submitted;
    shared.count(m);
    http::respond(stream, 202, &accepted)
}

fn job_status(shared: &Shared, id: u64, stream: &mut TcpStream) -> std::io::Result<()> {
    let st = shared.state.lock().unwrap();
    match st.jobs.get(&id) {
        Some(job) => {
            let doc = job.status_json();
            drop(st);
            http::respond(stream, 200, &doc)
        }
        None => {
            drop(st);
            http::respond(stream, 404, &error_json("no such job"))
        }
    }
}

fn job_manifest(shared: &Shared, id: u64, stream: &mut TcpStream) -> std::io::Result<()> {
    let st = shared.state.lock().unwrap();
    let Some(job) = st.jobs.get(&id) else {
        drop(st);
        return http::respond(stream, 404, &error_json("no such job"));
    };
    match (&job.manifest, job.state) {
        (Some(text), _) => {
            let text = text.clone();
            drop(st);
            http::respond_raw(stream, 200, "application/json", &text)
        }
        (None, state) => {
            let msg = if state.terminal() {
                format!("job is {}", state.name())
            } else {
                "job not finished".to_string()
            };
            drop(st);
            http::respond(stream, 409, &error_json(&msg))
        }
    }
}

fn job_cancel(shared: &Shared, id: u64, stream: &mut TcpStream) -> std::io::Result<()> {
    let doc = {
        let mut st = shared.state.lock().unwrap();
        let Some(job) = st.jobs.get_mut(&id) else {
            drop(st);
            return http::respond(stream, 404, &error_json("no such job"));
        };
        if !job.state.terminal() {
            job.cancel_requested = true;
        }
        let was_queued = job.state == JobState::Queued;
        let doc = job.status_json();
        if was_queued {
            st.queue.retain(|&q| q != id);
        }
        drop(st);
        if was_queued {
            // Never picked up by a worker: terminal immediately.
            finish(shared, id, JobState::Cancelled, None);
            let st = shared.state.lock().unwrap();
            let doc = st.jobs.get(&id).map(Job::status_json);
            doc.unwrap_or_else(|| error_json("no such job"))
        } else {
            doc
        }
    };
    shared.wake.notify_all();
    http::respond(stream, 200, &doc)
}

/// Streams a job's progress as NDJSON until it reaches a terminal state
/// (all events flushed) or the client hangs up.
fn job_events(shared: &Shared, id: u64, stream: &mut TcpStream) -> std::io::Result<()> {
    {
        let st = shared.state.lock().unwrap();
        if !st.jobs.contains_key(&id) {
            drop(st);
            return http::respond(stream, 404, &error_json("no such job"));
        }
    }
    http::start_ndjson(stream)?;
    let mut cursor = 0usize;
    loop {
        let (fresh, finished) = {
            let st = shared.state.lock().unwrap();
            let job = match st.jobs.get(&id) {
                Some(j) => j,
                None => return Ok(()),
            };
            let fresh: Vec<String> = job.events[cursor..].to_vec();
            let finished = job.state.terminal();
            drop(st);
            (fresh, finished)
        };
        cursor += fresh.len();
        for line in fresh {
            use std::io::Write;
            writeln!(stream, "{line}")?;
        }
        {
            use std::io::Write;
            stream.flush()?;
        }
        if finished {
            return Ok(());
        }
        let st = shared.state.lock().unwrap();
        let _ = shared.wake.wait_timeout(st, Duration::from_millis(100));
    }
}

fn server_status_json(shared: &Shared) -> Json {
    let (queue, draining, counts) = {
        let st = shared.state.lock().unwrap();
        let mut counts = [0u64; 6];
        for job in st.jobs.values() {
            let slot = match job.state {
                JobState::Queued => 0,
                JobState::Running => 1,
                JobState::Done => 2,
                JobState::Failed => 3,
                JobState::Cancelled => 4,
                JobState::TimedOut => 5,
            };
            counts[slot] += 1;
        }
        (st.queue.len(), st.draining, counts)
    };
    let snap = shared.metrics.lock().unwrap().snapshot();
    Json::obj(vec![
        ("draining", Json::Bool(draining)),
        ("workers", Json::uint(shared.cfg.workers as u64)),
        ("queue", Json::uint(queue as u64)),
        ("queue_limit", Json::uint(shared.cfg.queue_depth as u64)),
        (
            "jobs",
            Json::obj(vec![
                ("queued", Json::uint(counts[0])),
                ("running", Json::uint(counts[1])),
                ("done", Json::uint(counts[2])),
                ("failed", Json::uint(counts[3])),
                ("cancelled", Json::uint(counts[4])),
                ("timed-out", Json::uint(counts[5])),
            ]),
        ),
        ("metrics", manifest::metrics_json(&snap)),
    ])
}

#[cfg(test)]
mod tests {
    /// The service registry gives each metric name one kind and one
    /// registering call site (the registry panics otherwise).
    #[test]
    fn service_metrics_register_once() {
        let snap = super::Metrics::new().snapshot();
        assert_eq!(snap.counters.len(), 10);
        assert_eq!(snap.histograms.len(), 3);
    }
}
