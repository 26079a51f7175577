//! End-to-end tests of the experiment service: a real server on an
//! ephemeral port, a real client, real (tiny) simulations.
//!
//! The fast tests use one-app grids at the default size so a cell costs
//! milliseconds even in debug builds; the full determinism-anchor grids
//! are `#[ignore]`d (CI runs the small one in release through the
//! `ci.sh` serve stage).

use std::path::PathBuf;

use pfsim_analysis::Json;
use pfsim_bench::spec::wire::{WireSpec, WireVariant};
use pfsim_bench::{Manifest, Size};
use pfsim_prefetch::Scheme;
use pfsim_serve::{Client, ServeConfig, Server};
use pfsim_workloads::App;

/// A fresh results directory + a server on an ephemeral port.
struct TestServer {
    client: Client,
    results_dir: PathBuf,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn start(name: &str, tune: impl FnOnce(&mut ServeConfig)) -> TestServer {
        let results_dir =
            std::env::temp_dir().join(format!("pfsim-serve-e2e-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&results_dir);
        std::fs::create_dir_all(&results_dir).unwrap();
        let mut cfg = ServeConfig::new(&results_dir);
        cfg.workers = 1;
        cfg.quiet = true;
        tune(&mut cfg);
        let server = Server::bind(cfg).expect("bind ephemeral port");
        let port = server.port();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            client: Client::new("127.0.0.1", port),
            results_dir,
            thread: Some(thread),
        }
    }

    /// Drains the server and waits for it to exit.
    fn stop(mut self) {
        self.client.shutdown().expect("shutdown accepted");
        self.thread.take().unwrap().join().expect("server exits");
        let _ = std::fs::remove_dir_all(&self.results_dir);
    }
}

/// A 2-cell grid (MP3D × {baseline, Seq(d=1)}): the smallest spec that
/// still exercises variants and the cache.
fn tiny_spec(name: &str) -> String {
    WireSpec::baseline_grid(
        name,
        Size::Default,
        &[App::Mp3d],
        &[Scheme::Sequential { degree: 1 }],
    )
    .to_json()
    .render()
}

/// A single-app grid with `n` variants (baseline + seq degrees), for
/// tests that need several cells without several trace generations.
fn multi_variant_spec(name: &str, n_variants: usize, timeout_secs: Option<u64>) -> String {
    let mut spec = WireSpec::baseline_grid(name, Size::Default, &[App::Mp3d], &[]);
    for d in 1..n_variants as u64 {
        spec.variants
            .push(WireVariant::of_scheme(Scheme::Sequential {
                degree: d as u32,
            }));
    }
    spec.timeout_secs = timeout_secs;
    spec.to_json().render()
}

fn state_of(status: &Json) -> String {
    status
        .get("state")
        .and_then(Json::as_str)
        .unwrap_or("missing")
        .to_string()
}

fn counter(status: &Json, name: &str) -> u64 {
    status
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Submits and blocks until the job is terminal (the event stream only
/// closes on a terminal state), returning the job id.
fn submit_and_wait(client: &Client, spec: &str) -> String {
    let job = client.submit(spec).expect("submit accepted");
    client.watch(&job, |_line| {}).expect("event stream");
    job
}

/// The core acceptance criterion: submitting the same spec twice does
/// zero simulation work the second time — every cell is a cache hit,
/// the counters prove it, and the manifests are byte-identical.
#[test]
fn identical_spec_twice_replays_from_cache_byte_identically() {
    let srv = TestServer::start("replay", |_| {});
    let spec = tiny_spec("replay");

    let first = submit_and_wait(&srv.client, &spec);
    let status1 = srv.client.job_status(&first).unwrap();
    assert_eq!(state_of(&status1), "done");
    assert_eq!(status1.get("cache_hits").unwrap().as_u64(), Some(0));
    assert_eq!(status1.get("cache_misses").unwrap().as_u64(), Some(2));
    let manifest1 = srv.client.manifest(&first).unwrap();
    let parsed = Manifest::parse(&manifest1).expect("manifest validates");
    assert_eq!(parsed.cells.len(), 2);

    let second = submit_and_wait(&srv.client, &spec);
    assert_ne!(first, second, "a replay is still a new job");
    let status2 = srv.client.job_status(&second).unwrap();
    assert_eq!(state_of(&status2), "done");
    assert_eq!(
        status2.get("cache_hits").unwrap().as_u64(),
        Some(2),
        "every cell answered from the cache: {}",
        status2.render()
    );
    assert_eq!(status2.get("cache_misses").unwrap().as_u64(), Some(0));
    let manifest2 = srv.client.manifest(&second).unwrap();
    assert_eq!(manifest1, manifest2, "byte-identical replay");

    let server_status = srv.client.server_status().unwrap();
    assert_eq!(counter(&server_status, "serve_cache_hits"), 2);
    assert_eq!(counter(&server_status, "serve_cache_misses"), 2);
    assert_eq!(counter(&server_status, "serve_manifest_cache_hits"), 1);
    assert_eq!(counter(&server_status, "serve_jobs_done"), 2);
    srv.stop();
}

/// A changed spec (different scheme column) shares the baseline cell
/// but must re-simulate the new column — the cache key includes the
/// fully-resolved configuration.
#[test]
fn changed_variant_hits_only_shared_cells() {
    let srv = TestServer::start("partial", |_| {});
    let first = submit_and_wait(&srv.client, &tiny_spec("partial"));
    assert_eq!(state_of(&srv.client.job_status(&first).unwrap()), "done");

    let changed = WireSpec::baseline_grid(
        "partial",
        Size::Default,
        &[App::Mp3d],
        &[Scheme::Sequential { degree: 2 }],
    )
    .to_json()
    .render();
    let second = submit_and_wait(&srv.client, &changed);
    let status = srv.client.job_status(&second).unwrap();
    assert_eq!(state_of(&status), "done");
    assert_eq!(
        status.get("cache_hits").unwrap().as_u64(),
        Some(1),
        "baseline cell shared"
    );
    assert_eq!(
        status.get("cache_misses").unwrap().as_u64(),
        Some(1),
        "Seq(d=2) cell fresh"
    );
    srv.stop();
}

/// Cancelling a running job stops it at the next cell boundary.
#[test]
fn cancellation_lands_mid_job() {
    let srv = TestServer::start("cancel-mid", |cfg| {
        cfg.cell_delay_ms = 300;
    });
    let spec = multi_variant_spec("cancel-mid", 6, None);
    let job = srv.client.submit(&spec).expect("submit accepted");
    let client = srv.client.clone();
    let mut cancelled = false;
    client
        .watch(&job, |line| {
            // First per-cell event: the job is demonstrably mid-run.
            if !cancelled && line.contains("\"cell\"") {
                cancelled = true;
                srv.client.cancel(&job).expect("cancel accepted");
            }
        })
        .expect("event stream");
    let status = srv.client.job_status(&job).unwrap();
    assert_eq!(state_of(&status), "cancelled");
    let done = status.get("cells_done").unwrap().as_u64().unwrap();
    assert!(
        (1..6).contains(&done),
        "cancelled mid-job after {done} of 6 cells"
    );
    srv.stop();
}

/// Cancelling a queued job never runs it at all.
#[test]
fn queued_jobs_cancel_immediately() {
    let srv = TestServer::start("cancel-queued", |cfg| {
        cfg.cell_delay_ms = 300;
    });
    let running = srv
        .client
        .submit(&multi_variant_spec("front", 4, None))
        .unwrap();
    let queued = srv.client.submit(&tiny_spec("waiting")).unwrap();
    let doc = srv.client.cancel(&queued).expect("cancel accepted");
    assert_eq!(state_of(&doc), "cancelled");
    assert_eq!(doc.get("cells_done").unwrap().as_u64(), Some(0));
    srv.client
        .cancel(&running)
        .expect("cancel the front job too");
    srv.client.watch(&running, |_| {}).unwrap();
    srv.stop();
}

/// A full queue rejects submissions with 429 (backpressure), and the
/// rejection is counted.
#[test]
fn full_queue_rejects_with_429() {
    let srv = TestServer::start("backpressure", |cfg| {
        cfg.cell_delay_ms = 300;
        cfg.queue_depth = 1;
    });
    let running = srv
        .client
        .submit(&multi_variant_spec("hog", 6, None))
        .unwrap();
    // Wait until the worker has picked the first job up, so the next
    // submission occupies the queue's single slot deterministically.
    loop {
        let s = srv.client.job_status(&running).unwrap();
        if state_of(&s) == "running" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let queued = srv.client.submit(&tiny_spec("fills-queue")).unwrap();
    let (status, body) = srv
        .client
        .post("/jobs", Some(&tiny_spec("rejected")))
        .unwrap();
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("queue full"), "{body}");
    let server_status = srv.client.server_status().unwrap();
    assert_eq!(counter(&server_status, "serve_jobs_rejected"), 1);
    srv.client.cancel(&queued).unwrap();
    srv.client.cancel(&running).unwrap();
    srv.client.watch(&running, |_| {}).unwrap();
    srv.stop();
}

/// A job past its wall-clock budget stops at the next cell boundary.
#[test]
fn timeout_stops_at_cell_boundary() {
    let srv = TestServer::start("timeout", |cfg| {
        cfg.cell_delay_ms = 400;
    });
    let spec = multi_variant_spec("budgeted", 8, Some(1));
    let job = submit_and_wait(&srv.client, &spec);
    let status = srv.client.job_status(&job).unwrap();
    assert_eq!(state_of(&status), "timed-out", "{}", status.render());
    let done = status.get("cells_done").unwrap().as_u64().unwrap();
    assert!(done < 8, "stopped early after {done} cells");
    srv.stop();
}

/// The hardened API front door: malformed and invalid specs are 400
/// with a diagnostic, unknown jobs are 404, early manifests are 409.
#[test]
fn api_rejects_bad_input() {
    let srv = TestServer::start("hardened", |cfg| {
        cfg.cell_delay_ms = 200;
    });
    let (status, body) = srv.client.post("/jobs", Some("not json")).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("invalid spec"), "{body}");

    // Unbounded, 100,000 nested brackets overflow the connection thread's
    // stack and abort the whole daemon. The parser's depth bound makes
    // them a 400, and the server keeps answering.
    let (status, body) = srv
        .client
        .post("/jobs", Some(&"[".repeat(100_000)))
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting deeper than"), "{body}");
    let (status, body) = srv.client.get("/status").unwrap();
    assert_eq!(status, 200, "{body}");

    let mut doc = Json::parse(&tiny_spec("sneaky")).unwrap();
    if let Json::Object(members) = &mut doc {
        members.push(("rm_rf".to_string(), Json::Bool(true)));
    }
    let (status, body) = srv.client.post("/jobs", Some(&doc.render())).unwrap();
    assert_eq!(status, 400, "unknown fields are rejected: {body}");

    // Schema v3 dropped `threads`: a v2 document is refused by version,
    // and a v3 document still carrying the field is refused by name.
    let with_threads = |version: i64| {
        let mut doc = Json::parse(&tiny_spec("threaded")).unwrap();
        if let Json::Object(members) = &mut doc {
            members.retain(|(k, _)| k != "wire_version");
            members.push(("wire_version".to_string(), Json::Int(version)));
            members.push(("threads".to_string(), Json::uint(2)));
        }
        doc.render()
    };
    let (status, body) = srv.client.post("/jobs", Some(&with_threads(2))).unwrap();
    assert_eq!(status, 400, "v2 documents are rejected: {body}");
    assert!(body.contains("wire_version 2"), "{body}");
    let (status, body) = srv.client.post("/jobs", Some(&with_threads(3))).unwrap();
    assert_eq!(status, 400, "`threads` is an unknown field: {body}");
    assert!(body.contains("unknown spec field 'threads'"), "{body}");

    // The client reads the server's `error` member: a rejected submit
    // surfaces the server's reason, not the raw response body.
    let err = srv.client.submit("not json").unwrap_err();
    assert!(
        err.starts_with("submit rejected (400): invalid spec"),
        "{err}"
    );

    // An SLC geometry the cache cannot build is a 400, not a dead worker.
    let mut odd_slc = WireSpec::baseline_grid("odd-slc", Size::Default, &[App::Mp3d], &[]);
    odd_slc.variants[0].slc_kb = Some(16);
    odd_slc.variants[0].slc_ways = Some(3);
    let (status, body) = srv
        .client
        .post("/jobs", Some(&odd_slc.to_json().render()))
        .unwrap();
    assert_eq!(status, 400, "unbuildable SLC geometry: {body}");
    assert!(body.contains("slc_kb 16"), "{body}");

    let (status, _) = srv.client.get("/jobs/job-999").unwrap();
    assert_eq!(status, 404);
    let (status, _) = srv.client.post("/jobs/job-999/cancel", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = srv.client.get("/nope").unwrap();
    assert_eq!(status, 404);

    let job = srv.client.submit(&tiny_spec("early")).unwrap();
    let (status, body) = srv.client.get(&format!("/jobs/{job}/manifest")).unwrap();
    assert_eq!(status, 409, "manifest before completion: {body}");
    srv.client.cancel(&job).unwrap();
    srv.client.watch(&job, |_| {}).unwrap();
    srv.stop();
}

/// Draining finishes queued work, refuses new work with 503, and the
/// server exits once everything is terminal.
#[test]
fn drain_finishes_queued_work_and_refuses_new() {
    let srv = TestServer::start("drain", |cfg| {
        cfg.cell_delay_ms = 100;
        cfg.queue_depth = 4;
    });
    let a = srv.client.submit(&tiny_spec("drain-a")).unwrap();
    let b = srv.client.submit(&tiny_spec("drain-b")).unwrap();
    srv.client.shutdown().expect("drain accepted");
    let (status, body) = srv.client.post("/jobs", Some(&tiny_spec("late"))).unwrap();
    assert_eq!(status, 503, "{body}");
    // Both pre-drain jobs still run to completion; the server may exit
    // the moment they finish, so watching is best-effort — the written,
    // validating manifests are the proof of completion.
    let _ = srv.client.watch(&a, |_| {});
    let _ = srv.client.watch(&b, |_| {});
    let results_dir = srv.results_dir.clone();
    let mut srv = srv;
    srv.thread.take().unwrap().join().expect("server exits");
    for name in ["drain-a", "drain-b"] {
        let path = results_dir.join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path).expect("drained job wrote its manifest");
        Manifest::parse(&text).expect("drained manifest validates");
    }
    let _ = std::fs::remove_dir_all(&results_dir);
}

/// `/status` exposes the service registry in the manifest snapshot
/// shape: counters and log2-bucket histograms.
#[test]
fn status_exposes_metrics_registry() {
    let srv = TestServer::start("metrics", |_| {});
    submit_and_wait(&srv.client, &tiny_spec("observed"));
    let doc = srv.client.server_status().unwrap();
    assert_eq!(doc.get("draining").unwrap().as_bool(), Some(false));
    assert_eq!(doc.get("workers").unwrap().as_u64(), Some(1));
    assert!(doc.get("queue_limit").unwrap().as_u64().unwrap() >= 1);
    let jobs = doc.get("jobs").unwrap();
    assert_eq!(jobs.get("done").unwrap().as_u64(), Some(1));
    assert!(counter(&doc, "serve_jobs_submitted") >= 1);
    assert!(counter(&doc, "serve_http_requests") >= 1);
    let hist = doc
        .get("metrics")
        .unwrap()
        .get("histograms")
        .unwrap()
        .get("serve_job_ms")
        .expect("per-phase wall-clock histograms");
    assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
    assert!(
        !hist.get("buckets").unwrap().as_array().unwrap().is_empty(),
        "log2 buckets present"
    );
    srv.stop();
}

/// The small determinism-anchor grid through the service: the full
/// 24-cell default grid totals exactly 14059066 pclocks (the BENCH_PR1
/// seed), and a re-submission replays it entirely from cache.
/// Minutes in debug builds — run explicitly or via the ci.sh serve
/// stage in release.
#[test]
#[ignore = "full 24-cell grid: run in release (ci.sh serve stage)"]
fn small_grid_anchor_through_the_service() {
    let srv = TestServer::start("anchor-small", |_| {});
    let spec = WireSpec::baseline_grid(
        "anchor-small",
        Size::Default,
        &App::ALL,
        &[
            Scheme::IDetection { degree: 1 },
            Scheme::DDetection { degree: 1 },
            Scheme::Sequential { degree: 1 },
        ],
    )
    .to_json()
    .render();
    let first = submit_and_wait(&srv.client, &spec);
    let manifest = Manifest::parse(&srv.client.manifest(&first).unwrap()).unwrap();
    assert_eq!(manifest.total_pclocks, 14059066, "BENCH_PR1 seed anchor");
    let second = submit_and_wait(&srv.client, &spec);
    let status = srv.client.job_status(&second).unwrap();
    assert_eq!(status.get("cache_hits").unwrap().as_u64(), Some(24));
    srv.stop();
}

/// The large anchor (BENCH_PR6 seed) through the service.
#[test]
#[ignore = "large grid: ~minutes even in release"]
fn large_grid_anchor_through_the_service() {
    let srv = TestServer::start("anchor-large", |_| {});
    let spec = WireSpec::baseline_grid(
        "anchor-large",
        Size::Large,
        &App::ALL,
        &[
            Scheme::IDetection { degree: 1 },
            Scheme::DDetection { degree: 1 },
            Scheme::Sequential { degree: 1 },
        ],
    )
    .to_json()
    .render();
    let job = submit_and_wait(&srv.client, &spec);
    let manifest = Manifest::parse(&srv.client.manifest(&job).unwrap()).unwrap();
    assert_eq!(manifest.total_pclocks, 151368054, "BENCH_PR6 seed anchor");
    srv.stop();
}
