//! The experiment service daemon.
//!
//! ```text
//! pfsim-serve --port 7077 --workers 2 --queue-depth 8 \
//!             --results-dir results --timeout-secs 3600
//! ```
//!
//! Binds 127.0.0.1 only. `--port 0` picks an ephemeral port;
//! `--port-file PATH` writes the bound port there so scripts can find
//! it. SIGTERM/SIGINT drain gracefully: no new submissions, every
//! accepted job runs to a terminal state, then the process exits.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use pfsim_bench::cli::{Args, SERVE_FLAGS};
use pfsim_serve::{ServeConfig, Server};

/// Set from the signal handler; polled by the accept loop.
static DRAIN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_drain_signal(_sig: i32) {
    DRAIN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_drain_signals() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_drain_signal as extern "C" fn(i32) as usize;
    // The handler only performs an atomic store (async-signal-safe) and,
    // being a static item, lives for the whole process.
    // SAFETY: `handler` is a valid `extern "C" fn(i32)` registered for SIGTERM(15)/SIGINT(2).
    unsafe {
        signal(15, handler);
        signal(2, handler);
    }
}

#[cfg(not(unix))]
fn install_drain_signals() {}

fn main() {
    let args = Args::parse("pfsim-serve", SERVE_FLAGS);
    install_drain_signals();
    let results_dir = args
        .results_dir
        .clone()
        .or_else(|| std::env::var("PFSIM_RESULTS_DIR").ok())
        .unwrap_or_else(|| "results".to_string());
    let cell_delay_ms = std::env::var("PFSIM_SERVE_CELL_DELAY_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let cfg = ServeConfig {
        port: args.port.unwrap_or(7077),
        workers: args.workers,
        queue_depth: args.queue_depth,
        default_timeout_secs: args.timeout_secs,
        results_dir: PathBuf::from(results_dir),
        cell_delay_ms,
        external_drain: Some(&DRAIN),
        quiet: false,
    };
    let workers = cfg.workers;
    let queue_depth = cfg.queue_depth;
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pfsim-serve: bind: {e}");
            std::process::exit(1);
        }
    };
    let port = server.port();
    if let Some(path) = &args.port_file {
        if let Err(e) = std::fs::write(path, format!("{port}\n")) {
            eprintln!("pfsim-serve: write {path}: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "pfsim-serve: listening on 127.0.0.1:{port} ({workers} workers, queue depth {queue_depth})"
    );
    server.run();
    println!("pfsim-serve: drained");
}
