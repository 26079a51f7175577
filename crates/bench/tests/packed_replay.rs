//! Packed-trace replay determinism and size.
//!
//! The packed shared-trace subsystem must be invisible to the timing
//! model: replaying an `Arc<PackedTrace>` through a `TraceCursor` has to
//! produce the same `SimResult`, byte for byte, as the materialized
//! `Vec<Op>` path — for every application — and decoding the same shared
//! trace from many threads at once must yield identical op streams. The
//! encoding must also stay within its bytes-per-op budget.

use std::sync::Arc;

use pfsim::{SimResult, System, SystemConfig};
use pfsim_bench::{cursor, par_map, shared_trace, Size};
use pfsim_prefetch::Scheme;
use pfsim_workloads::{App, Op, TraceCursor, Workload};

/// The full observable surface of a run, compared field by field so a
/// mismatch names what diverged instead of dumping two debug strings.
fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.exec_cycles, b.exec_cycles, "{what}: exec_cycles");
    assert_eq!(a.nodes, b.nodes, "{what}: per-node counters");
    assert_eq!(a.net, b.net, "{what}: network stats");
    assert_eq!(a.dir, b.dir, "{what}: directory stats");
    assert_eq!(a.miss_traces, b.miss_traces, "{what}: miss traces");
}

/// For every application, the packed-replay result is byte-identical to
/// the materialized-trace result, on the baseline and on a prefetching
/// configuration (which adds prefetch-table and traffic state).
#[test]
fn packed_replay_matches_materialized_path_for_every_app() {
    for app in App::ALL {
        for scheme in [None, Some(Scheme::Sequential { degree: 1 })] {
            let mut cfg = SystemConfig::paper_baseline();
            if let Some(s) = scheme {
                cfg = cfg.with_scheme(s);
            }
            let materialized = System::new(cfg.clone(), app.build_default()).run();
            let packed = System::new(cfg, cursor(app, Size::Default)).run();
            assert_identical(
                &materialized,
                &packed,
                &format!("{app} {scheme:?} packed vs materialized"),
            );
        }
    }
}

/// Two decodes of the same shared trace are identical across threads:
/// four workers each fully drain a private cursor over one
/// `Arc<PackedTrace>` and must see the same op stream.
#[test]
fn concurrent_decodes_of_one_shared_trace_are_identical() {
    let trace = shared_trace(App::Ocean, Size::Default);
    let reference: Vec<Vec<Op>> = drain(TraceCursor::new(Arc::clone(&trace)));

    let decodes = par_map(vec![(); 4], |()| {
        drain(TraceCursor::new(Arc::clone(&trace)))
    });
    for (w, decoded) in decodes.iter().enumerate() {
        assert_eq!(decoded, &reference, "worker {w} decoded a different stream");
    }
}

fn drain(mut cursor: TraceCursor) -> Vec<Vec<Op>> {
    (0..cursor.num_cpus())
        .map(|cpu| std::iter::from_fn(|| cursor.next(cpu)).collect())
        .collect()
}

/// The builder's two finishers agree: `finish()` is defined as the decode
/// of `finish_packed()`, so the materialized trace and the packed decode
/// enumerate the same ops (spot-checked per CPU on one app).
#[test]
fn materialized_trace_equals_packed_decode() {
    let wl = App::Lu.build_default();
    let packed = shared_trace(App::Lu, Size::Default);
    assert_eq!(wl.total_ops(), packed.total_ops());
    for cpu in 0..wl.num_cpus() {
        let decoded: Vec<Op> = packed.iter_cpu(cpu).collect();
        assert_eq!(wl.trace(cpu), &decoded[..], "cpu {cpu}");
    }
}

/// The packed encoding's budget: a narrow read is 4 bytes and a compute
/// 2, so the six applications together must stay within 4.5 bytes per op
/// (they measure 3.89).
#[test]
fn packed_encoding_stays_within_four_and_a_half_bytes_per_op() {
    let traces: Vec<_> = App::ALL
        .iter()
        .map(|&app| shared_trace(app, Size::Default))
        .collect();
    let bytes: usize = traces.iter().map(|t| t.packed_bytes()).sum();
    let ops: usize = traces.iter().map(|t| t.total_ops()).sum();
    let per_op = bytes as f64 / ops as f64;
    assert!(per_op <= 4.5, "{bytes} B / {ops} ops = {per_op:.2} B/op");
}
