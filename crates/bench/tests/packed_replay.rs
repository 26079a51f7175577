//! Packed-trace replay: decoding the same shared trace from many threads
//! at once must yield identical op streams, and the encoding must stay
//! within its bytes-per-op budget.

use std::sync::Arc;

use pfsim_bench::{par_map, shared_trace, Size};
use pfsim_workloads::{App, Op, TraceCursor, Workload};

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

/// The packed encoding's budget: a read or write its site's stride
/// predicts is 1 byte, any other narrow one 4 and a short compute 1, so
/// the six applications together must stay within 2.5 bytes per op (they
/// measure 2.06).
#[test]
fn packed_encoding_stays_within_two_and_a_half_bytes_per_op() {
    let traces: Vec<_> = App::ALL
        .iter()
        .map(|&app| shared_trace(app, Size::Default))
        .collect();
    let bytes: usize = traces.iter().map(|t| t.packed_bytes()).sum();
    let ops: usize = traces.iter().map(|t| t.total_ops()).sum();
    let per_op = bytes as f64 / ops as f64;
    assert!(per_op <= 2.5, "{bytes} B / {ops} ops = {per_op:.2} B/op");
}
