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
/// predicts is 1 byte, any other narrow one 4, an acquire, release or
/// barrier the lane's predictor foresees 1 and any other 9, a short
/// compute 1, and a run record of 4 bytes stands for whole repeats of up
/// to 8 one-byte ops. The six applications together must stay within
/// about 10% of what they measure: 1.127 bytes per op at the default size
/// and 0.260 at the large one, where LU's loops are nearly all runs.
#[test]
fn packed_encoding_stays_within_its_bytes_per_op_budget() {
    for (size, budget) in [(Size::Default, 1.24), (Size::Large, 0.29)] {
        let (mut bytes, mut ops) = (0, 0);
        for app in App::ALL {
            // One trace alive at a time: the large set is 16 MB packed.
            let trace = app.build_packed_for(size.problem(), 16);
            bytes += trace.packed_bytes();
            ops += trace.total_ops();
        }
        let per_op = bytes as f64 / ops as f64;
        assert!(
            per_op <= budget,
            "{size:?}: {bytes} B / {ops} ops = {per_op:.3} B/op (budget {budget})"
        );
    }
}
