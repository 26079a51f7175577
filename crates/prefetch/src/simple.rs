//! The "simplest stride prefetching scheme" of §3.2.
//!
//! The paper introduces I-detection with a minimal scheme before the
//! Baer–Chen FSM: the first miss by a load instruction records its
//! address; the second access computes the stride and *immediately*
//! prefetches — with no confirmation states and, crucially, no `no-pref`
//! state to shut a misbehaving instruction off. The paper notes it
//! "succeeds in detecting most strides, but has the drawback of producing
//! useless prefetches in situations where the same load instruction is
//! executed twice and the addresses do not form a stride sequence."
//!
//! It is included so the `ablation_detection` experiment can measure that
//! drawback against the full FSM.

use pfsim_mem::{Addr, BlockAddr, Geometry};

use crate::idet::{rpt_index, RPT_ENTRIES};
use crate::{emit, ReadAccess, ReadOutcome};

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u32,
    prev: Addr,
    stride: Option<i64>,
}

/// The two-state RPT of §3.2's opening description: *no-prefetch* until a
/// stride is computed, *prefetch* forever after — recomputing the stride
/// on every access and never giving up.
///
/// # Examples
///
/// ```
/// use pfsim_mem::{Addr, BlockAddr, Geometry, Pc};
/// use pfsim_prefetch::{ReadAccess, ReadOutcome, SimpleStride};
///
/// let mut s = SimpleStride::new(Geometry::paper(), 1);
/// let mut out = Vec::new();
/// let access = |a| ReadAccess { pc: Pc::new(8), addr: Addr::new(a), outcome: ReadOutcome::Miss };
/// s.on_read(&access(0x1000), &mut out);
/// assert!(out.is_empty()); // first occurrence: no stride yet
/// s.on_read(&access(0x1040), &mut out);
/// assert_eq!(out, [BlockAddr::new(0x1080 / 32)]); // prefetching begins
/// ```
#[derive(Debug, Clone)]
pub struct SimpleStride {
    geometry: Geometry,
    degree: u32,
    table: Vec<Option<Entry>>,
}

impl SimpleStride {
    /// Creates a simple-stride prefetcher of degree *d* = `degree` over a
    /// table the size of I-detection's RPT.
    pub fn new(geometry: Geometry, degree: u32) -> Self {
        SimpleStride {
            geometry,
            degree,
            table: vec![None; RPT_ENTRIES],
        }
    }

    /// Observes one read request: see [`crate::Prefetcher::on_read`].
    pub fn on_read(&mut self, access: &ReadAccess, out: &mut Vec<BlockAddr>) {
        let idx = rpt_index(access.pc);
        let tag = access.pc.as_u32();
        let Some(entry) = self.table[idx].as_mut().filter(|e| e.tag == tag) else {
            if access.outcome == ReadOutcome::Miss {
                self.table[idx] = Some(Entry {
                    tag,
                    prev: access.addr,
                    stride: None,
                });
            }
            return;
        };

        // Recompute the stride on every access — the scheme never
        // confirms and never stops.
        let stride = access.addr.stride_from(entry.prev);
        entry.prev = access.addr;
        if stride == 0 {
            return;
        }
        entry.stride = Some(stride);

        if access.outcome.continues_stream() {
            // Shared prefetch phase: one block d·S ahead.
            emit::push_strided_ahead(self.geometry, access.addr, stride, self.degree, out);
        } else if access.outcome == ReadOutcome::Miss {
            emit::push_strided_range(self.geometry, access.addr, stride, 1, self.degree, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Prefetcher, Scheme};
    use pfsim_mem::Pc;

    const PC: Pc = Pc::new(0x40);

    fn read(p: &mut Prefetcher, addr: u64) -> Vec<u64> {
        let mut out = Vec::new();
        p.on_read(
            &ReadAccess {
                pc: PC,
                addr: Addr::new(addr),
                outcome: ReadOutcome::Miss,
            },
            &mut out,
        );
        out.into_iter().map(|b| b.as_u64()).collect()
    }

    #[test]
    fn prefetches_from_the_second_access() {
        let mut s = Scheme::SimpleStride { degree: 1 }.build(Geometry::paper());
        assert!(read(&mut s, 0x1000).is_empty());
        assert_eq!(read(&mut s, 0x1040), [0x1080 / 32]);
        assert_eq!(read(&mut s, 0x1080), [0x10c0 / 32]);
    }

    #[test]
    fn never_stops_prefetching_on_erratic_streams() {
        // The drawback the paper describes: erratic addresses keep
        // producing (useless) prefetches, where the FSM scheme would have
        // entered NoPref.
        // Erratic but near: the strides vary, and the (useless) prefetch
        // candidates stay within the page, so they would actually issue.
        let erratic = [0x1000u64, 0x1100, 0x1060, 0x13c0, 0x1020, 0x1800];
        let mut simple = Scheme::SimpleStride { degree: 1 }.build(Geometry::paper());
        let mut fsm = Scheme::IDetection { degree: 1 }.build(Geometry::paper());
        let mut simple_issued = 0;
        let mut fsm_issued = 0;
        for &a in &erratic {
            simple_issued += read(&mut simple, a).len();
            fsm_issued += read(&mut fsm, a).len();
        }
        assert!(
            simple_issued > fsm_issued,
            "simple {simple_issued} vs fsm {fsm_issued}"
        );
        // After the erratic run the FSM sits in NoPref and stays quiet on
        // the next small-stride pair, while the simple scheme fires
        // immediately.
        read(&mut simple, 0x200000);
        read(&mut fsm, 0x200000);
        assert!(!read(&mut simple, 0x200040).is_empty());
        assert!(read(&mut fsm, 0x200040).is_empty());
    }

    #[test]
    fn respects_page_boundaries() {
        let mut s = Scheme::SimpleStride { degree: 1 }.build(Geometry::paper());
        read(&mut s, 0x0f80);
        let out = read(&mut s, 0x0fe0); // stride 0x60: next would be 0x1040, page 1
        assert!(out.is_empty(), "{out:?}");
    }
}
