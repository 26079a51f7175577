//! The deterministic event queue at the heart of the simulator.

// Event hot path: no panic, unwrap or expect outside tests. A site whose
// invariant makes one unreachable carries an `#[expect]` stating it.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Cycle;

/// Number of one-cycle-wide calendar buckets. A power of two so the bucket
/// index is a mask. Simulator events cluster within a few hundred cycles of
/// the cursor (memory latency is ~100 pclocks), so 1024 keeps virtually all
/// scheduling inside the wheel.
const BUCKETS: usize = 1024;
const MASK: u64 = BUCKETS as u64 - 1;
/// Words of the occupancy bitmap (one bit per bucket).
const WORDS: usize = BUCKETS / 64;
/// Null link in the slot arena (terminates bucket chains and the free
/// list).
const NIL: u32 = u32::MAX;

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// Events scheduled for the same [`Cycle`] are delivered in the order they
/// were scheduled. This makes whole-system simulations bit-for-bit
/// reproducible, which the reproduction relies on: the paper's program-driven
/// methodology keeps the interleaving of memory references identical between
/// the baseline and each prefetching configuration of the same run.
///
/// # Implementation
///
/// A calendar queue: a wheel of `BUCKETS` (1024) one-cycle buckets covers the
/// near future `[cursor, cursor + BUCKETS)`, so `schedule` and `pop` are
/// O(1) for the common case instead of O(log n) heap operations. Two
/// small binary heaps (ordered by `(time, seq)`) catch the uncommon
/// cases: events scheduled in the past ("overdue") and events beyond the
/// wheel horizon ("overflow").
///
/// Wheel storage is a slot arena in struct-of-arrays layout: one `Vec`
/// of event payloads and one parallel `Vec` of `u32` links, with each
/// bucket holding an index-linked FIFO chain (`head`/`tail` per bucket)
/// and freed slots recycled through an intrusive free list. Compared to
/// a `VecDeque` per bucket this keeps all pending events in two dense
/// allocations that are reused for the whole run — no per-bucket buffers
/// to grow, shrink, or walk — and the cursor advance is branchless (the
/// unconditional `cursor += advance` costs nothing when the next bucket
/// is the current one). The occupancy bitmap (one bit per bucket) lets
/// `pop` and `peek_time` skip runs of empty buckets a word at a time.
///
/// Determinism argument: a bucket only ever holds events for a single
/// cycle, so its FIFO order *is* sequence order provided insertions happen
/// in sequence order. They do: overflow events are drained into the wheel
/// eagerly — inside `pop`, immediately after every cursor advance, before
/// any later `schedule` call can run — so an overflow event (low seq) is
/// always appended before any newly scheduled event for the same cycle
/// (necessarily higher seq). The cursor never passes a non-empty bucket,
/// so a cycle stays mapped to its bucket until every event for it has been
/// delivered.
///
/// # Examples
///
/// ```
/// use pfsim_engine::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle::new(10), 1u32);
/// q.schedule(Cycle::new(10), 2u32);
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.pop(), Some((Cycle::new(10), 1)));
/// assert_eq!(q.pop(), Some((Cycle::new(10), 2)));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Arena payload slots; `None` marks a slot parked on the free list.
    events: Vec<Option<E>>,
    /// Parallel link array: the next slot of the same bucket's FIFO chain
    /// while the payload is live, the next free slot while it is not.
    /// [`NIL`] terminates both kinds of chain.
    links: Vec<u32>,
    /// Head of the free-slot list ([`NIL`] when every slot is live).
    free: u32,
    /// `head[t & MASK]` indexes the oldest pending event for cycle `t`,
    /// for `t` in `[cursor, cursor + BUCKETS)`; [`NIL`] when the bucket
    /// is empty.
    head: [u32; BUCKETS],
    /// Newest slot of each bucket chain (appends are O(1)).
    tail: [u32; BUCKETS],
    /// One bit per bucket: set iff the bucket is non-empty. Lets `pop` and
    /// `peek_time` jump over runs of empty buckets a word at a time instead
    /// of probing each chain head.
    occupied: [u64; WORDS],
    /// Total events in the wheel.
    wheel_len: usize,
    /// The next cycle `pop` will scan; no wheel event is earlier.
    cursor: u64,
    /// Events scheduled for cycles before `cursor`.
    overdue: BinaryHeap<Entry<E>>,
    /// Events at or beyond `cursor + BUCKETS`.
    overflow: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

// Min-heap ordering on (time, sequence). `BinaryHeap` is a max-heap, so the
// comparison is reversed.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            events: Vec::new(),
            links: Vec::new(),
            free: NIL,
            head: [NIL; BUCKETS],
            tail: [NIL; BUCKETS],
            occupied: [0; WORDS],
            wheel_len: 0,
            cursor: 0,
            overdue: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Appends `event` to bucket `i`'s FIFO chain, recycling a free slot
    /// when one exists and growing the arena otherwise.
    #[inline]
    fn bucket_push(&mut self, i: usize, event: E) {
        let idx = if self.free == NIL {
            let idx = self.events.len() as u32;
            self.events.push(Some(event));
            self.links.push(NIL);
            idx
        } else {
            let idx = self.free;
            self.free = self.links[idx as usize];
            self.events[idx as usize] = Some(event);
            self.links[idx as usize] = NIL;
            idx
        };
        let t = self.tail[i];
        if t == NIL {
            self.head[i] = idx;
        } else {
            self.links[t as usize] = idx;
        }
        self.tail[i] = idx;
        self.occupied[i >> 6] |= 1 << (i & 63);
        self.wheel_len += 1;
    }

    /// Detaches and returns the oldest event of bucket `i`, parking its
    /// slot on the free list (and clearing the occupancy bit when the
    /// chain empties).
    #[inline]
    fn bucket_pop(&mut self, i: usize) -> Option<E> {
        let idx = self.head[i];
        if idx == NIL {
            return None;
        }
        let slot = idx as usize;
        self.head[i] = self.links[slot];
        if self.head[i] == NIL {
            self.tail[i] = NIL;
            self.occupied[i >> 6] &= !(1 << (i & 63));
        }
        let event = self.events[slot].take();
        self.links[slot] = self.free;
        self.free = idx;
        self.wheel_len -= 1;
        event
    }

    /// Schedules `event` for delivery at time `at`.
    ///
    /// Scheduling in the past is allowed (the event is delivered at the next
    /// [`pop`](Self::pop)); callers that care should clamp with
    /// [`Cycle::max`] first.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = at.as_u64();
        if t < self.cursor {
            self.overdue.push(Entry { at, seq, event });
        } else if t - self.cursor < BUCKETS as u64 {
            self.bucket_push((t & MASK) as usize, event);
        } else {
            self.overflow.push(Entry { at, seq, event });
        }
    }

    /// Index of the first occupied bucket at cyclic distance ≥ 0 from
    /// `from`, or `None` if the wheel is empty. O(WORDS).
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let w0 = from >> 6;
        let first = self.occupied[w0] & (!0u64 << (from & 63));
        if first != 0 {
            return Some((w0 << 6) + first.trailing_zeros() as usize);
        }
        for k in 1..=WORDS {
            let w = (w0 + k) & (WORDS - 1);
            let word = self.occupied[w];
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Moves every overflow event that now falls inside the wheel horizon
    /// into its bucket. Heap pop order is `(time, seq)`, so same-cycle
    /// events arrive in sequence order.
    fn drain_overflow(&mut self) {
        let horizon = self.cursor + BUCKETS as u64;
        while let Some(head) = self.overflow.peek() {
            if head.at.as_u64() >= horizon {
                break;
            }
            #[expect(
                clippy::expect_used,
                reason = "peek returned Some on this very iteration"
            )]
            let e = self.overflow.pop().expect("peeked");
            self.bucket_push((e.at.as_u64() & MASK) as usize, e.event);
        }
    }

    /// Removes and returns the earliest event, breaking time ties in
    /// scheduling order.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        // Overdue events are all earlier than the cursor, hence earlier
        // than anything in the wheel or overflow.
        if let Some(e) = self.overdue.pop() {
            return Some((e.at, e.event));
        }
        if self.wheel_len == 0 {
            // Jump the cursor straight to the next scheduled cycle.
            let next = self.overflow.peek()?.at.as_u64();
            self.cursor = next;
            self.drain_overflow();
        }
        // Jump to the next occupied bucket. Skipped buckets now map to
        // cycles `≥ old cursor + BUCKETS`; pulling overflow in immediately
        // after the advance (before any later `schedule` could append to
        // them out of order) preserves same-cycle FIFO. No overflow event
        // can precede the found bucket: all of overflow is at or beyond the
        // pre-advance horizon, which is beyond every wheel event. The
        // advance itself is unconditional (adding zero is free); only the
        // overflow drain keeps a guard, and on heap emptiness rather than
        // on the advance, since an empty heap has nothing to drain no
        // matter how far the cursor moved.
        let from = (self.cursor & MASK) as usize;
        #[expect(
            clippy::expect_used,
            reason = "wheel_len > 0 guarantees an occupied bucket exists"
        )]
        let i = self.next_occupied(from).expect("wheel_len > 0");
        self.cursor += (i.wrapping_sub(from) & (BUCKETS - 1)) as u64;
        if !self.overflow.is_empty() {
            self.drain_overflow();
        }
        #[expect(
            clippy::expect_used,
            reason = "occupancy bitmap says this bucket is non-empty"
        )]
        let event = self.bucket_pop(i).expect("occupied bit set");
        Some((Cycle::new(self.cursor), event))
    }

    /// Returns the delivery time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        if let Some(e) = self.overdue.peek() {
            return Some(e.at);
        }
        if self.wheel_len > 0 {
            let from = (self.cursor & MASK) as usize;
            #[expect(
                clippy::expect_used,
                reason = "wheel_len > 0 guarantees an occupied bucket exists"
            )]
            let i = self.next_occupied(from).expect("wheel_len > 0");
            let advance = (i.wrapping_sub(from) & (BUCKETS - 1)) as u64;
            return Some(Cycle::new(self.cursor + advance));
        }
        self.overflow.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overdue.len() + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy split `(wheel, overdue, overflow)`: how many pending
    /// events sit in the calendar wheel, the already-due side heap, and
    /// the beyond-horizon overflow heap. Observability hook — events in
    /// the wheel pop in O(1), the two heaps pay a log; a persistently
    /// large overflow count means the horizon is mis-sized for the
    /// workload's scheduling distance.
    pub fn depth_profile(&self) -> (usize, usize, usize) {
        (self.wheel_len, self.overdue.len(), self.overflow.len())
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(30), "late");
        q.schedule(Cycle::new(10), "early");
        q.schedule(Cycle::new(20), "middle");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["early", "middle", "late"]);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle::new(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_deterministic() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(5), 'a');
        q.schedule(Cycle::new(5), 'b');
        assert_eq!(q.pop(), Some((Cycle::new(5), 'a')));
        q.schedule(Cycle::new(5), 'c');
        assert_eq!(q.pop(), Some((Cycle::new(5), 'b')));
        assert_eq!(q.pop(), Some((Cycle::new(5), 'c')));
    }

    #[test]
    fn peek_time_reports_next_delivery() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(Cycle::new(9), ());
        q.schedule(Cycle::new(4), ());
        assert_eq!(q.peek_time(), Some(Cycle::new(4)));
    }

    #[test]
    fn len_and_is_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Cycle::ZERO, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_cross_the_wheel_horizon() {
        let mut q = EventQueue::new();
        // Far beyond the wheel: lands in overflow, and two events for the
        // same distant cycle must still pop in scheduling order.
        let far = Cycle::new(10 * BUCKETS as u64 + 3);
        q.schedule(far, "first");
        q.schedule(Cycle::new(2), "near");
        q.schedule(far, "second");
        assert_eq!(q.pop(), Some((Cycle::new(2), "near")));
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop(), Some((far, "first")));
        assert_eq!(q.pop(), Some((far, "second")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_then_schedule_same_cycle_keeps_fifo() {
        let mut q = EventQueue::new();
        let t = Cycle::new(3 * BUCKETS as u64);
        q.schedule(t, 1); // goes to overflow
        q.schedule(Cycle::new(1), 0);
        assert_eq!(q.pop(), Some((Cycle::new(1), 0))); // cursor jumps near t? no: jumps to 1
                                                       // Popping once more jumps the cursor to t and drains overflow;
                                                       // a fresh schedule for the same cycle must land *behind* it.
        assert_eq!(q.peek_time(), Some(t));
        q.schedule(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn scheduling_in_the_past_delivers_immediately() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(50), "now");
        assert_eq!(q.pop(), Some((Cycle::new(50), "now")));
        // Cursor is at 50; schedule earlier events out of order.
        q.schedule(Cycle::new(10), "late-b");
        q.schedule(Cycle::new(5), "late-a");
        q.schedule(Cycle::new(60), "future");
        assert_eq!(q.peek_time(), Some(Cycle::new(5)));
        assert_eq!(q.pop(), Some((Cycle::new(5), "late-a")));
        assert_eq!(q.pop(), Some((Cycle::new(10), "late-b")));
        assert_eq!(q.pop(), Some((Cycle::new(60), "future")));
    }

    /// Reference implementation: the original binary-heap queue.
    struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }
        fn schedule(&mut self, at: Cycle, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, event });
        }
        fn pop(&mut self) -> Option<(Cycle, E)> {
            self.heap.pop().map(|e| (e.at, e.event))
        }
    }

    /// A local SplitMix64 (this crate sits below `pfsim-mem`, which hosts
    /// the shared copy, so the test carries its own).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
        }
    }

    /// Random interleavings of schedule and pop agree with the heap
    /// reference on every popped `(time, event)` pair — including events
    /// in the past, at the cursor, and far beyond the wheel horizon.
    #[test]
    fn matches_heap_reference_model() {
        let mut rng = Rng(0xca1eda5);
        for _case in 0..200 {
            let mut cal: EventQueue<u32> = EventQueue::new();
            let mut heap: HeapQueue<u32> = HeapQueue::new();
            let mut now = 0u64;
            let mut id = 0u32;
            for _ in 0..rng.below(400) {
                if rng.below(3) < 2 {
                    // Schedule around `now`: mostly near future, sometimes
                    // far future (overflow) or the past (overdue).
                    let at = match rng.below(10) {
                        0 => now.saturating_sub(rng.below(100)),
                        1..=2 => now + BUCKETS as u64 + rng.below(5000),
                        _ => now + rng.below(300),
                    };
                    cal.schedule(Cycle::new(at), id);
                    heap.schedule(Cycle::new(at), id);
                    id += 1;
                } else {
                    let got = cal.pop();
                    let want = heap.pop();
                    assert_eq!(got, want);
                    if let Some((t, _)) = got {
                        now = t.as_u64();
                    }
                }
                assert_eq!(cal.len(), heap.heap.len());
            }
            // Drain: the full remaining order must match.
            loop {
                let got = cal.pop();
                let want = heap.pop();
                assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }

    /// Same-cycle FIFO survives overflow draining: schedule bursts for one
    /// distant cycle across several drain points and check global order.
    #[test]
    fn distant_bursts_stay_in_sequence_order() {
        let mut q = EventQueue::new();
        let t = Cycle::new(7777);
        q.schedule(t, 0);
        q.schedule(Cycle::new(1), 100);
        q.schedule(t, 1);
        q.pop(); // advances toward the burst cycle
        q.schedule(t, 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [0, 1, 2]);
    }
}
