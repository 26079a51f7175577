//@ path: crates/bench/src/parallel.rs
// The grid fan-out harness is an approved concurrency module: primitives
// are allowed here. Elsewhere, idents that merely *look* thread-adjacent
// (a local named `scope`, a method named `spawn` on another type) are
// not flagged, and test code may use whatever it likes.
use std::sync::Mutex;
use std::sync::atomic::AtomicUsize;

pub struct Pool {
    pub next: AtomicUsize,
    pub out: Mutex<u32>,
}

pub fn workers() {
    std::thread::scope(|_s| {});
}
