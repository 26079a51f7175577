//! A scoped-thread fan-out for independent simulation runs.
//!
//! Each (config, workload) run is single-threaded and bit-for-bit
//! deterministic, so a sweep of independent runs parallelizes trivially:
//! workers pull jobs from a shared queue and results are returned in the
//! input order, making the caller's rendered output byte-identical to a
//! serial sweep regardless of completion order.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the grid fan-out is one of the two places pfsim-bench may use threads and locks"
)]

use std::collections::VecDeque;
use std::sync::Mutex;

/// Applies `f` to every input on a pool of scoped threads and returns the
/// outputs **in input order**.
///
/// Worker count is `available_parallelism` clamped to the job count (and
/// can be pinned with the `PFSIM_THREADS` environment variable; `1` gives
/// a serial run with identical results). `f` must be pure per-job —
/// nothing here serializes access to shared state.
///
/// # Examples
///
/// ```
/// let squares = pfsim_bench::par_map(vec![1u64, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, [1, 4, 9, 16]);
/// ```
pub fn par_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = inputs.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return inputs.into_iter().map(f).collect();
    }

    let jobs: Mutex<VecDeque<(usize, I)>> = Mutex::new(inputs.into_iter().enumerate().collect());
    let done: Mutex<Vec<(usize, O)>> = Mutex::new(Vec::with_capacity(n));
    let f = &f;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = jobs.lock().unwrap().pop_front();
                let Some((i, input)) = job else { break };
                let out = f(input);
                done.lock().unwrap().push((i, out));
            });
        }
    });

    let mut done = done.into_inner().unwrap();
    done.sort_by_key(|&(i, _)| i);
    assert_eq!(done.len(), n, "a worker panicked and dropped its job");
    done.into_iter().map(|(_, out)| out).collect()
}

fn worker_count(jobs: usize) -> usize {
    let hw = std::env::var("PFSIM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
    hw.min(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_come_back_in_input_order() {
        // Reverse sleep times so completion order opposes input order.
        let inputs: Vec<u64> = (0..16).collect();
        let out = par_map(inputs.clone(), |i| {
            std::thread::sleep(std::time::Duration::from_millis(16 - i));
            i * 10
        });
        assert_eq!(out, inputs.iter().map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_job_runs_inline() {
        assert_eq!(par_map(vec![7], |x| x + 1), [8]);
    }

    #[test]
    fn parallel_matches_serial_for_a_real_simulation() {
        use pfsim::{System, SystemConfig};

        let run = || {
            let wl = pfsim_workloads::micro::sequential_walk(16, 48, 1);
            System::new(SystemConfig::paper_baseline(), wl).run()
        };
        let serial: Vec<u64> = (0..4).map(|_| run().exec_cycles).collect();
        let parallel = par_map(vec![(); 4], |()| run().exec_cycles);
        assert_eq!(serial, parallel);
    }
}
