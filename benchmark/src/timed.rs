//! The timed run: trace set-up, then full grid passes until the time
//! budget is spent, every cell checked against its anchor.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use pfsim_bench::{shared_trace_for, validate_manifest, ExperimentRun, Manifest, Runner};
use pfsim_mem::SplitMix64;

use crate::grid::{Cell, Grid};
use crate::stats::median;

/// Times `grid.setup_reps` uncached generations of `grid`'s trace set,
/// then fills the shared trace cache the passes replay from. Returns the
/// seconds of each timed generation.
pub fn measure_setup(grid: &Grid) -> Vec<f64> {
    let cpus = grid.cpus();
    let samples = (0..grid.setup_reps)
        .map(|_| {
            let start = Instant::now();
            for app in grid.apps() {
                // One trace alive at a time, and none beside the cache:
                // set-up timing must not raise the peak RSS the passes
                // report.
                black_box(app.build_packed_for(grid.size.problem(), cpus as usize));
            }
            start.elapsed().as_secs_f64()
        })
        .collect();
    for app in grid.apps() {
        shared_trace_for(app, grid.size, cpus);
    }
    samples
}

/// One full grid pass and its verdict.
#[derive(Debug)]
pub struct Pass {
    /// The simulated grid.
    pub run: ExperimentRun,
    /// The grid cell of each `run.cells` entry.
    pub cells: Vec<Cell>,
    /// Seconds in `Runner::execute`.
    pub execute_s: f64,
    /// Seconds in `write_manifest`.
    pub write_s: f64,
    /// Seconds in `validate_manifest`.
    pub validate_s: f64,
    /// Size of the written manifest.
    pub manifest_bytes: u64,
    /// Cells that missed their anchor; every cell when the manifest fails
    /// validation or disagrees with the run.
    pub cells_failed: u64,
    /// What went wrong, one line each (empty when correct).
    pub failures: Vec<String>,
}

impl Pass {
    /// Wall-clock of the whole pass: what a user waits for the grid.
    pub fn seconds(&self) -> f64 {
        self.execute_s + self.write_s + self.validate_s
    }

    /// The pass's wall-clock split into parts, in an order that does not
    /// depend on the drawn cell order: every cell in grid order, then the
    /// runner's own time, the manifest write and its validation. The parts
    /// sum to [`seconds`](Self::seconds).
    pub fn parts(&self, grid: &Grid) -> Vec<f64> {
        let n = self.cells.len();
        let mut parts = vec![0.0; n + 3];
        for (c, &cell) in self.run.cells.iter().zip(&self.cells) {
            parts[grid.position(cell)] = c.wall_seconds;
        }
        let simulated: f64 = parts[..n].iter().sum();
        parts[n] = self.execute_s - simulated;
        parts[n + 1] = self.write_s;
        parts[n + 2] = self.validate_s;
        parts
    }
}

/// Runs one full grid pass in a cell order drawn from `rng`: execute,
/// write the manifest into `out_dir`, validate it; then checks every cell
/// against its anchor and the manifest against the run.
pub fn pass(grid: &Grid, rng: &mut SplitMix64, out_dir: &Path) -> Pass {
    let (spec, cells) = grid.spec(rng);
    let t0 = Instant::now();
    let run = Runner::with_out_dir(out_dir).execute(spec);
    let t1 = Instant::now();
    let written = run.write_manifest();
    let t2 = Instant::now();
    let manifest = written
        .as_ref()
        .map_err(|e| e.to_string())
        .and_then(|path| validate_manifest(path));
    let t3 = Instant::now();

    let mut failures = Vec::new();
    let mut cells_failed = 0;
    for (c, cell) in run.cells.iter().zip(&cells) {
        let (got, want) = (c.result.exec_cycles, grid.anchor(*cell));
        if got != want {
            cells_failed += 1;
            failures.push(format!(
                "{} × {}: simulated {got} pclocks, anchor {want}",
                c.app, run.variants[c.variant].label
            ));
        }
    }
    if let Some(e) = manifest.and_then(|m| manifest_disagreement(&run, &m)).err() {
        cells_failed = run.cells.len() as u64;
        failures.push(format!("manifest: {e}"));
    }
    let manifest_bytes = written
        .ok()
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0, |m| m.len());
    Pass {
        cells,
        execute_s: (t1 - t0).as_secs_f64(),
        write_s: (t2 - t1).as_secs_f64(),
        validate_s: (t3 - t2).as_secs_f64(),
        manifest_bytes,
        cells_failed,
        failures,
        run,
    }
}

/// `Err` naming the first place the validated manifest disagrees with the
/// run it records.
fn manifest_disagreement(run: &ExperimentRun, m: &Manifest) -> Result<(), String> {
    if m.total_pclocks != run.total_pclocks() {
        return Err(format!(
            "records {} pclocks, the run simulated {}",
            m.total_pclocks,
            run.total_pclocks()
        ));
    }
    for c in &run.cells {
        let recorded = m.cell(c.app.name(), c.variant).map(|mc| mc.exec_cycles);
        if recorded != Some(c.result.exec_cycles) {
            return Err(format!(
                "{} × {} records {recorded:?}, the run simulated {}",
                c.app, run.variants[c.variant].label, c.result.exec_cycles
            ));
        }
    }
    Ok(())
}

/// Everything one timed run measured.
#[derive(Debug, Clone)]
pub struct TimedRun {
    /// Seconds of each uncached generation of the trace set.
    pub setup_samples: Vec<f64>,
    /// Each full grid pass split into its [`Pass::parts`].
    pub passes: Vec<Vec<f64>>,
    /// Simulated pclocks of one pass.
    pub pass_pclocks: u64,
    /// Cells simulated over all passes.
    pub cells_run: u64,
    /// Cells that failed a check, over all passes.
    pub cells_failed: u64,
    /// What went wrong (empty when correct).
    pub failures: Vec<String>,
    /// Peak resident set of this process, in MB.
    pub peak_rss_mb: f64,
}

/// Runs as many full passes of `grid` as fit in `seconds` (at least one),
/// with cell orders drawn from `seed`, writing manifests into `out_dir`.
pub fn run_timed(grid: &Grid, seed: u64, seconds: f64, out_dir: &Path) -> TimedRun {
    let setup_samples = measure_setup(grid);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut out = TimedRun {
        setup_samples,
        passes: Vec::new(),
        pass_pclocks: 0,
        cells_run: 0,
        cells_failed: 0,
        failures: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let start = Instant::now();
    loop {
        let p = pass(grid, &mut rng, out_dir);
        let pass_s = p.seconds();
        out.passes.push(p.parts(grid));
        out.pass_pclocks = p.run.total_pclocks();
        out.cells_run += p.run.cells.len() as u64;
        out.cells_failed += p.cells_failed;
        out.failures.extend(p.failures);
        // Stop before a pass that would overrun the budget.
        if start.elapsed().as_secs_f64() + pass_s > seconds {
            break;
        }
    }
    out.peak_rss_mb = peak_rss_mb();
    out
}

impl TimedRun {
    /// Seconds of each full grid pass.
    pub fn pass_seconds(&self) -> Vec<f64> {
        self.passes.iter().map(|p| p.iter().sum()).collect()
    }

    /// The time of a typical pass: each part's median over the passes,
    /// summed. Interference on a shared host comes in bursts that slow some
    /// parts of some passes; a part's median passes over a burst unless it
    /// hits that part in half the passes.
    ///
    /// # Panics
    ///
    /// Panics if the run made no pass.
    pub fn typical_pass_s(&self) -> f64 {
        (0..self.passes[0].len())
            .map(|j| median(&self.passes.iter().map(|p| p[j]).collect::<Vec<f64>>()))
            .sum()
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
