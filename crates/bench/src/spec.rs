//! The table-driven experiment API: an [`ExperimentSpec`] describes a
//! grid of application × configuration cells; a [`Runner`] executes it —
//! trace generation (cached, shared), simulation fan-out, progress
//! logging and the JSON run manifest all live here instead of being
//! re-implemented in every binary.
//!
//! A binary reduces to: declare the spec, run it, render its tables.
//!
//! ```no_run
//! use pfsim_bench::cli::{Args, SIZE_FLAGS};
//! use pfsim_bench::ExperimentSpec;
//! use pfsim_prefetch::Scheme;
//! use pfsim_workloads::App;
//!
//! let run = ExperimentSpec::new("figure6")
//!     .size(Args::parse("figure6", SIZE_FLAGS).size)
//!     .apps(App::ALL)
//!     .baseline_and(&[Scheme::Sequential { degree: 1 }])
//!     .run();
//! for row in run.by_app() {
//!     println!("{}: {} pclocks baseline", row[0].app, row[0].result.exec_cycles);
//! }
//! run.write_manifest().unwrap();
//! ```

pub mod wire;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pfsim::{Checkpoint, Cycle, SimResult, System, SystemConfig};
use pfsim_check::ConsistencyOracle;
use pfsim_prefetch::Scheme;
use pfsim_workloads::{App, TraceCursor};

use crate::{cursor_for, par_map, shared_trace_for, Size};

/// One configuration column of an experiment grid.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Column label, used in progress logs and the manifest.
    pub label: String,
    /// The machine configuration this column simulates.
    pub cfg: SystemConfig,
    /// Per-variant problem-size override (`None` means the spec's size);
    /// Table 4 compares base against enlarged data sets this way.
    pub size: Option<Size>,
}

/// Declarative description of one experiment: a named grid of
/// applications × configuration variants at a problem size.
///
/// Built with the fluent methods below and executed by a [`Runner`]
/// (usually via [`ExperimentSpec::run`]). Cells run app-major, and by
/// default fan out across CPUs with the per-process trace cache ensuring
/// each `(app, size)` trace is generated once and shared zero-copy.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    pub(crate) name: String,
    pub(crate) size: Size,
    pub(crate) apps: Vec<App>,
    pub(crate) variants: Vec<Variant>,
    pub(crate) instrument: bool,
    pub(crate) parallel: bool,
    pub(crate) quiet: bool,
    pub(crate) warmup: u64,
    pub(crate) warmup_share: bool,
}

impl ExperimentSpec {
    /// A new spec named `name` (the manifest is written as
    /// `<name>.json`): default problem size, no apps, no variants,
    /// parallel execution, no instrumentation.
    pub fn new(name: impl Into<String>) -> Self {
        ExperimentSpec {
            name: name.into(),
            size: Size::Default,
            apps: Vec::new(),
            variants: Vec::new(),
            instrument: false,
            parallel: true,
            quiet: false,
            warmup: 0,
            warmup_share: true,
        }
    }

    /// Selects the problem size for every cell (per-variant overrides via
    /// [`variant_sized`](Self::variant_sized) win).
    pub fn size(mut self, size: Size) -> Self {
        self.size = size;
        self
    }

    /// Adds applications (grid rows).
    pub fn apps(mut self, apps: impl IntoIterator<Item = App>) -> Self {
        self.apps.extend(apps);
        self
    }

    /// Adds one configuration column.
    pub fn variant(mut self, label: impl Into<String>, cfg: SystemConfig) -> Self {
        self.variants.push(Variant {
            label: label.into(),
            cfg,
            size: None,
        });
        self
    }

    /// Adds one configuration column with its own problem size (the
    /// Table 4 base-vs-larger-data-set comparison).
    pub fn variant_sized(
        mut self,
        label: impl Into<String>,
        cfg: SystemConfig,
        size: Size,
    ) -> Self {
        self.variants.push(Variant {
            label: label.into(),
            cfg,
            size: Some(size),
        });
        self
    }

    /// Adds the paper-baseline column followed by one column per scheme
    /// (each the baseline machine with that prefetcher attached) — the
    /// standard Figure-6-style comparison.
    pub fn baseline_and(mut self, schemes: &[Scheme]) -> Self {
        self = self.variant("baseline", SystemConfig::paper_baseline());
        for &scheme in schemes {
            self = self.variant(
                scheme.to_string(),
                SystemConfig::paper_baseline().with_scheme(scheme),
            );
        }
        self
    }

    /// Turns the observability registry on (or off) for every cell.
    pub fn instrument(mut self, on: bool) -> Self {
        self.instrument = on;
        self
    }

    /// Runs cells one at a time on the calling thread (deterministic
    /// wall-clock attribution; `pfsim-benchmark` times cells this way).
    pub fn serial(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Suppresses the per-cell progress lines on stderr.
    pub fn quiet(mut self) -> Self {
        self.quiet = true;
        self
    }

    /// Declares a warmup boundary at `pclocks` (0 disables, the default).
    ///
    /// A warmed cell runs its first `pclocks` with the prefetcher
    /// detached ([`Scheme::None`]), attaches the variant's scheme at the
    /// boundary with empty detection tables, and runs on — mirroring the
    /// paper's methodology of measuring every scheme over the same
    /// warmed-up machine. Because the warmup prefix is scheme-independent
    /// by construction, cells sharing an `(app, size, stripped-config)`
    /// prefix fork from one cached [`pfsim::Checkpoint`] instead of
    /// re-simulating it: an N-cell ablation costs 1 warmup + N deltas,
    /// bit-identical to simulating each warmed cell straight through
    /// (which [`warmup_straight`](Self::warmup_straight) forces, for
    /// validating exactly that).
    ///
    /// Warmed cells run cell-serially (a checkpoint may carry a forked
    /// consistency oracle, which stays on one thread).
    pub fn warmup(mut self, pclocks: u64) -> Self {
        self.warmup = pclocks;
        self
    }

    /// Disables checkpoint sharing for a warmed spec: every cell
    /// re-simulates its warmup prefix from cold. Only useful for proving
    /// the checkpoint path bit-identical — it is strictly slower.
    pub fn warmup_straight(mut self) -> Self {
        self.warmup_share = false;
        self
    }

    /// Executes the spec with a default [`Runner`].
    pub fn run(self) -> ExperimentRun {
        Runner::new().execute(self)
    }
}

/// Whether `PFSIM_CHECK` asks for the online consistency oracle.
///
/// When on, every cell runs with a [`ConsistencyOracle`] installed and
/// the runner panics on the first violating cell. The oracle's hooks are
/// read-only with respect to simulator state, so enabling it never
/// changes a manifest's pclock totals — CI asserts exactly that.
fn check_from_env() -> bool {
    matches!(
        std::env::var("PFSIM_CHECK").as_deref(),
        Ok("1") | Ok("true") | Ok("on")
    )
}

/// Executes [`ExperimentSpec`]s: generates (cached) traces, fans the
/// grid out over CPUs, logs progress, and owns the manifest output
/// directory (`PFSIM_RESULTS_DIR`, default `results/`).
#[derive(Debug, Clone)]
pub struct Runner {
    out_dir: PathBuf,
}

impl Runner {
    /// A runner writing manifests to `$PFSIM_RESULTS_DIR` (default
    /// `results/`).
    pub fn new() -> Self {
        let dir = std::env::var("PFSIM_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
        Runner {
            out_dir: dir.into(),
        }
    }

    /// A runner writing manifests to `dir`.
    pub fn with_out_dir(dir: impl Into<PathBuf>) -> Self {
        Runner {
            out_dir: dir.into(),
        }
    }

    /// Executes `spec`: the generation phase generates every distinct
    /// `(app, size)` trace (in parallel unless the spec is
    /// [`serial`](ExperimentSpec::serial)), then the simulation phase
    /// runs the full grid app-major. Wall-clock is accounted per phase
    /// and per cell.
    pub fn execute(&self, spec: ExperimentSpec) -> ExperimentRun {
        let gen_start = Instant::now();
        let keys = trace_keys(&spec);
        let describe = |app: App, size: Size, cpus: u16| {
            let t = shared_trace_for(app, size, cpus);
            TraceInfo {
                app,
                size,
                cpus,
                ops: t.total_ops() as u64,
                packed_bytes: t.packed_bytes() as u64,
                bytes_per_op: t.bytes_per_op(),
            }
        };
        let traces = if spec.parallel && keys.len() > 1 {
            par_map(keys, |(app, size, cpus)| describe(app, size, cpus))
        } else {
            keys.into_iter()
                .map(|(a, s, c)| describe(a, s, c))
                .collect()
        };
        let gen_seconds = gen_start.elapsed().as_secs_f64();

        let sim_start = Instant::now();
        let jobs: Vec<(usize, usize)> = (0..spec.apps.len())
            .flat_map(|a| (0..spec.variants.len()).map(move |v| (a, v)))
            .collect();
        let checked = check_from_env();
        // A cell's app, problem size and (instrumented) variant config.
        let cell = |(app_idx, var_idx): (usize, usize)| {
            let variant = &spec.variants[var_idx];
            let mut cfg = variant.cfg.clone();
            if spec.instrument {
                cfg = cfg.with_instrumentation(true);
            }
            (spec.apps[app_idx], variant.size.unwrap_or(spec.size), cfg)
        };
        // A cold machine, with the oracle installed under `PFSIM_CHECK`.
        let machine = |app: App, size: Size, cfg: SystemConfig| {
            let (geometry, nodes) = (cfg.geometry, cfg.nodes);
            let mut sys = System::new(cfg, cursor_for(app, size, nodes));
            if checked {
                sys.set_check_sink(Box::new(ConsistencyOracle::new(geometry, nodes as usize)));
            }
            sys
        };
        // A cell's warmup prefix, simulated from cold without a scheme.
        let warm = |app: App, size: Size, cfg: &SystemConfig| {
            let mut sys = machine(app, size, cfg.clone().with_scheme(Scheme::None));
            sys.run_until(Cycle::new(spec.warmup));
            sys
        };
        let run_cell = |job: (usize, usize), ckpt: Option<&Checkpoint<TraceCursor>>| {
            let (app, size, cfg) = cell(job);
            let var_idx = job.1;
            let variant = &spec.variants[var_idx];
            let start = Instant::now();
            let mut sys = if spec.warmup > 0 {
                // Warmed cell: reach the boundary (by restoring the shared
                // checkpoint or by simulating the scheme-free prefix from
                // cold — bit-identical by construction), then attach the
                // variant's scheme and run on.
                let mut sys = match ckpt {
                    Some(c) => System::restore(c),
                    None => warm(app, size, &cfg),
                };
                sys.reconfigure_scheme(cfg.scheme);
                sys
            } else {
                machine(app, size, cfg)
            };
            let result = sys.run();
            let wall_seconds = start.elapsed().as_secs_f64();
            if checked {
                let oracle = sys
                    .take_check_sink()
                    .expect("sink installed above")
                    .into_any()
                    .downcast::<ConsistencyOracle>()
                    .expect("sink is the oracle");
                assert!(
                    oracle.ok(),
                    "[{}] {} × {}: consistency violations:\n{}",
                    spec.name,
                    app,
                    variant.label,
                    oracle.violations().join("\n")
                );
            }
            if !spec.quiet {
                eprintln!(
                    "[{}] {} × {}: {} pclocks in {:.1}s",
                    spec.name, app, variant.label, result.exec_cycles, wall_seconds
                );
            }
            CellResult {
                app,
                variant: var_idx,
                size,
                result,
                wall_seconds,
            }
        };
        let cells = if spec.warmup > 0 {
            // Warmed grids run cell-serial: checkpoints hold a forked
            // `CheckSink` (not `Send`), and the point is to build each
            // shared warm prefix exactly once anyway.
            let mut checkpoints: HashMap<String, Checkpoint<TraceCursor>> = HashMap::new();
            let mut out = Vec::with_capacity(jobs.len());
            for job in jobs {
                if !spec.warmup_share {
                    out.push(run_cell(job, None));
                    continue;
                }
                let (app, size, cfg) = cell(job);
                // `SystemConfig` has no `Hash`; its `Debug` form is a
                // faithful fingerprint of every field. The prefix runs
                // without a scheme, so the key leaves it out.
                let key = format!(
                    "{}|{size:?}|{:?}",
                    job.0,
                    cfg.clone().with_scheme(Scheme::None)
                );
                let ckpt = checkpoints.entry(key).or_insert_with(|| {
                    warm(app, size, &cfg)
                        .snapshot()
                        .expect("warmup sinks (none or the oracle) all fork")
                });
                out.push(run_cell(job, Some(ckpt)));
            }
            out
        } else if spec.parallel && jobs.len() > 1 {
            par_map(jobs, |j| run_cell(j, None))
        } else {
            jobs.into_iter().map(|j| run_cell(j, None)).collect()
        };
        let sim_seconds = sim_start.elapsed().as_secs_f64();

        ExperimentRun {
            name: spec.name,
            size: spec.size,
            apps: spec.apps,
            variants: spec.variants,
            cells,
            traces,
            gen_seconds,
            sim_seconds,
            sim_finished: Instant::now(),
            out_dir: self.out_dir.clone(),
        }
    }
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new()
    }
}

/// The distinct `(app, size, cpus)` traces `spec` needs, in first-use
/// order — each variant's processor count is its configured node count.
fn trace_keys(spec: &ExperimentSpec) -> Vec<(App, Size, u16)> {
    let mut keys: Vec<(App, Size, u16)> = Vec::new();
    let mut push = |key: (App, Size, u16)| {
        if !keys.contains(&key) {
            keys.push(key);
        }
    };
    for &app in &spec.apps {
        if spec.variants.is_empty() {
            // Trace-only experiment (the workload characterization
            // table): still generate and describe the traces, on the
            // paper's 16-processor machine.
            push((app, spec.size, 16));
        }
        for v in &spec.variants {
            push((app, v.size.unwrap_or(spec.size), v.cfg.nodes));
        }
    }
    keys
}

/// One simulated grid cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The application (grid row).
    pub app: App,
    /// Index into [`ExperimentRun::variants`] (grid column).
    pub variant: usize,
    /// The problem size this cell actually ran.
    pub size: Size,
    /// The simulation result.
    pub result: SimResult,
    /// Host wall-clock the cell took, in seconds.
    pub wall_seconds: f64,
}

/// Shape of one generated trace (for the manifest and the workload
/// table).
#[derive(Debug, Clone, Copy)]
pub struct TraceInfo {
    /// The application.
    pub app: App,
    /// The problem size.
    pub size: Size,
    /// Processors the trace was partitioned onto (the variant's node
    /// count).
    pub cpus: u16,
    /// Total operations across all processors.
    pub ops: u64,
    /// Resident bytes of the packed encoding.
    pub packed_bytes: u64,
    /// Amortized resident bytes per operation.
    pub bytes_per_op: f64,
}

/// The completed execution of an [`ExperimentSpec`]: every cell result
/// plus phase wall-clock, ready for rendering and for
/// [`write_manifest`](ExperimentRun::write_manifest).
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    /// The spec's name.
    pub name: String,
    /// The spec's default problem size.
    pub size: Size,
    /// Grid rows.
    pub apps: Vec<App>,
    /// Grid columns.
    pub variants: Vec<Variant>,
    /// Cell results, app-major (`apps.len() × variants.len()`).
    pub cells: Vec<CellResult>,
    /// The distinct traces the run generated.
    pub traces: Vec<TraceInfo>,
    /// Wall-clock of the trace-generation phase, in seconds.
    pub gen_seconds: f64,
    /// Wall-clock of the simulation phase, in seconds.
    pub sim_seconds: f64,
    pub(crate) sim_finished: Instant,
    pub(crate) out_dir: PathBuf,
}

impl ExperimentRun {
    /// Sum of simulated execution time over all cells, in pclocks (the
    /// grid total a manifest records as `total_pclocks`).
    pub fn total_pclocks(&self) -> u64 {
        self.cells.iter().map(|c| c.result.exec_cycles).sum()
    }

    /// The cells of each application in spec order, one slice per app
    /// (each of `variants.len()` cells, variant-ordered).
    pub fn by_app(&self) -> impl Iterator<Item = &[CellResult]> {
        self.cells.chunks(self.variants.len().max(1))
    }

    /// The cell for `(app_idx, var_idx)`.
    pub fn cell(&self, app_idx: usize, var_idx: usize) -> &CellResult {
        &self.cells[app_idx * self.variants.len() + var_idx]
    }

    /// The directory manifests are written to.
    pub fn out_dir(&self) -> &Path {
        &self.out_dir
    }

    /// Writes the JSON run manifest to `<out_dir>/<name>.json` and
    /// returns its path. The analyze-phase wall-clock is stamped as the
    /// time elapsed since simulation finished, so rendering/analysis
    /// done by the binary before this call is accounted.
    pub fn write_manifest(&self) -> std::io::Result<PathBuf> {
        let analyze_seconds = self.sim_finished.elapsed().as_secs_f64();
        let path = self.out_dir.join(format!("{}.json", self.name));
        std::fs::create_dir_all(&self.out_dir)?;
        let doc = crate::manifest::manifest_json(self, analyze_seconds);
        std::fs::write(&path, doc.render())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfsim_prefetch::Scheme;

    #[test]
    fn spec_builder_accumulates() {
        let spec = ExperimentSpec::new("t")
            .size(Size::Paper)
            .apps([App::Mp3d, App::Water])
            .baseline_and(&[Scheme::Sequential { degree: 1 }])
            .variant_sized("large", SystemConfig::paper_baseline(), Size::Large)
            .serial()
            .quiet();
        assert_eq!(spec.apps, [App::Mp3d, App::Water]);
        assert_eq!(spec.variants.len(), 3);
        assert_eq!(spec.variants[0].label, "baseline");
        assert_eq!(spec.variants[1].label, "Seq(d=1)");
        assert_eq!(spec.variants[2].size, Some(Size::Large));
        assert!(!spec.parallel);
        assert!(spec.quiet);
    }

    #[test]
    fn trace_keys_dedup_and_honour_overrides() {
        let spec = ExperimentSpec::new("t")
            .apps([App::Mp3d, App::Water])
            .variant("a", SystemConfig::paper_baseline())
            .variant("b", SystemConfig::paper_baseline())
            .variant_sized("c", SystemConfig::paper_baseline(), Size::Paper);
        assert_eq!(
            trace_keys(&spec),
            vec![
                (App::Mp3d, Size::Default, 16),
                (App::Mp3d, Size::Paper, 16),
                (App::Water, Size::Default, 16),
                (App::Water, Size::Paper, 16),
            ]
        );
        // No variants: trace-only experiment still lists its apps.
        let spec = ExperimentSpec::new("t").apps([App::Lu]);
        assert_eq!(trace_keys(&spec), vec![(App::Lu, Size::Default, 16)]);
    }

    /// A big-mesh variant pulls a re-partitioned trace: the key carries
    /// its node count, distinct from the 16-processor column's.
    #[test]
    fn trace_keys_follow_variant_node_counts() {
        let spec = ExperimentSpec::new("t")
            .apps([App::Chase])
            .variant("4x4", SystemConfig::paper_baseline())
            .variant("8x8", SystemConfig::builder().mesh_dims(8, 8).build());
        assert_eq!(
            trace_keys(&spec),
            vec![
                (App::Chase, Size::Default, 16),
                (App::Chase, Size::Default, 64),
            ]
        );
    }
}
