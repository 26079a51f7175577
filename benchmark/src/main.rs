//! `pfsim-benchmark` command line. See `README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use pfsim_analysis::Json;
use pfsim_benchmark::grid::{grid, Grid, GRIDS};
use pfsim_benchmark::metrics::{END_TO_END, PER_LAYER};
use pfsim_benchmark::report::{self, floats, one_line, result_json};
use pfsim_benchmark::stats::median;
use pfsim_benchmark::{timed, traced};

const USAGE: &str = "usage:
  pfsim-benchmark [--runs N] [--seconds S] [--out PATH]
      every workload, timed: N runs of S seconds each, one process per run
  pfsim-benchmark --traced [--out PATH]
      every workload, traced: the per-layer table
  pfsim-benchmark --compare A.json B.json
      each end-to-end metric of results B judged against results A
  pfsim-benchmark --workload NAME --seed N --seconds S --trace 0|1
      one run of one workload; the last stdout line is its JSON result";

/// Environment variables that make `Runner` silently change what it runs.
const GUARDED_ENV: [&str; 4] = [
    "PFSIM_CHECK",
    "PFSIM_INSTRUMENT",
    "PFSIM_SHARDS",
    "PFSIM_THREADS",
];

enum Mode {
    Suite {
        runs: u64,
        seconds: f64,
        traced: bool,
        out: Option<PathBuf>,
    },
    One {
        grid: &'static Grid,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut runs = 3u64;
    let mut seconds = 25.0f64;
    let mut traced = false;
    let mut out = None;
    let mut workload = None;
    let mut seed = 1u64;
    let mut trace = false;
    let mut compare = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number '{v}'"))
        };
        match flag.as_str() {
            "--runs" => runs = value()?.parse().map_err(|_| "--runs: bad count")?,
            "--seconds" => seconds = number(value()?)?,
            "--out" => out = Some(PathBuf::from(value()?)),
            "--traced" => traced = true,
            "--workload" => {
                let name = value()?;
                workload = Some(grid(&name).ok_or_else(|| format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed: bad seed")?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) || runs == 0 {
        return Err("--seconds must be >= 0 and --runs >= 1".into());
    }
    Ok(match (compare, workload) {
        (Some((a, b)), _) => Mode::Compare(a, b),
        (None, Some(grid)) => Mode::One {
            grid,
            seed,
            seconds,
            trace,
        },
        (None, None) => Mode::Suite {
            runs,
            seconds,
            traced,
            out,
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let mode = match parse(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = GUARDED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() && !matches!(mode, Mode::Compare(..)) {
        eprintln!(
            "error: {} set; the runner would change what it simulates. Unset and rerun.",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    match mode {
        Mode::Compare(a, b) => compare(&a, &b),
        Mode::One {
            grid,
            seed,
            seconds,
            trace,
        } => run_one(grid, seed, seconds, trace),
        Mode::Suite {
            runs,
            seconds,
            traced,
            out,
        } => suite(runs, seconds, traced, out),
    }
}

/// `--compare`: prints the verdicts; fails if any reads worse.
fn compare(a: &Path, b: &Path) -> ExitCode {
    match (read_results(a), read_results(b)) {
        (Ok(a), Ok(b)) if report::compare(&a, &b) => ExitCode::FAILURE,
        (Ok(_), Ok(_)) => ExitCode::SUCCESS,
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// One run of one workload: human-readable notes on stderr, then a detail
/// line and the result line on stdout.
fn run_one(grid: &'static Grid, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    // Manifests go to a per-process directory under `results/`, removed
    // when the run ends.
    let dir = PathBuf::from(format!(
        "results/pfsim-benchmark.tmp.{}",
        std::process::id()
    ));
    let (detail, result) = if trace {
        let t = traced::run_traced(grid, seed, &dir);
        report_failures(&t.failures);
        // Reported as measured, never clamped.
        let residual_negative = t.values["core.residual_ns_per_op"] < 0.0;
        if residual_negative {
            eprintln!("flagged: the replayed layers cost more than the untraced run took");
        }
        let metrics: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|l| (l.name, t.values[l.name], l.unit))
            .collect();
        let detail = Json::obj(vec![
            ("workload", Json::str(grid.name)),
            ("seed", Json::uint(seed)),
            ("cells_run", Json::uint(t.cells_run)),
            ("cells_failed", Json::uint(t.cells_failed)),
            ("residual_negative", Json::Bool(residual_negative)),
        ]);
        (detail, result_json(t.cells_run, t.cells_failed, &metrics))
    } else {
        let t = timed::run_timed(grid, seed, seconds, &dir);
        report_failures(&t.failures);
        let wall = t.typical_pass_s();
        let metrics: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .map(|m| {
                let value = match m.name {
                    "wall_s" => wall,
                    "pclocks_per_s" => t.pass_pclocks as f64 / wall,
                    "setup_s" => median(&t.setup_samples),
                    "peak_rss_mb" => t.peak_rss_mb,
                    other => unreachable!("no timed measurement for {other}"),
                };
                (m.name, value, m.unit)
            })
            .collect();
        let detail = Json::obj(vec![
            ("workload", Json::str(grid.name)),
            ("seed", Json::uint(seed)),
            ("pass_s", floats(&t.pass_seconds())),
            ("setup_s_samples", floats(&t.setup_samples)),
            ("pclocks", Json::uint(t.pass_pclocks)),
            ("cells_run", Json::uint(t.cells_run)),
            ("cells_failed", Json::uint(t.cells_failed)),
        ]);
        (detail, result_json(t.cells_run, t.cells_failed, &metrics))
    };
    let _ = std::fs::remove_dir_all(&dir);
    println!("{}", one_line(&detail));
    println!("{}", one_line(&result));
    if result.get("correct").and_then(Json::as_bool) == Some(true) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn report_failures(failures: &[String]) {
    for f in failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    if failures.len() > 20 {
        eprintln!("FAILED: ... and {} more", failures.len() - 20);
    }
}

/// Every workload, one child process per run, one run at a time; prints
/// the table, writes the results file, and fails if any run did.
fn suite(runs: u64, seconds: f64, traced: bool, out: Option<PathBuf>) -> ExitCode {
    let runs = if traced { 1 } else { runs };
    let mut workloads = Vec::new();
    for g in &GRIDS {
        let mut results = Vec::new();
        for seed in 1..=runs {
            eprintln!("[{}] run {seed}/{runs} ...", g.name);
            match child(g.name, seed, seconds, traced) {
                Ok(r) => results.push(r),
                Err(e) => {
                    eprintln!("error: {} seed {seed}: {e}", g.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        workloads.push(Json::obj(vec![
            ("name", Json::str(g.name)),
            ("runs", Json::Array(results)),
        ]));
    }
    let mut members = vec![
        ("schema", Json::uint(1)),
        ("mode", Json::str(if traced { "traced" } else { "timed" })),
        ("seconds", Json::Float(seconds)),
    ];
    members.extend(report::provenance());
    members.push(("workloads", Json::Array(workloads)));
    let results = Json::obj(members);

    if traced {
        report::print_traced(&results);
    } else {
        report::print_timed(&results);
    }
    let path = out.unwrap_or_else(|| {
        PathBuf::from(if traced {
            "results/benchmark-traced.json"
        } else {
            "results/benchmark.json"
        })
    });
    if let Err(e) = write(&path, &results.render()) {
        eprintln!("error: {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("results: {}", path.display());
    if report::all_correct(&results) {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: a run missed an anchor or a fidelity check");
        ExitCode::FAILURE
    }
}

/// Runs this binary on one workload in a child process and returns its
/// result object with the seed and the detail line folded in.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(last), Some(detail)) = (lines.next(), lines.next()) else {
        return Err(format!("no result ({})", out.status));
    };
    let (Json::Object(mut members), detail) = (Json::parse(last)?, Json::parse(detail)?) else {
        return Err("the result line is not an object".into());
    };
    members.insert(0, ("seed".to_string(), Json::uint(seed)));
    members.push(("detail".to_string(), detail));
    Ok(Json::Object(members))
}

fn read_results(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
