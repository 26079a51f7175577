//! Output: the one-line result every run ends with, the suite's results
//! file and tables, and `--compare`.

use pfsim_analysis::Json;

use crate::grid::GRIDS;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{iqr, median, verdict, Verdict};

/// Renders `j` as single-line JSON.
pub fn one_line(j: &Json) -> String {
    match j {
        Json::Array(items) => {
            let items: Vec<String> = items.iter().map(one_line).collect();
            format!("[{}]", items.join(", "))
        }
        Json::Object(members) => {
            let members: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{}: {}", one_line(&Json::str(k.as_str())), one_line(v)))
                .collect();
            format!("{{{}}}", members.join(", "))
        }
        leaf => leaf.render().trim_end().to_string(),
    }
}

/// The result object a run prints as its last line: `correct`,
/// `attempted`, `failed`, and `metrics` as `{name: {value, unit}}`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> Json {
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name,
                Json::obj(vec![
                    ("value", Json::Float(value)),
                    ("unit", Json::str(unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::uint(attempted)),
        ("failed", Json::uint(failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Floats as a JSON array.
pub fn floats(xs: &[f64]) -> Json {
    Json::Array(xs.iter().map(|&x| Json::Float(x)).collect())
}

/// The build and host a results file was measured on.
pub fn provenance() -> Vec<(&'static str, Json)> {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    vec![
        ("git", Json::str(pfsim_bench::manifest::git_describe())),
        ("nproc", Json::uint(nproc)),
        ("rustc", Json::str(rustc)),
    ]
}

/// The runs of `workload` in a suite results file, or of every workload.
fn runs<'a>(results: &'a Json, workload: Option<&'a str>) -> impl Iterator<Item = &'a Json> + 'a {
    results
        .get("workloads")
        .and_then(Json::as_array)
        .into_iter()
        .flatten()
        .filter(move |w| workload.is_none() || w.get("name").and_then(Json::as_str) == workload)
        .flat_map(|w| w.get("runs").and_then(Json::as_array).unwrap_or(&[]))
}

/// `metric`'s value in each run of `workload` in a suite results file.
fn run_values(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs(results, Some(workload))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Prints the timed suite table: every end-to-end metric of every
/// workload, median and IQR over the runs, plus the slowest pass.
pub fn print_timed(results: &Json) {
    println!(
        "{:<16} {:<14} {:<10} {:>14} {:>12} {:>4} {:>6}",
        "workload", "metric", "unit", "median", "IQR", "n", "bound"
    );
    for g in &GRIDS {
        for m in &END_TO_END {
            let xs = run_values(results, g.name, m.name);
            if xs.is_empty() {
                continue;
            }
            println!(
                "{:<16} {:<14} {:<10} {:>14.6} {:>12.6} {:>4} {:>5.0}%",
                g.name,
                m.name,
                m.unit,
                median(&xs),
                iqr(&xs),
                xs.len(),
                m.bound * 100.0
            );
        }
        let passes: Vec<f64> = runs(results, Some(g.name))
            .filter_map(|r| r.get("detail")?.get("pass_s")?.as_array())
            .flatten()
            .filter_map(Json::as_f64)
            .collect();
        if let Some(max) = passes.iter().copied().reduce(f64::max) {
            println!(
                "{:<16} slowest of {} passes: {max:.6} s (not gated)",
                "",
                passes.len()
            );
        }
    }
}

/// Prints the traced suite table: one row per layer metric, one column
/// per workload, and what the metric should move.
pub fn print_traced(results: &Json) {
    print!("{:<36} {:<6}", "layer metric", "unit");
    for g in &GRIDS {
        print!(" {:>15}", g.name);
    }
    println!("  should move");
    for l in &PER_LAYER {
        print!("{:<36} {:<6}", l.name, l.unit);
        for g in &GRIDS {
            match run_values(results, g.name, l.name).first() {
                Some(v) => print!(" {v:>15.4}"),
                None => print!(" {:>15}", "-"),
            }
        }
        let moves: Vec<String> = l.moves.iter().map(|(m, w)| format!("{m}@{w}")).collect();
        println!(
            "  {}",
            if moves.is_empty() {
                "none".to_string()
            } else {
                moves.join(", ")
            }
        );
    }
}

/// `--compare`: for each end-to-end metric and workload, both sides'
/// median and IQR over their runs and the verdict of `change` against
/// `parent`. Returns whether any pairing reads worse.
pub fn compare(parent: &Json, change: &Json) -> bool {
    println!(
        "{:<16} {:<14} {:>14} {:>12} {:>14} {:>12}  verdict",
        "workload", "metric", "A median", "A IQR", "B median", "B IQR"
    );
    let mut worse = false;
    for g in &GRIDS {
        for m in &END_TO_END {
            let (a, b) = (
                run_values(parent, g.name, m.name),
                run_values(change, g.name, m.name),
            );
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let v = verdict(&a, &b, m.higher_is_better, m.bound);
            worse |= v == Verdict::Worse;
            println!(
                "{:<16} {:<14} {:>14.6} {:>12.6} {:>14.6} {:>12.6}  {}",
                g.name,
                m.name,
                median(&a),
                iqr(&a),
                median(&b),
                iqr(&b),
                v.as_str()
            );
        }
    }
    worse
}

/// Whether every run in a suite results file is correct.
pub fn all_correct(results: &Json) -> bool {
    runs(results, None).all(|r| r.get("correct").and_then(Json::as_bool) == Some(true))
}
